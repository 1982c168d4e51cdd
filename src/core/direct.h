// Direct scheduler — the uncoordinated baseline.
//
// No epochs, no leader, no coloring: the home shard of each transaction
// immediately ships the subtransactions to their destination shards, where
// they queue in global transaction-id order (a total order, so all shards
// serialize conflicting transactions identically) and commit through the
// same vote/confirm protocol as FDS, coordinated by the home shard.
//
// This is the natural "do nothing clever" comparator for both algorithms:
// it has minimal scheduling latency at low load, but under conflicts every
// transaction pays a full vote round-trip per queue position instead of
// committing color-parallel batches, and under bursts the id-ordered queue
// is oblivious to the conflict structure.
//
// Shard-parallel decomposition: injections are bucketed by home shard and
// shipped from that shard's StepShard; all protocol state is already
// partitioned per shard inside CommitProtocol.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "core/commit_ledger.h"
#include "core/commit_protocol.h"
#include "core/networked_scheduler.h"
#include "net/metric.h"

namespace stableshard::core {

class DirectScheduler final : public NetworkedScheduler {
 public:
  DirectScheduler(const net::ShardMetric& metric, CommitLedger& ledger);

  void Inject(const txn::Transaction& txn) override;
  void BeginRound(Round round) override;
  void StepShard(ShardId shard, Round round) override;
  bool Idle() const override;
  const char* name() const override { return "direct"; }

 private:
  CommitProtocol protocol_;
  /// This round's injections, by home shard (emptied by the home's
  /// StepShard, so non-empty only between Inject and the next round).
  std::vector<std::vector<TxnId>> inject_by_home_;
};

}  // namespace stableshard::core
