// Shared transport half of the message-passing schedulers (BDS, FDS,
// Direct).
//
// Each of them exchanges core::Message values over one net::Network,
// queues sends on per-shard OutboxSet lanes during StepShard, and resolves
// confirms through the CommitLedger's per-destination journal. The round
// epilogue over that state is the same for all three, so it lives here
// once:
//
//   SealRound            close the outbox lanes, the network's partitioned
//                        flush window and the ledger journal (which seals
//                        the attached WAL's staging lanes too);
//   FlushRoundPartition  claim the partition's destination range
//                        (FlushShardRange), deposit the lane items bound
//                        for it, resolve the journal entries the partition
//                        owns and persist its WAL chunk;
//   FinishRound          fold sender traffic, network counters, ledger
//                        counters and latency serially, then retire the
//                        lanes and the journal.
//
// Subclasses implement the protocol (Inject, BeginRound, StepShard, Idle)
// and any introspection beyond the network's.
#pragma once

#include <cstdint>
#include <vector>

#include "common/thread_annotations.h"
#include "common/types.h"
#include "core/commit_ledger.h"
#include "core/messages.h"
#include "core/ownership.h"
#include "core/scheduler.h"
#include "net/metric.h"
#include "net/network.h"
#include "net/outbox.h"

namespace stableshard::core {

class NetworkedScheduler : public Scheduler {
 public:
  void SealRound(Round round, std::uint32_t parts) override
      SSHARD_ACQUIRE(outbox_.sealed_cap, network_.flush_cap,
                     ledger_->journal_cap);
  void FlushRoundPartition(Round round, std::uint32_t part,
                           std::uint32_t parts) override
      SSHARD_REQUIRES(outbox_.sealed_cap, network_.flush_cap,
                      ledger_->journal_cap);
  void FinishRound(Round round) override
      SSHARD_RELEASE(outbox_.sealed_cap, network_.flush_cap,
                     ledger_->journal_cap);

  ShardId shard_count() const override {
    return network_.metric().shard_count();
  }
  std::uint64_t MessagesSent() const override {
    return network_.stats().messages_sent;
  }
  std::uint64_t PayloadUnits() const override {
    return network_.stats().payload_units;
  }
  net::RingMemory NetworkMemory() const override {
    return network_.ring_memory();
  }
  net::LaneMemory OutboxMemory() const override {
    return outbox_.lane_memory();
  }
  net::ShardTraffic ShardTrafficFor(ShardId shard) const override {
    return network_.shard_traffic(shard);
  }
  /// Undelivered network messages addressed to `shard`.
  std::uint64_t QueueDepth(ShardId shard) const override {
    return network_.pending_for(shard);
  }

 protected:
  NetworkedScheduler(const net::ShardMetric& metric, CommitLedger& ledger);

  CommitLedger* ledger_;
  net::Network<Message> network_;
  net::OutboxSet<Message> outbox_;
  /// Debug-build shard-ownership checker (see core/ownership.h): StepShard
  /// claims its shard, FlushRoundPartition its destination range, and the
  /// subclasses' shard-owned helpers guard with SSHARD_OWNED. Empty in
  /// Release.
  OwnershipRegistry ownership_;
  /// Per-shard delivery buffers: DeliverTo swaps the due ring slot with the
  /// shard's buffer, recycling envelope capacity across rounds (shard-owned,
  /// so concurrent StepShard calls never share one).
  std::vector<std::vector<net::Network<Message>::Envelope>> inbox_;
};

}  // namespace stableshard::core
