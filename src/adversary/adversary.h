// The (rho, b)-bounded adversarial transaction generator.
//
// Combines a workload Strategy with the TokenBucketArray admission control:
// the adversary injects as much congestion as the (rho, b) constraint
// allows, following the "pessimistic" pattern of the paper's simulation —
// one large burst (queues start loaded) and then a steady stream at rate
// rho that tries to keep the system from draining.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "adversary/strategy.h"
#include "adversary/token_bucket.h"
#include "chain/account_map.h"
#include "common/rng.h"
#include "common/types.h"
#include "txn/transaction.h"
#include "txn/txn_factory.h"

namespace stableshard::adversary {

struct AdversaryConfig {
  double rho = 0.1;        ///< injection rate, 0 < rho <= 1
  double burstiness = 1;   ///< b > 0
  /// Round at which the single burst is released (kNoRound = no burst).
  /// The paper's simulation introduces burstiness "within only one epoch";
  /// releasing at round 0 pre-loads the queues.
  Round burst_round = 0;
  /// How many consecutive token-blocked candidates end the round's
  /// injection loop (a blocked candidate is re-drawn, not queued).
  std::uint32_t max_blocked_attempts = 16;
  std::uint64_t seed = 42;
};

struct AdversaryStats {
  std::uint64_t injected = 0;          ///< admitted transactions
  std::uint64_t congestion = 0;        ///< total shard-touches admitted
  std::uint64_t denied = 0;            ///< candidates blocked by buckets
  std::uint64_t burst_injected = 0;    ///< transactions in the burst
};

class Adversary {
 public:
  Adversary(const AdversaryConfig& config, const chain::AccountMap& map,
            std::unique_ptr<Strategy> strategy);

  /// Generate this round's injections into `out` (cleared first). Must be
  /// called once per round in increasing round order. Touches only
  /// adversary-owned state (strategy, buckets, factory, rng), so the engine
  /// may overlap it with a scheduler's pipelined flush of the previous
  /// round. Hot paths pass a reused buffer; the allocating overload below
  /// is the convenience for tests.
  void GenerateRound(Round round, std::vector<txn::Transaction>& out);

  std::vector<txn::Transaction> GenerateRound(Round round) {
    std::vector<txn::Transaction> injected;
    GenerateRound(round, injected);
    return injected;
  }

  const AdversaryStats& stats() const { return stats_; }
  const TokenBucketArray& buckets() const { return buckets_; }
  const Strategy& strategy() const { return *strategy_; }
  TxnId next_txn_id() const { return factory_.created(); }

  /// Optional per-admission hook (round, home, account accesses), fired in
  /// injection order from the same serial phase GenerateRound runs in —
  /// the engine's trace recording feed (traffic::TraceWriter). Specs, not
  /// built Transactions: only the spec preserves the access order a
  /// bit-identical replay needs.
  using InjectionRecorder = std::function<void(
      Round, ShardId, const std::vector<txn::AccessSpec>&)>;
  void set_recorder(InjectionRecorder recorder) {
    recorder_ = std::move(recorder);
  }

 private:
  /// Try to admit one candidate; returns true if injected. A denied
  /// candidate allocates nothing: it is drawn into `candidate_` and checked
  /// against `touched_`, both reused across calls.
  bool TryInjectOne(Round round, std::vector<txn::Transaction>* out);

  AdversaryConfig config_;
  const chain::AccountMap* map_;
  std::unique_ptr<Strategy> strategy_;
  TokenBucketArray buckets_;
  txn::TxnFactory factory_;
  Rng rng_;
  InjectionRecorder recorder_;
  Candidate candidate_;           ///< TryInjectOne's draw scratch
  std::vector<ShardId> touched_;  ///< candidate_'s distinct shards
  double pacing_budget_ = 0.0;  ///< accumulated congestion budget
  bool burst_done_ = false;
  AdversaryStats stats_;
};

}  // namespace stableshard::adversary
