// Adversary workload strategies.
//
// The space of (rho, b)-admissible adversaries is over-exponential (paper
// Section 7), so like the paper we implement concrete "pessimistic"
// strategies. A Strategy proposes candidate transactions (home shard +
// account accesses); the Adversary (adversary.h) admits candidates subject
// to the token buckets and paces aggregate congestion at the target rate.
//
// Strategies are constructed through the self-registering StrategyRegistry
// (strategy_registry.h): each concrete class lives in its own translation
// unit (uniform_random.cc, hotspot.cc, pairwise_conflict.cc, local.cc,
// single_shard.cc, hot_destination.cc, diameter_span.cc) with a registrar
// at the bottom, so the engine builds workloads purely by name.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "chain/account_map.h"
#include "common/guide_table.h"
#include "common/rng.h"
#include "common/types.h"
#include "net/metric.h"
#include "txn/txn_factory.h"

namespace stableshard::adversary {

/// A candidate transaction before admission control.
struct Candidate {
  ShardId home = kInvalidShard;
  std::vector<txn::AccessSpec> accesses;

  /// Distinct owner shards of the accessed accounts into `out` (replacing
  /// its contents), in first-access order: the token-bucket check needs
  /// the set, not its order. Allocates nothing once `out` holds
  /// accesses.size() shards.
  void TouchedShards(const chain::AccountMap& map,
                     std::vector<ShardId>& out) const;

  std::vector<ShardId> TouchedShards(const chain::AccountMap& map) const {
    std::vector<ShardId> shards;
    TouchedShards(map, shards);
    return shards;
  }
};

class Strategy {
 public:
  virtual ~Strategy() = default;

  /// Produce the next candidate for round `round` into `out`, overwriting
  /// its home and accesses. Strategies are pull-based and may be called
  /// many times per round; return false only if the strategy has
  /// structurally nothing more to offer (most strategies always return
  /// true — pacing is the Adversary's job). The generating strategies keep
  /// their per-call scratch as members, so a call into a reused `out`
  /// allocates nothing once warm.
  virtual bool Next(Round round, Rng& rng, Candidate* out) = 0;

  /// Human-readable name for logs and CSV.
  virtual const char* name() const = 0;
};

/// Options shared by the random strategies.
struct RandomStrategyOptions {
  std::uint32_t max_shards_per_txn = 8;  ///< the paper's k
  /// If true each candidate accesses exactly k accounts; otherwise a uniform
  /// count in [1, k] (the paper caps at k; exact-k is the worst case).
  bool exact_k = true;
  /// Probability that a candidate carries an unsatisfiable condition and
  /// will abort at commit time (exercises the abort path; 0 for figures).
  double abort_probability = 0.0;
};

/// The paper's simulation workload: accounts chosen uniformly at random
/// (distinct), home shard chosen uniformly at random.
class UniformRandomStrategy final : public Strategy {
 public:
  UniformRandomStrategy(const chain::AccountMap& map,
                        RandomStrategyOptions options);
  bool Next(Round round, Rng& rng, Candidate* out) override;
  const char* name() const override { return "uniform_random"; }

 private:
  const chain::AccountMap* map_;
  RandomStrategyOptions options_;
  std::vector<std::uint64_t> picks_;  ///< account sample scratch
};

/// Hotspot: every transaction writes a fixed account plus k-1 random ones;
/// the conflict graph is a clique on the hotspot — the worst serialization
/// case for any scheduler.
class HotspotStrategy final : public Strategy {
 public:
  HotspotStrategy(const chain::AccountMap& map, AccountId hotspot,
                  RandomStrategyOptions options);
  bool Next(Round round, Rng& rng, Candidate* out) override;
  const char* name() const override { return "hotspot"; }

 private:
  const chain::AccountMap* map_;
  AccountId hotspot_;
  RandomStrategyOptions options_;
  std::vector<std::uint64_t> picks_;  ///< account sample scratch
};

/// Theorem 1's lower-bound construction: k+1 transactions T_1..T_{k+1}
/// where each pair (i, j) shares a dedicated shard; the group is mutually
/// conflicting yet adds only congestion 2 per used shard. Requires
/// s >= k(k+1)/2 (Case 1 of the proof); candidates cycle through the group.
class PairwiseConflictStrategy final : public Strategy {
 public:
  PairwiseConflictStrategy(const chain::AccountMap& map, std::uint32_t k);
  bool Next(Round round, Rng& rng, Candidate* out) override;
  const char* name() const override { return "pairwise_conflict"; }

  std::uint32_t group_size() const { return k_ + 1; }

 private:
  const chain::AccountMap* map_;
  std::uint32_t k_;
  std::uint32_t cursor_ = 0;
  // pair_shard_[{i,j}] = shard dedicated to transactions i and j.
  std::vector<std::vector<ShardId>> member_shards_;  // txn index -> shards
};

/// Locality-bounded strategy for the non-uniform model: home shard uniform,
/// accessed accounts owned by shards within `radius` of home (the paper's
/// d parameter). Falls back to the home shard's own accounts when the
/// neighborhood is account-free.
class LocalStrategy final : public Strategy {
 public:
  LocalStrategy(const chain::AccountMap& map, const net::ShardMetric& metric,
                Distance radius, RandomStrategyOptions options);
  bool Next(Round round, Rng& rng, Candidate* out) override;
  const char* name() const override { return "local"; }

 private:
  const chain::AccountMap* map_;
  const net::ShardMetric* metric_;
  Distance radius_;
  RandomStrategyOptions options_;
  // Precomputed: per home shard, the accounts reachable within radius.
  std::vector<std::vector<AccountId>> reachable_;
  std::vector<std::uint64_t> picks_;  ///< reachable-index sample scratch
};

/// Single-shard transactions (k = 1): the fully parallel regime where the
/// sqrt(s) bound dominates.
class SingleShardStrategy final : public Strategy {
 public:
  explicit SingleShardStrategy(const chain::AccountMap& map);
  bool Next(Round round, Rng& rng, Candidate* out) override;
  const char* name() const override { return "single_shard"; }

 private:
  const chain::AccountMap* map_;
};

/// Zipfian hot-destination workload: accessed accounts (and the home shard)
/// are drawn from a Zipf(theta) distribution over the account-owning
/// shards, so net::ShardTraffic concentrates on the hottest shard without
/// the total serialization of the single-account hotspot clique. This is
/// the trigger scenario for leader-queue backpressure (ROADMAP): a
/// scheduler watching per-shard traffic shares sees one destination running
/// hot while the rest of the system stays parallel.
class HotDestinationStrategy final : public Strategy {
 public:
  /// `theta` >= 0 is the Zipf exponent (0 = uniform, ~1 = classic Zipf,
  /// larger = hotter). Rank 1 (the hottest destination) is the lowest-id
  /// shard that owns at least one account.
  HotDestinationStrategy(const chain::AccountMap& map, double theta,
                         RandomStrategyOptions options);
  bool Next(Round round, Rng& rng, Candidate* out) override;
  const char* name() const override { return "hot_destination"; }

  /// The rank-1 destination.
  ShardId hot_shard() const { return populated_.front(); }

  /// Zipf prefix sums over the populated shards, with the exact guide-table
  /// lookup PickShard draws through.
  const GuideTable& zipf() const { return zipf_; }

 private:
  ShardId PickShard(Rng& rng) const;

  const chain::AccountMap* map_;
  RandomStrategyOptions options_;
  std::vector<ShardId> populated_;  ///< shards owning >= 1 account
  GuideTable zipf_;                 ///< Zipf prefix sums over populated_
};

/// Diameter-spanning transactions: every candidate touches accounts on both
/// endpoints of a farthest (account-owning) shard pair, so its x-span
/// covers the topology diameter. Under FDS this is the degenerate regime
/// measured in the large-s sweeps — every transaction lands in the
/// top-layer cluster, whose single leader sees ~99% of messages and whose
/// epochs span thousands of rounds — now reproducible as a first-class
/// workload instead of a bench-only configuration.
class DiameterSpanStrategy final : public Strategy {
 public:
  DiameterSpanStrategy(const chain::AccountMap& map,
                       const net::ShardMetric& metric,
                       RandomStrategyOptions options);
  bool Next(Round round, Rng& rng, Candidate* out) override;
  const char* name() const override { return "diameter_span"; }

  ShardId endpoint_a() const { return endpoint_a_; }
  ShardId endpoint_b() const { return endpoint_b_; }
  /// Distance between the endpoints (== Diameter() whenever some diametral
  /// pair has accounts on both ends; the farthest populated pair otherwise).
  Distance span() const;

 private:
  const chain::AccountMap* map_;
  const net::ShardMetric* metric_;
  RandomStrategyOptions options_;
  ShardId endpoint_a_ = 0;
  ShardId endpoint_b_ = 0;
  bool flip_ = false;  ///< alternate the home between the endpoints
};

}  // namespace stableshard::adversary
