// Tests for the adversarial generator: the token buckets must enforce the
// (rho, b) window property on *every* interval (checked with sliding
// windows), strategies must respect the k-shard cap, and the Theorem-1
// pairwise construction must have its exact combinatorial structure.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <deque>
#include <tuple>
#include <vector>

#include "adversary/adversary.h"
#include "adversary/strategy.h"
#include "adversary/token_bucket.h"
#include "chain/account_map.h"
#include "common/guide_table.h"
#include "common/rng.h"
#include "net/metric.h"

namespace stableshard::adversary {
namespace {

TEST(TokenBucket, StartsFullAndCaps) {
  TokenBucketArray buckets(4, 0.5, 10);
  EXPECT_DOUBLE_EQ(buckets.tokens(0), 10.0);
  buckets.Tick();
  EXPECT_DOUBLE_EQ(buckets.tokens(0), 10.0);  // capped at b
  buckets.Consume({0});
  EXPECT_DOUBLE_EQ(buckets.tokens(0), 9.0);
  buckets.Tick();
  EXPECT_DOUBLE_EQ(buckets.tokens(0), 9.5);
}

TEST(TokenBucket, CanConsumeChecksAllShards) {
  TokenBucketArray buckets(3, 0.1, 1);
  EXPECT_TRUE(buckets.CanConsume({0, 1, 2}));
  buckets.Consume({0});
  EXPECT_FALSE(buckets.CanConsume({0, 1}));
  EXPECT_TRUE(buckets.CanConsume({1, 2}));
}

TEST(TokenBucketDeath, OverConsumeAborts) {
  TokenBucketArray buckets(2, 0.1, 1);
  buckets.Consume({0});
  EXPECT_DEATH(buckets.Consume({0}), "SSHARD_CHECK");
}

// Property: for any interval [t1, t2), admitted congestion per shard is at
// most rho*(t2-t1) + b (+1 slack for the token granularity at interval
// boundaries).
TEST(TokenBucket, WindowPropertyOnGreedyDrain) {
  const double rho = 0.3;
  const double b = 8;
  TokenBucketArray buckets(1, rho, b);
  std::vector<int> per_round;
  Rng rng(5);
  for (Round r = 0; r < 500; ++r) {
    if (r > 0) buckets.Tick();
    int admitted = 0;
    // Greedy adversary: drain whenever possible, plus random idleness to
    // vary the windows.
    const bool greedy = rng.NextBool(0.8);
    while (greedy && buckets.CanConsume({0})) {
      buckets.Consume({0});
      ++admitted;
    }
    per_round.push_back(admitted);
  }
  for (std::size_t t1 = 0; t1 < per_round.size(); t1 += 7) {
    int window_sum = 0;
    for (std::size_t t2 = t1; t2 < per_round.size(); ++t2) {
      window_sum += per_round[t2];
      const double limit = rho * static_cast<double>(t2 - t1 + 1) + b + 1.0;
      EXPECT_LE(window_sum, limit) << "window [" << t1 << "," << t2 << "]";
    }
  }
}

chain::AccountMap MakeMap(ShardId shards, AccountId accounts) {
  return chain::AccountMap::RoundRobin(shards, accounts);
}

TEST(UniformRandomStrategy, RespectsKCap) {
  const auto map = MakeMap(16, 64);
  RandomStrategyOptions options;
  options.max_shards_per_txn = 5;
  options.exact_k = false;
  UniformRandomStrategy strategy(map, options);
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    Candidate candidate;
    ASSERT_TRUE(strategy.Next(0, rng, &candidate));
    EXPECT_GE(candidate.accesses.size(), 1u);
    EXPECT_LE(candidate.accesses.size(), 5u);
    EXPECT_LE(candidate.TouchedShards(map).size(), 5u);
    EXPECT_LT(candidate.home, 16u);
  }
}

TEST(Candidate, TouchedShardsIntoCallerStorageIsTheOwnerSet) {
  const auto map = MakeMap(16, 64);
  RandomStrategyOptions options;
  options.max_shards_per_txn = 8;
  options.exact_k = false;
  UniformRandomStrategy strategy(map, options);
  Rng rng(12);
  Candidate candidate;
  std::vector<ShardId> touched{99, 98, 97};  // stale contents are replaced
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(strategy.Next(0, rng, &candidate));
    std::vector<ShardId> expected;
    for (const auto& access : candidate.accesses) {
      expected.push_back(map.OwnerOf(access.account));
    }
    std::sort(expected.begin(), expected.end());
    expected.erase(std::unique(expected.begin(), expected.end()),
                   expected.end());
    candidate.TouchedShards(map, touched);
    std::sort(touched.begin(), touched.end());
    EXPECT_EQ(touched, expected);  // the same set, each shard once
  }
}

TEST(UniformRandomStrategy, ExactKAccounts) {
  const auto map = MakeMap(16, 64);
  RandomStrategyOptions options;
  options.max_shards_per_txn = 4;
  options.exact_k = true;
  UniformRandomStrategy strategy(map, options);
  Rng rng(2);
  Candidate candidate;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(strategy.Next(0, rng, &candidate));
    EXPECT_EQ(candidate.accesses.size(), 4u);
  }
}

TEST(HotspotStrategy, AlwaysTouchesHotspot) {
  const auto map = MakeMap(8, 32);
  RandomStrategyOptions options;
  options.max_shards_per_txn = 3;
  HotspotStrategy strategy(map, /*hotspot=*/7, options);
  Rng rng(3);
  Candidate candidate;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(strategy.Next(0, rng, &candidate));
    bool touches = false;
    for (const auto& access : candidate.accesses) {
      if (access.account == 7) touches = true;
      EXPECT_LT(access.account, 32u);
    }
    EXPECT_TRUE(touches);
  }
}

TEST(PairwiseConflictStrategy, ExactTheorem1Structure) {
  const std::uint32_t k = 4;  // needs s >= k(k+1)/2 = 10
  const auto map = MakeMap(10, 10);
  PairwiseConflictStrategy strategy(map, k);
  EXPECT_EQ(strategy.group_size(), k + 1);
  Rng rng(4);
  std::vector<std::vector<ShardId>> members;
  for (std::uint32_t i = 0; i <= k; ++i) {
    Candidate candidate;
    ASSERT_TRUE(strategy.Next(0, rng, &candidate));
    members.push_back(candidate.TouchedShards(map));
    EXPECT_EQ(members.back().size(), k);
  }
  // Every pair of group members shares exactly one shard.
  for (std::uint32_t i = 0; i <= k; ++i) {
    for (std::uint32_t j = i + 1; j <= k; ++j) {
      int shared = 0;
      for (const ShardId shard : members[i]) {
        for (const ShardId other : members[j]) {
          if (shard == other) ++shared;
        }
      }
      EXPECT_EQ(shared, 1) << "pair " << i << "," << j;
    }
  }
  // The group repeats cyclically.
  Candidate candidate;
  ASSERT_TRUE(strategy.Next(0, rng, &candidate));
  EXPECT_EQ(candidate.TouchedShards(map), members[0]);
}

TEST(PairwiseConflictStrategyDeath, RequiresEnoughShards) {
  const auto map = MakeMap(5, 5);  // k=4 needs 10 shards
  EXPECT_DEATH(PairwiseConflictStrategy(map, 4), "SSHARD_CHECK");
}

TEST(LocalStrategy, StaysWithinRadius) {
  const auto map = MakeMap(16, 16);
  net::LineMetric metric(16);
  RandomStrategyOptions options;
  options.max_shards_per_txn = 3;
  options.exact_k = false;
  LocalStrategy strategy(map, metric, /*radius=*/2, options);
  Rng rng(5);
  Candidate candidate;
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(strategy.Next(0, rng, &candidate));
    for (const ShardId shard : candidate.TouchedShards(map)) {
      EXPECT_LE(metric.distance(candidate.home, shard), 2u);
    }
  }
}

TEST(SingleShardStrategy, OneShardPerTxn) {
  const auto map = MakeMap(8, 16);
  SingleShardStrategy strategy(map);
  Rng rng(6);
  Candidate candidate;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(strategy.Next(0, rng, &candidate));
    EXPECT_EQ(candidate.TouchedShards(map).size(), 1u);
    EXPECT_EQ(candidate.home,
              map.OwnerOf(candidate.accesses.front().account));
  }
}

TEST(HotDestinationStrategy, ConcentratesTrafficOnHotShard) {
  const auto map = MakeMap(16, 16);
  RandomStrategyOptions options;
  options.max_shards_per_txn = 4;
  HotDestinationStrategy strategy(map, /*theta=*/1.0, options);
  EXPECT_EQ(strategy.hot_shard(), 0u);
  Rng rng(7);
  std::vector<int> touches(16, 0);
  Candidate candidate;
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(strategy.Next(0, rng, &candidate));
    EXPECT_GE(candidate.accesses.size(), 1u);
    EXPECT_LE(candidate.accesses.size(), 4u);
    for (const ShardId shard : candidate.TouchedShards(map)) {
      ++touches[shard];
    }
  }
  // Zipf(1) skew: the rank-1 shard sees far more than its uniform share,
  // and more than any other shard; the tail still participates.
  const int total = 2000 * 4;
  EXPECT_GT(touches[0], total / 16);
  for (ShardId shard = 1; shard < 16; ++shard) {
    EXPECT_GT(touches[0], touches[shard]) << "shard " << shard;
    EXPECT_GT(touches[shard], 0) << "shard " << shard;
  }
}

// The guide-table lookup PickShard draws through must return exactly
// std::upper_bound's index, rounding included, or the Zipf draw would pick
// a different shard for some u.
TEST(HotDestinationStrategy, GuideTableLookupIsUpperBoundExactly) {
  Rng rng(31);
  for (const double theta : {0.0, 0.5, 1.0, 1.2, 2.0, 8.0}) {
    for (const AccountId populated : {1u, 2u, 63u, 64u, 1000u}) {
      // Shards past `populated` own no account: they must not be ranked.
      for (const ShardId account_free : {0u, 7u}) {
        const auto map = MakeMap(populated + account_free, populated);
        const HotDestinationStrategy strategy(map, theta,
                                              RandomStrategyOptions{});
        const GuideTable& zipf = strategy.zipf();
        const std::vector<double>& sums = zipf.prefix_sums();
        ASSERT_EQ(sums.size(), populated);
        std::size_t checked = 0, wrong = 0;
        double first_wrong = 0.0;
        const auto check = [&](double u) {
          const auto expected = static_cast<std::size_t>(
              std::upper_bound(sums.begin(), sums.end(), u) - sums.begin());
          ++checked;
          if (zipf.UpperBound(u) != expected && wrong++ == 0) first_wrong = u;
        };
        const auto check_around = [&](double u) {
          check(u);
          check(std::nextafter(u, 0.0));
          check(std::nextafter(u, HUGE_VAL));
        };
        check(0.0);
        for (const double sum : sums) check_around(sum);
        // Every bucket edge, computed as the table computes it.
        const std::size_t buckets = GuideTable::kEntriesPerValue * populated;
        const double scale = static_cast<double>(buckets) / zipf.total();
        for (std::size_t bucket = 0; bucket <= buckets; ++bucket) {
          check_around(static_cast<double>(bucket) / scale);
        }
        if (account_free == 0) {
          for (int draw = 0; draw < 1000000; ++draw) {
            check(rng.NextDouble() * zipf.total());
          }
        }
        EXPECT_EQ(wrong, 0u) << "theta " << theta << ", " << populated
                             << " populated shards, first wrong u "
                             << first_wrong << " of " << checked;
      }
    }
  }
}

TEST(HotDestinationStrategy, DistinctAccountsPerCandidate) {
  const auto map = MakeMap(8, 8);
  RandomStrategyOptions options;
  options.max_shards_per_txn = 4;
  HotDestinationStrategy strategy(map, /*theta=*/2.0, options);  // heavy skew
  Rng rng(8);
  Candidate candidate;
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(strategy.Next(0, rng, &candidate));
    std::vector<AccountId> accounts;
    for (const auto& access : candidate.accesses) {
      accounts.push_back(access.account);
    }
    std::sort(accounts.begin(), accounts.end());
    EXPECT_EQ(std::unique(accounts.begin(), accounts.end()), accounts.end());
  }
}

TEST(DiameterSpanStrategy, EveryCandidateSpansTheDiameter) {
  const auto map = MakeMap(16, 16);
  net::LineMetric metric(16);
  RandomStrategyOptions options;
  options.max_shards_per_txn = 4;
  DiameterSpanStrategy strategy(map, metric, options);
  EXPECT_EQ(strategy.span(), metric.Diameter());
  EXPECT_EQ(strategy.endpoint_a(), 0u);
  EXPECT_EQ(strategy.endpoint_b(), 15u);
  Rng rng(9);
  Candidate candidate;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(strategy.Next(0, rng, &candidate));
    const auto shards = candidate.TouchedShards(map);
    Distance widest = 0;
    for (const ShardId a : shards) {
      for (const ShardId b : shards) {
        widest = std::max(widest, metric.distance(a, b));
      }
    }
    EXPECT_EQ(widest, metric.Diameter());
    EXPECT_LE(candidate.accesses.size(), 4u);
    // Homes alternate between the endpoints.
    EXPECT_TRUE(candidate.home == 0u || candidate.home == 15u);
  }
}

TEST(DiameterSpanStrategyDeath, RejectsWidthOneTransactions) {
  // k = 1 candidates cannot anchor both endpoints; the constructor must
  // refuse rather than silently exceed the declared transaction width.
  const auto map = MakeMap(8, 8);
  net::LineMetric metric(8);
  RandomStrategyOptions options;
  options.max_shards_per_txn = 1;
  EXPECT_DEATH(DiameterSpanStrategy(map, metric, options), "k >= 2");
}

TEST(DiameterSpanStrategy, UniformMetricDegeneratesToDistanceOne) {
  const auto map = MakeMap(6, 6);
  net::UniformMetric metric(6);
  RandomStrategyOptions options;
  options.max_shards_per_txn = 3;
  DiameterSpanStrategy strategy(map, metric, options);
  EXPECT_EQ(strategy.span(), 1u);
  Rng rng(10);
  Candidate candidate;
  ASSERT_TRUE(strategy.Next(0, rng, &candidate));
  EXPECT_GE(candidate.TouchedShards(map).size(), 2u);
}

TEST(Adversary, InjectionRespectsWindowBoundPerShard) {
  const auto map = MakeMap(8, 8);
  AdversaryConfig config;
  config.rho = 0.2;
  config.burstiness = 5;
  config.burst_round = 0;
  config.seed = 7;
  RandomStrategyOptions options;
  options.max_shards_per_txn = 3;
  Adversary adversary(config, map,
                      std::make_unique<UniformRandomStrategy>(map, options));

  const Round rounds = 400;
  std::vector<std::vector<int>> congestion(8, std::vector<int>(rounds, 0));
  for (Round r = 0; r < rounds; ++r) {
    for (const auto& txn : adversary.GenerateRound(r)) {
      for (const ShardId shard : txn.destinations()) {
        ++congestion[shard][r];
      }
    }
  }
  for (ShardId shard = 0; shard < 8; ++shard) {
    for (Round t1 = 0; t1 < rounds; t1 += 13) {
      int window = 0;
      for (Round t2 = t1; t2 < rounds; ++t2) {
        window += congestion[shard][t2];
        const double limit =
            config.rho * static_cast<double>(t2 - t1 + 1) + config.burstiness +
            1.0;
        ASSERT_LE(window, limit)
            << "shard " << shard << " window [" << t1 << "," << t2 << "]";
      }
    }
  }
}

TEST(Adversary, BurstHappensOnce) {
  const auto map = MakeMap(8, 8);
  AdversaryConfig config;
  config.rho = 0.05;
  config.burstiness = 20;
  config.burst_round = 10;
  RandomStrategyOptions options;
  options.max_shards_per_txn = 2;
  Adversary adversary(config, map,
                      std::make_unique<UniformRandomStrategy>(map, options));
  std::vector<std::size_t> injected_per_round;
  for (Round r = 0; r < 50; ++r) {
    injected_per_round.push_back(adversary.GenerateRound(r).size());
  }
  // Before the burst round: steady trickle only.
  for (Round r = 0; r < 10; ++r) {
    EXPECT_LE(injected_per_round[r], 3u);
  }
  // The burst round injects far more than the steady rate.
  EXPECT_GT(injected_per_round[10], 10u);
  EXPECT_GT(adversary.stats().burst_injected, 10u);
}

TEST(Adversary, NoBurstWhenDisabled) {
  const auto map = MakeMap(4, 4);
  AdversaryConfig config;
  config.rho = 0.1;
  config.burstiness = 50;
  config.burst_round = kNoRound;
  Adversary adversary(config, map,
                      std::make_unique<SingleShardStrategy>(map));
  std::uint64_t max_per_round = 0;
  for (Round r = 0; r < 100; ++r) {
    max_per_round =
        std::max<std::uint64_t>(max_per_round, adversary.GenerateRound(r).size());
  }
  // Paced injection: ~rho * s congestion per round, never the full burst.
  EXPECT_LE(max_per_round, 5u);
  EXPECT_EQ(adversary.stats().burst_injected, 0u);
}

TEST(Adversary, SteadyRateMatchesRho) {
  const auto map = MakeMap(8, 8);
  AdversaryConfig config;
  config.rho = 0.25;
  config.burstiness = 4;
  config.burst_round = kNoRound;
  Adversary adversary(config, map,
                      std::make_unique<SingleShardStrategy>(map));
  std::uint64_t congestion = 0;
  const Round rounds = 2000;
  for (Round r = 0; r < rounds; ++r) {
    for (const auto& txn : adversary.GenerateRound(r)) {
      congestion += txn.destinations().size();
    }
  }
  // Aggregate congestion should track rho * s per round within 15%.
  const double expected = config.rho * 8 * static_cast<double>(rounds);
  EXPECT_GT(static_cast<double>(congestion), 0.85 * expected);
  EXPECT_LE(static_cast<double>(congestion), 1.05 * expected);
}

TEST(Adversary, TxnIdsAreUniqueAndOrdered) {
  const auto map = MakeMap(4, 4);
  AdversaryConfig config;
  config.rho = 0.5;
  config.burstiness = 10;
  Adversary adversary(config, map,
                      std::make_unique<SingleShardStrategy>(map));
  TxnId last = 0;
  bool first = true;
  for (Round r = 0; r < 50; ++r) {
    for (const auto& txn : adversary.GenerateRound(r)) {
      if (!first) {
        EXPECT_GT(txn.id(), last);
      }
      last = txn.id();
      first = false;
      EXPECT_EQ(txn.injected(), r);
    }
  }
}

}  // namespace
}  // namespace stableshard::adversary
