// Golden generation stream: a 64-bit fingerprint of every transaction the
// workload generators produce, plus the adversary's admission counters, for
// each registered strategy at a fixed seed.
//
// Every other determinism test compares two runs of the same binary, so a
// change that alters one RNG draw, one bucket retry or one generated
// transaction would pass them all. These constants were recorded once and
// must never be edited to make a generation change pass: a generation
// rewrite is correct only if it reproduces them exactly.
//
// Floating-point inputs are chosen so the constants do not depend on the
// host's libm: hot_destination runs at theta = 1 and theta = 2, where
// std::pow is exact, and every other draw is integer or IEEE basic
// arithmetic.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "adversary/adversary.h"
#include "adversary/strategy.h"
#include "adversary/strategy_registry.h"
#include "chain/account_map.h"
#include "common/rng.h"
#include "core/config.h"
#include "net/metric.h"
#include "traffic/arrival.h"
#include "traffic/injector.h"
#include "txn/transaction.h"

namespace stableshard {
namespace {

constexpr ShardId kShards = 16;
constexpr Round kRounds = 2000;

std::uint64_t Fold(std::uint64_t hash, std::uint64_t value) {
  return Mix64(hash ^ Mix64(value));
}

/// Everything a transaction carries into the scheduler: id, home, injection
/// round, and each sub's destination, conditions and actions in order.
std::uint64_t FoldTransaction(std::uint64_t hash, const txn::Transaction& t) {
  hash = Fold(hash, t.id());
  hash = Fold(hash, t.home());
  hash = Fold(hash, t.injected());
  hash = Fold(hash, t.subs().size());
  for (const txn::SubTransaction& sub : t.subs()) {
    hash = Fold(hash, sub.destination);
    hash = Fold(hash, sub.conditions.size());
    for (const chain::Condition& condition : sub.conditions) {
      hash = Fold(hash, condition.account);
      hash = Fold(hash, static_cast<std::uint64_t>(condition.op));
      hash = Fold(hash, static_cast<std::uint64_t>(condition.value));
    }
    hash = Fold(hash, sub.actions.size());
    for (const chain::Action& action : sub.actions) {
      hash = Fold(hash, action.account);
      hash = Fold(hash, static_cast<std::uint64_t>(action.kind));
      hash = Fold(hash, static_cast<std::uint64_t>(action.amount));
    }
  }
  return hash;
}

/// A 16-shard map with 96 accounts placed at random (every shard owns at
/// least one), or round-robin over 12 accounts (shards 12..15 own none).
/// 96 accounts put uniform_random's and hotspot's account samples on the
/// sparse (rejection) path of Rng::SampleWithoutReplacement and local's
/// neighbourhood samples on the dense (Fisher-Yates) path.
enum class MapKind { kRandom96, kRoundRobin12 };

chain::AccountMap MakeMap(MapKind kind) {
  if (kind == MapKind::kRoundRobin12) {
    return chain::AccountMap::RoundRobin(kShards, 12);
  }
  Rng rng(11);
  return chain::AccountMap::Random(kShards, 96, rng);
}

std::unique_ptr<adversary::Strategy> BuildStrategy(
    const std::string& name, const core::SimConfig& config,
    const chain::AccountMap& map, const net::ShardMetric& metric) {
  Rng deps_rng(config.seed);
  adversary::StrategyDeps deps{map, metric, deps_rng};
  return adversary::StrategyRegistry::Global().Build(name, config, deps);
}

core::SimConfig StrategyConfig(double theta, double abort_probability) {
  core::SimConfig config;
  config.shards = kShards;
  config.k = 4;
  config.local_radius = 2;
  config.zipf_theta = theta;
  config.abort_probability = abort_probability;
  return config;
}

struct ClosedLoopCase {
  const char* label;
  const char* strategy;
  double theta;
  double abort_probability;
  MapKind map;
  // Pinned outcome.
  std::uint64_t fingerprint;
  std::uint64_t injected;
  std::uint64_t denied;
  std::uint64_t congestion;
};

// The closed-loop (rho, b) adversary: a burst of b at round 0, then the
// paced steady stream, with denied candidates redrawn.
const ClosedLoopCase kClosedLoop[] = {
    {"uniform_random", "uniform_random", 1.0, 0.0, MapKind::kRandom96,
     0xabf49d6ceea3a820ULL, 2637, 41996, 9129},
    {"uniform_random/abort", "uniform_random", 1.0, 0.25, MapKind::kRandom96,
     0xeabda9e7b60cf881ULL, 2667, 42390, 9175},
    {"hotspot", "hotspot", 1.0, 0.0, MapKind::kRandom96,
     0x32f40c351c778681ULL, 605, 31984, 2226},
    {"pairwise_conflict", "pairwise_conflict", 1.0, 0.0, MapKind::kRandom96,
     0x1fee31c1c753346aULL, 1511, 32042, 6044},
    {"local", "local", 1.0, 0.0, MapKind::kRandom96,
     0x9b6c6c8dca72a5e2ULL, 3610, 44238, 9207},
    {"single_shard", "single_shard", 1.0, 0.0, MapKind::kRandom96,
     0x6dc9cadf570287aaULL, 9601, 23530, 9601},
    {"hot_destination/theta=1", "hot_destination", 1.0, 0.0,
     MapKind::kRandom96, 0xf23b22affe12878fULL, 2206, 40663, 7682},
    {"hot_destination/theta=2", "hot_destination", 2.0, 0.0,
     MapKind::kRandom96, 0xe75c7081f2d34ac1ULL, 875, 33895, 2588},
    {"hot_destination/theta=2/account-free", "hot_destination", 2.0, 0.0,
     MapKind::kRoundRobin12, 0xcef965e0de3e2fdfULL, 736, 33152, 2782},
    {"diameter_span", "diameter_span", 1.0, 0.0, MapKind::kRandom96,
     0x353e15e7fac8c322ULL, 605, 31984, 2287},
};

TEST(GenerationGolden, EveryGeneratingStrategyIsPinned) {
  std::set<std::string> pinned;
  for (const ClosedLoopCase& c : kClosedLoop) pinned.insert(c.strategy);
  for (const std::string& name :
       adversary::StrategyRegistry::Global().Names()) {
    if (name == "trace_replay") continue;  // re-emits a file, draws nothing
    EXPECT_TRUE(pinned.count(name) == 1)
        << "strategy " << name << " has no golden generation stream";
  }
}

TEST(GenerationGolden, ClosedLoopAdversaryStreams) {
  for (const ClosedLoopCase& c : kClosedLoop) {
    SCOPED_TRACE(c.label);
    const chain::AccountMap map = MakeMap(c.map);
    const net::LineMetric metric(kShards);
    adversary::AdversaryConfig config;
    config.rho = 0.3;
    config.burstiness = 6;
    config.burst_round = 0;
    config.seed = 2024;
    adversary::Adversary adversary(
        config, map,
        BuildStrategy(c.strategy, StrategyConfig(c.theta, c.abort_probability),
                      map, metric));
    std::uint64_t fingerprint = 0;
    std::vector<txn::Transaction> batch;
    for (Round round = 0; round < kRounds; ++round) {
      adversary.GenerateRound(round, batch);
      for (const txn::Transaction& t : batch) {
        fingerprint = FoldTransaction(fingerprint, t);
      }
    }
    const adversary::AdversaryStats& stats = adversary.stats();
    EXPECT_EQ(fingerprint, c.fingerprint) << std::hex << "0x" << fingerprint;
    EXPECT_EQ(stats.injected, c.injected);
    EXPECT_EQ(stats.denied, c.denied);
    EXPECT_EQ(stats.congestion, c.congestion);
    EXPECT_EQ(adversary.next_txn_id(), stats.injected);
  }
}

// The open loop: token-bucket arrivals decide how many transactions land
// each round, hot_destination decides their shape; nothing is denied.
TEST(GenerationGolden, OpenLoopTokenBucketStream) {
  const chain::AccountMap map = MakeMap(MapKind::kRandom96);
  const net::LineMetric metric(kShards);
  traffic::OpenLoopInjector injector(
      std::make_unique<traffic::TokenBucketArrivals>(
          /*rate=*/2.5, /*burst=*/12, /*burst_round=*/500,
          /*horizon=*/kRounds),
      BuildStrategy("hot_destination", StrategyConfig(1.0, 0.0), map, metric),
      map, /*seed=*/77);
  std::uint64_t fingerprint = 0;
  std::vector<txn::Transaction> batch;
  for (Round round = 0; round < kRounds; ++round) {
    injector.GenerateRound(round, batch);
    for (const txn::Transaction& t : batch) {
      fingerprint = FoldTransaction(fingerprint, t);
    }
  }
  EXPECT_EQ(fingerprint, 0xf53f0fa438421ab2ULL)
      << std::hex << "0x" << fingerprint;
  EXPECT_EQ(injector.offered(), 5007u);
  EXPECT_EQ(injector.injected(), 5007u);
}

}  // namespace
}  // namespace stableshard
