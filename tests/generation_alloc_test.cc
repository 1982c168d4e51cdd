// Allocation test for workload generation: once warm, drawing a candidate
// allocates nothing, and neither does an adversary whose candidates are all
// denied. On the paper's s = 64 hot-destination workload most drawn
// candidates are denied, so a per-candidate allocation is paid millions of
// times per run.
//
// Its own binary, because it replaces the global operator new/delete with
// counting versions; no other test should run under them.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "adversary/adversary.h"
#include "adversary/strategy.h"
#include "adversary/strategy_registry.h"
#include "chain/account_map.h"
#include "common/rng.h"
#include "core/config.h"
#include "net/metric.h"
#include "txn/transaction.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* memory = std::malloc(size == 0 ? 1 : size)) return memory;
  throw std::bad_alloc();
}

void operator delete(void* memory) noexcept { std::free(memory); }

void operator delete(void* memory, std::size_t) noexcept {
  std::free(memory);
}

namespace stableshard {
namespace {

std::uint64_t Allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

constexpr ShardId kShards = 64;

chain::AccountMap MakeMap() {
  Rng rng(5);
  return chain::AccountMap::Random(kShards, 256, rng);
}

std::unique_ptr<adversary::Strategy> BuildStrategy(
    const std::string& name, const chain::AccountMap& map,
    const net::ShardMetric& metric) {
  core::SimConfig config;
  config.shards = kShards;
  config.k = 8;
  config.local_radius = 3;
  config.zipf_theta = 1.2;
  config.abort_probability = 0.1;
  Rng deps_rng(config.seed);
  adversary::StrategyDeps deps{map, metric, deps_rng};
  return adversary::StrategyRegistry::Global().Build(name, config, deps);
}

TEST(GenerationAllocations, StrategyNextIntoReusedCandidateAllocatesNothing) {
  const chain::AccountMap map = MakeMap();
  const net::LineMetric metric(kShards);
  for (const std::string& name :
       adversary::StrategyRegistry::Global().Names()) {
    if (name == "trace_replay") continue;  // needs a trace file
    auto strategy = BuildStrategy(name, map, metric);
    Rng rng(17);
    adversary::Candidate candidate;
    ASSERT_TRUE(strategy->Next(0, rng, &candidate)) << name;  // warm-up
    const std::uint64_t before = Allocations();
    for (Round round = 0; round < 1000; ++round) {
      if (!strategy->Next(round, rng, &candidate)) break;
    }
    EXPECT_EQ(Allocations() - before, 0u) << name;
  }
}

// hotspot with b = 1, rho = 0.01 and no burst: after the first admission
// the hotspot shard's bucket needs 100 rounds to refill, so every candidate
// in the next 90 rounds is denied (the pacing budget lets the adversary
// try again long before that).
TEST(GenerationAllocations, AllDeniedAdversaryAllocatesNothing) {
  const chain::AccountMap map = MakeMap();
  const net::LineMetric metric(kShards);
  adversary::AdversaryConfig config;
  config.rho = 0.01;
  config.burstiness = 1;
  config.burst_round = kNoRound;
  config.seed = 3;
  adversary::Adversary adversary(config, map,
                                 BuildStrategy("hotspot", map, metric));
  std::vector<txn::Transaction> batch;
  Round round = 0;
  while (adversary.stats().injected == 0) {
    ASSERT_LT(round, 1000u);
    adversary.GenerateRound(round++, batch);
  }
  const std::uint64_t denied = adversary.stats().denied;
  const std::uint64_t before = Allocations();
  for (const Round end = round + 90; round < end; ++round) {
    adversary.GenerateRound(round, batch);
  }
  EXPECT_EQ(Allocations() - before, 0u);
  EXPECT_EQ(adversary.stats().injected, 1u);
  EXPECT_GT(adversary.stats().denied, denied);
}

}  // namespace
}  // namespace stableshard
