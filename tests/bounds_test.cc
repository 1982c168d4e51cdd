// Parameterized checks of the paper's analytical bounds on live runs:
// Lemma 1 (BDS epoch length <= 18 b min{k, ceil(sqrt(s))}) and Theorem 2
// (queue <= 4bs, latency <= 36 b min{k, ceil(sqrt(s))}) at admissible
// rates across (s, k, b) combinations, short runs and 12,000-round ones.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "common/math_util.h"
#include "core/bds.h"
#include "sim_test_util.h"

namespace stableshard {
namespace {

using core::SimConfig;
using core::Simulation;

struct BoundsCase {
  ShardId shards;
  std::uint32_t k;
  double burstiness;
  double rate_fraction;  ///< fraction of the Lemma-1 admissible bound
  std::uint64_t seed;
  Round rounds = 4000;
};

class Theorem2Bounds : public ::testing::TestWithParam<BoundsCase> {};

TEST_P(Theorem2Bounds, QueueAndLatencyWithinPaperBounds) {
  const BoundsCase param = GetParam();
  SimConfig config;
  config.scheduler = "bds";
  config.topology = net::TopologyKind::kUniform;
  config.shards = param.shards;
  config.accounts = param.shards;  // one account per shard (paper setup)
  config.account_assignment = core::AccountAssignment::kRoundRobin;
  config.k = param.k;
  config.burstiness = param.burstiness;
  config.rho =
      param.rate_fraction * BdsStableRateBound(param.k, param.shards);
  config.rounds = param.rounds;
  config.drain_cap = 50000;
  config.seed = param.seed;

  Simulation sim(config);
  auto& scheduler = dynamic_cast<core::BdsScheduler&>(sim.scheduler());
  const auto result = sim.Run();

  const double tau =
      18.0 * config.burstiness * MinKSqrtS(param.k, param.shards);
  EXPECT_LE(scheduler.max_epoch_length(), tau) << "Lemma 1 epoch bound";
  EXPECT_LE(result.max_pending, 4.0 * config.burstiness * param.shards)
      << "Theorem 2 queue bound";
  EXPECT_LE(result.max_latency, 2.0 * tau) << "Theorem 2 latency bound";
  EXPECT_TRUE(result.drained);
  EXPECT_EQ(result.unresolved, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Theorem2Bounds,
    ::testing::Values(BoundsCase{16, 4, 5, 1.0, 1},
                      BoundsCase{16, 4, 20, 1.0, 2},
                      BoundsCase{16, 8, 10, 1.0, 3},
                      BoundsCase{64, 8, 10, 1.0, 4},
                      BoundsCase{64, 2, 10, 1.0, 5},
                      BoundsCase{36, 6, 15, 0.5, 6},
                      BoundsCase{4, 2, 8, 1.0, 7},
                      BoundsCase{16, 4, 10, 1.0, 42, 12000},
                      BoundsCase{16, 4, 50, 1.0, 42, 12000},
                      BoundsCase{16, 8, 20, 1.0, 42, 12000},
                      BoundsCase{64, 8, 10, 1.0, 42, 12000},
                      BoundsCase{64, 8, 100, 1.0, 42, 12000},
                      BoundsCase{64, 2, 20, 1.0, 42, 12000},
                      BoundsCase{36, 6, 30, 1.0, 42, 12000},
                      BoundsCase{100, 10, 10, 1.0, 42, 12000}),
    [](const ::testing::TestParamInfo<BoundsCase>& info) {
      // Built by append: gcc 12's -O3 -Wrestrict misfires on chained
      // `const char* + std::string&&` concatenation (GCC PR105329).
      const auto& p = info.param;
      std::string name = "s";
      name += std::to_string(p.shards);
      name += "_k";
      name += std::to_string(p.k);
      name += "_b";
      name += std::to_string(static_cast<int>(p.burstiness));
      name += "_seed";
      name += std::to_string(p.seed);
      return name;
    });

TEST(Bounds, HigherBurstinessRaisesQueuesNotInstability) {
  // Queues scale with b but remain bounded by 4bs; the system still drains.
  double previous_peak = 0;
  for (const double b : {5.0, 20.0, 60.0}) {
    SimConfig config;
    config.scheduler = "bds";
    config.shards = 16;
    config.accounts = 16;
    config.k = 4;
    config.burstiness = b;
    config.rho = BdsStableRateBound(4, 16);
    config.rounds = 3000;
    config.drain_cap = 50000;
    Simulation sim(config);
    const auto result = sim.Run();
    EXPECT_TRUE(result.drained);
    EXPECT_LE(result.max_pending, 4.0 * b * 16);
    EXPECT_GE(static_cast<double>(result.max_pending), previous_peak);
    previous_peak = static_cast<double>(result.max_pending);
  }
}

}  // namespace
}  // namespace stableshard
