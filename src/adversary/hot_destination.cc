// Zipfian hot-destination workload (see strategy.h): destinations skew
// toward one shard without the single-account clique of `hotspot`, so the
// system stays parallel while net::ShardTraffic shows one destination
// running hot — the trigger scenario for leader-queue backpressure.
#include <algorithm>
#include <cmath>
#include <vector>

#include "adversary/strategy.h"
#include "adversary/strategy_internal.h"
#include "adversary/strategy_registry.h"
#include "common/check.h"
#include "core/config.h"

namespace stableshard::adversary {

namespace {

/// Zipf(theta) prefix sums over ranks 1..ranks.
std::vector<double> ZipfPrefixSums(std::size_t ranks, double theta) {
  SSHARD_CHECK(theta >= 0.0);
  std::vector<double> sums;
  sums.reserve(ranks);
  double total = 0.0;
  for (std::size_t rank = 1; rank <= ranks; ++rank) {
    total += 1.0 / std::pow(static_cast<double>(rank), theta);
    sums.push_back(total);
  }
  return sums;
}

}  // namespace

// Zipf rank follows shard id among the account-owning shards (an
// account-free shard can never be a destination): the lowest-id populated
// shard is rank 1, the hottest.
HotDestinationStrategy::HotDestinationStrategy(const chain::AccountMap& map,
                                               double theta,
                                               RandomStrategyOptions options)
    : map_(&map),
      options_(options),
      populated_(internal::PopulatedShards(map)),
      zipf_(ZipfPrefixSums(populated_.size(), theta)) {}

ShardId HotDestinationStrategy::PickShard(Rng& rng) const {
  const double u = rng.NextDouble() * zipf_.total();
  return populated_[std::min(zipf_.UpperBound(u), populated_.size() - 1)];
}

bool HotDestinationStrategy::Next(Round round, Rng& rng, Candidate* out) {
  (void)round;
  const std::uint32_t span = internal::PickSpan(options_, rng);
  out->home = PickShard(rng);
  internal::ClearAccesses(out, options_.max_shards_per_txn);
  // Zipf-draw shards, then a uniform account on each; collect distinct
  // accounts with a bounded number of redraws — under heavy skew the hot
  // shard's accounts exhaust quickly and the candidate is simply narrower
  // (still >= 1 access: the first draw always lands).
  for (std::uint32_t attempt = 0;
       attempt < 4 * span && out->accesses.size() < span; ++attempt) {
    const auto& accounts = map_->AccountsOf(PickShard(rng));
    internal::AddDistinctTouch(out->accesses,
                               accounts[rng.NextBounded(accounts.size())]);
  }
  internal::MaybePoison(out->accesses, options_.abort_probability, rng);
  return true;
}

namespace {
const StrategyRegistrar kHotDestinationRegistrar{
    "hot_destination", [](const core::SimConfig& config, StrategyDeps& deps) {
      return std::unique_ptr<Strategy>(
          std::make_unique<HotDestinationStrategy>(
              deps.accounts, config.zipf_theta,
              internal::OptionsFromConfig(config.k,
                                          config.abort_probability)));
    }};
}  // namespace

}  // namespace stableshard::adversary
