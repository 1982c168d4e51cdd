// Locality-bounded strategy for the non-uniform model: home shard uniform,
// accessed accounts owned by shards within `radius` of home (the paper's
// d parameter).
#include <algorithm>

#include "adversary/strategy.h"
#include "adversary/strategy_internal.h"
#include "adversary/strategy_registry.h"
#include "common/check.h"
#include "core/config.h"

namespace stableshard::adversary {

LocalStrategy::LocalStrategy(const chain::AccountMap& map,
                             const net::ShardMetric& metric, Distance radius,
                             RandomStrategyOptions options)
    : map_(&map), metric_(&metric), radius_(radius), options_(options) {
  SSHARD_CHECK(map.shard_count() == metric.shard_count());
  reachable_.resize(map.shard_count());
  for (ShardId home = 0; home < map.shard_count(); ++home) {
    for (const ShardId shard : metric.Neighborhood(home, radius)) {
      const auto& accounts = map.AccountsOf(shard);
      reachable_[home].insert(reachable_[home].end(), accounts.begin(),
                              accounts.end());
    }
    if (reachable_[home].empty()) {
      // Degenerate map: fall back to any account so the strategy stays
      // productive (the candidate still has a valid home).
      reachable_[home].push_back(0);
    }
    // Room for the widest pool's sample, so a warm strategy never regrows.
    picks_.reserve(reachable_[home].size());
  }
}

bool LocalStrategy::Next(Round round, Rng& rng, Candidate* out) {
  (void)round;
  out->home = static_cast<ShardId>(rng.NextBounded(map_->shard_count()));
  const auto& pool = reachable_[out->home];
  const std::uint32_t span =
      std::min<std::uint32_t>(internal::PickSpan(options_, rng),
                              static_cast<std::uint32_t>(pool.size()));
  rng.SampleWithoutReplacement(pool.size(), span, picks_);
  internal::ClearAccesses(out, options_.max_shards_per_txn);
  for (const auto index : picks_) {
    out->accesses.push_back(internal::TouchSpec(pool[index]));
  }
  internal::MaybePoison(out->accesses, options_.abort_probability, rng);
  return true;
}

namespace {
const StrategyRegistrar kLocalRegistrar{
    "local", [](const core::SimConfig& config, StrategyDeps& deps) {
      return std::unique_ptr<Strategy>(std::make_unique<LocalStrategy>(
          deps.accounts, deps.metric, config.local_radius,
          internal::OptionsFromConfig(config.k, config.abort_probability)));
    }};
}  // namespace

}  // namespace stableshard::adversary
