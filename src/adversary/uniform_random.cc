// The paper's simulation workload (Section 7): accounts chosen uniformly at
// random (distinct), home shard chosen uniformly at random.
#include "adversary/strategy.h"
#include "adversary/strategy_internal.h"
#include "adversary/strategy_registry.h"
#include "common/check.h"
#include "core/config.h"

namespace stableshard::adversary {

UniformRandomStrategy::UniformRandomStrategy(const chain::AccountMap& map,
                                             RandomStrategyOptions options)
    : map_(&map), options_(options) {
  SSHARD_CHECK(options.max_shards_per_txn >= 1);
  SSHARD_CHECK(options.max_shards_per_txn <= map.account_count());
}

bool UniformRandomStrategy::Next(Round round, Rng& rng, Candidate* out) {
  (void)round;
  const std::uint32_t span = internal::PickSpan(options_, rng);
  rng.SampleWithoutReplacement(map_->account_count(), span, picks_);
  out->home = static_cast<ShardId>(rng.NextBounded(map_->shard_count()));
  internal::ClearAccesses(out, options_.max_shards_per_txn);
  for (const auto account : picks_) {
    out->accesses.push_back(internal::TouchSpec(account));
  }
  internal::MaybePoison(out->accesses, options_.abort_probability, rng);
  return true;
}

namespace {
const StrategyRegistrar kUniformRandomRegistrar{
    "uniform_random", [](const core::SimConfig& config, StrategyDeps& deps) {
      return std::unique_ptr<Strategy>(std::make_unique<UniformRandomStrategy>(
          deps.accounts,
          internal::OptionsFromConfig(config.k, config.abort_probability)));
    }};
}  // namespace

}  // namespace stableshard::adversary
