// Hotspot: every transaction writes a fixed account plus k-1 random ones;
// the conflict graph is a clique on the hotspot — the worst serialization
// case for any scheduler.
#include "adversary/strategy.h"
#include "adversary/strategy_internal.h"
#include "adversary/strategy_registry.h"
#include "common/check.h"
#include "core/config.h"

namespace stableshard::adversary {

HotspotStrategy::HotspotStrategy(const chain::AccountMap& map,
                                 AccountId hotspot,
                                 RandomStrategyOptions options)
    : map_(&map), hotspot_(hotspot), options_(options) {
  SSHARD_CHECK(hotspot < map.account_count());
}

bool HotspotStrategy::Next(Round round, Rng& rng, Candidate* out) {
  (void)round;
  const std::uint32_t span = internal::PickSpan(options_, rng);
  out->home = static_cast<ShardId>(rng.NextBounded(map_->shard_count()));
  internal::ClearAccesses(out, options_.max_shards_per_txn);
  out->accesses.push_back(internal::TouchSpec(hotspot_));
  if (span > 1) {
    // span-1 extra accounts distinct from the hotspot.
    rng.SampleWithoutReplacement(map_->account_count() - 1, span - 1, picks_);
    for (const auto raw : picks_) {
      const AccountId account = raw >= hotspot_ ? raw + 1 : raw;
      out->accesses.push_back(internal::TouchSpec(account));
    }
  }
  internal::MaybePoison(out->accesses, options_.abort_probability, rng);
  return true;
}

namespace {
const StrategyRegistrar kHotspotRegistrar{
    "hotspot", [](const core::SimConfig& config, StrategyDeps& deps) {
      return std::unique_ptr<Strategy>(std::make_unique<HotspotStrategy>(
          deps.accounts, /*hotspot=*/0,
          internal::OptionsFromConfig(config.k, config.abort_probability)));
    }};
}  // namespace

}  // namespace stableshard::adversary
