// Diameter-spanning workload (see strategy.h): every transaction anchors an
// account on each endpoint of a farthest account-owning shard pair,
// reproducing the FDS top-layer degeneration (every transaction's span
// covers the hierarchy's top cluster) as a registered first-class scenario.
#include <algorithm>

#include "adversary/strategy.h"
#include "adversary/strategy_internal.h"
#include "adversary/strategy_registry.h"
#include "common/check.h"
#include "core/config.h"

namespace stableshard::adversary {

DiameterSpanStrategy::DiameterSpanStrategy(const chain::AccountMap& map,
                                           const net::ShardMetric& metric,
                                           RandomStrategyOptions options)
    : map_(&map), metric_(&metric), options_(options) {
  SSHARD_CHECK(map.shard_count() == metric.shard_count());
  // Farthest pair among account-owning shards (an account-free shard cannot
  // anchor an access). One O(populated^2) scan at construction, cut short
  // as soon as a pair realizes the metric diameter — immediately for the
  // closed-form topologies, whose extreme shards come first.
  const std::vector<ShardId> populated = internal::PopulatedShards(map);
  endpoint_a_ = endpoint_b_ = populated.front();
  Distance best = 0;
  const Distance diameter = metric.Diameter();
  for (std::size_t i = 0; i < populated.size() && best < diameter; ++i) {
    for (std::size_t j = i + 1; j < populated.size(); ++j) {
      const Distance d = metric.distance(populated[i], populated[j]);
      if (d > best) {
        best = d;
        endpoint_a_ = populated[i];
        endpoint_b_ = populated[j];
        if (best == diameter) break;
      }
    }
  }
  // Anchoring both endpoints needs candidates two shards wide: k = 1
  // cannot span a diameter (use single_shard for that regime).
  SSHARD_CHECK((options.max_shards_per_txn >= 2 ||
                endpoint_a_ == endpoint_b_) &&
               "diameter_span needs k >= 2");
}

Distance DiameterSpanStrategy::span() const {
  return metric_->distance(endpoint_a_, endpoint_b_);
}

bool DiameterSpanStrategy::Next(Round round, Rng& rng, Candidate* out) {
  (void)round;
  // Alternate the home between the endpoints so both ends inject.
  out->home = flip_ ? endpoint_b_ : endpoint_a_;
  flip_ = !flip_;
  internal::ClearAccesses(out, std::max(options_.max_shards_per_txn, 2u));

  const auto& a_accounts = map_->AccountsOf(endpoint_a_);
  out->accesses.push_back(
      internal::TouchSpec(a_accounts[rng.NextBounded(a_accounts.size())]));
  if (endpoint_b_ != endpoint_a_) {
    // Distinct shards own disjoint accounts, so no dedup needed here.
    const auto& b_accounts = map_->AccountsOf(endpoint_b_);
    out->accesses.push_back(
        internal::TouchSpec(b_accounts[rng.NextBounded(b_accounts.size())]));
  }

  // Pad with uniform-random distinct accounts up to the drawn span (the
  // anchors already realize the diameter; the padding adds conflict mass).
  const std::uint32_t span =
      std::max(internal::PickSpan(options_, rng),
               static_cast<std::uint32_t>(out->accesses.size()));
  for (std::uint32_t attempt = 0;
       attempt < 4 * span && out->accesses.size() < span; ++attempt) {
    internal::AddDistinctTouch(
        out->accesses,
        static_cast<AccountId>(rng.NextBounded(map_->account_count())));
  }
  internal::MaybePoison(out->accesses, options_.abort_probability, rng);
  return true;
}

namespace {
const StrategyRegistrar kDiameterSpanRegistrar{
    "diameter_span", [](const core::SimConfig& config, StrategyDeps& deps) {
      return std::unique_ptr<Strategy>(std::make_unique<DiameterSpanStrategy>(
          deps.accounts, deps.metric,
          internal::OptionsFromConfig(config.k, config.abort_probability)));
    }};
}  // namespace

}  // namespace stableshard::adversary
