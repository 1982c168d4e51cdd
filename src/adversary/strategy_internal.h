// Shared construction helpers for the concrete strategy translation units
// (uniform_random.cc, hotspot.cc, ...): touch-access specs, abort
// poisoning, span selection, and the account-owning shards. Internal to
// src/adversary — strategies outside the tree get the same behavior by
// composing public APIs.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "adversary/strategy.h"
#include "common/check.h"
#include "common/rng.h"
#include "txn/txn_factory.h"

namespace stableshard::adversary::internal {

/// Unsatisfiable condition marker: no balance reaches this threshold in any
/// workload we generate.
constexpr chain::Balance kImpossibleThreshold =
    std::numeric_limits<chain::Balance>::max() / 2;

inline txn::AccessSpec TouchSpec(AccountId account) {
  txn::AccessSpec spec;
  spec.account = account;
  spec.write = true;
  spec.action = {account, chain::ActionKind::kDeposit, 0};
  return spec;
}

/// Empty a reused candidate's accesses, keeping room for `width` of them:
/// a candidate whose first draw came out narrower never regrows later.
inline void ClearAccesses(Candidate* out, std::size_t width) {
  out->accesses.clear();
  out->accesses.reserve(width);
}

/// Append a touch of `account` unless `accesses` already touches it.
inline void AddDistinctTouch(std::vector<txn::AccessSpec>& accesses,
                             AccountId account) {
  for (const txn::AccessSpec& spec : accesses) {
    if (spec.account == account) return;
  }
  accesses.push_back(TouchSpec(account));
}

inline void MaybePoison(std::vector<txn::AccessSpec>& accesses,
                        double probability, Rng& rng) {
  if (probability <= 0.0 || accesses.empty()) return;
  if (!rng.NextBool(probability)) return;
  txn::AccessSpec& spec = accesses.front();
  spec.has_condition = true;
  spec.condition = {spec.account, chain::CmpOp::kGe, kImpossibleThreshold};
}

inline std::uint32_t PickSpan(const RandomStrategyOptions& options, Rng& rng) {
  if (options.exact_k || options.max_shards_per_txn <= 1) {
    return options.max_shards_per_txn;
  }
  return static_cast<std::uint32_t>(
      1 + rng.NextBounded(options.max_shards_per_txn));
}

/// Shards owning at least one account, ascending: an account-free shard can
/// anchor no access. Aborts if no shard owns an account.
inline std::vector<ShardId> PopulatedShards(const chain::AccountMap& map) {
  std::vector<ShardId> populated;
  for (ShardId shard = 0; shard < map.shard_count(); ++shard) {
    if (!map.AccountsOf(shard).empty()) populated.push_back(shard);
  }
  SSHARD_CHECK(!populated.empty());
  return populated;
}

/// Options every registered builder derives from the validated SimConfig
/// fields (k, abort_probability) the same way; kept here so the per-strategy
/// translation units cannot drift apart.
inline RandomStrategyOptions OptionsFromConfig(std::uint32_t k,
                                               double abort_probability) {
  RandomStrategyOptions options;
  options.max_shards_per_txn = k;
  options.abort_probability = abort_probability;
  return options;
}

}  // namespace stableshard::adversary::internal
