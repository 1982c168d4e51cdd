#include "txn/txn_factory.h"

#include <algorithm>

#include "common/check.h"

namespace stableshard::txn {

Transaction TxnFactory::Make(ShardId home, Round injected,
                             const std::vector<AccessSpec>& accesses) {
  SSHARD_CHECK(home < accounts_->shard_count());
  SSHARD_CHECK(!accesses.empty());
  // Group accesses by owner shard: subs ascending by destination, accesses
  // in input order within a sub. The (owner, position) keys are distinct,
  // so sorting them is the stable grouping.
  by_owner_.clear();
  for (std::size_t i = 0; i < accesses.size(); ++i) {
    by_owner_.emplace_back(accounts_->OwnerOf(accesses[i].account), i);
  }
  std::sort(by_owner_.begin(), by_owner_.end());
  std::size_t owners = 1;
  for (std::size_t i = 1; i < by_owner_.size(); ++i) {
    owners += by_owner_[i].first != by_owner_[i - 1].first;
  }
  std::vector<SubTransaction> subs;
  subs.reserve(owners);
  for (const auto& [owner, index] : by_owner_) {
    if (subs.empty() || subs.back().destination != owner) {
      subs.emplace_back().destination = owner;
    }
    SubTransaction& sub = subs.back();
    const AccessSpec& spec = accesses[index];
    if (spec.has_condition) {
      sub.conditions.push_back(spec.condition);
    }
    if (spec.action.kind != chain::ActionKind::kNone || !spec.has_condition) {
      chain::Action action = spec.action;
      action.account = spec.account;
      sub.actions.push_back(action);
    }
  }
  return Transaction(next_id_++, home, injected, std::move(subs));
}

Transaction TxnFactory::MakeTouch(ShardId home, Round injected,
                                  const std::vector<AccountId>& accounts) {
  std::vector<AccessSpec> accesses;
  accesses.reserve(accounts.size());
  for (const AccountId account : accounts) {
    AccessSpec spec;
    spec.account = account;
    spec.write = true;
    spec.action = {account, chain::ActionKind::kDeposit, 0};
    accesses.push_back(spec);
  }
  return Make(home, injected, accesses);
}

Transaction TxnFactory::MakeTransfer(ShardId home, Round injected,
                                     AccountId from, AccountId to,
                                     chain::Balance amount,
                                     chain::Balance min_balance) {
  std::vector<AccessSpec> accesses;
  {
    AccessSpec spec;
    spec.account = from;
    spec.write = true;
    spec.has_condition = true;
    spec.condition = {from, chain::CmpOp::kGe, min_balance};
    spec.action = {from, chain::ActionKind::kWithdraw, amount};
    accesses.push_back(spec);
  }
  {
    AccessSpec spec;
    spec.account = to;
    spec.write = true;
    spec.action = {to, chain::ActionKind::kDeposit, amount};
    accesses.push_back(spec);
  }
  return Make(home, injected, accesses);
}

}  // namespace stableshard::txn
