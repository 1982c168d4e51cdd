#include "core/direct.h"

#include <memory>

#include "common/check.h"
#include "core/scheduler_registry.h"

namespace stableshard::core {

DirectScheduler::DirectScheduler(const net::ShardMetric& metric,
                                 CommitLedger& ledger)
    : NetworkedScheduler(metric, ledger),
      protocol_(metric.shard_count(), outbox_, ledger,
                /*on_decided=*/nullptr),
      inject_by_home_(metric.shard_count()) {}

void DirectScheduler::Inject(const txn::Transaction& txn) {
  SSHARD_SERIAL_PHASE(ownership_);
  SSHARD_CHECK(txn.home() < inject_by_home_.size());
  inject_by_home_[txn.home()].push_back(txn.id());
}

void DirectScheduler::BeginRound(Round round) {
  (void)round;
  ownership_.BeginStepPhase();
}

void DirectScheduler::StepShard(ShardId shard, Round round) {
  const OwnershipRegistry::ShardClaim claim(ownership_, shard);
  SSHARD_OWNED(ownership_, shard);  // inbox_ and inject_by_home_ are
                                    // shard-owned
  network_.DeliverTo(shard, round, inbox_[shard]);
  for (auto& envelope : inbox_[shard]) {
    const bool handled =
        protocol_.HandleMessage(shard, envelope.payload, round);
    SSHARD_CHECK(handled && "unexpected message type in Direct");
  }

  // Ship this round's injections straight to the destinations, ordered by
  // injection id (heights use only the txn id, a total order).
  for (const TxnId id : inject_by_home_[shard]) {
    protocol_.Coordinate(shard, id, 0);
    const Height height{0, 0, 0, 0, id};
    const std::size_t subs = ledger_->Body(id).subs().size();
    for (std::uint32_t sub = 0; sub < subs; ++sub) {
      protocol_.SendSubTxn(shard, id, sub, height, 0, /*update=*/false);
    }
  }
  inject_by_home_[shard].clear();

  protocol_.IssueVotesForShard(shard, round);
}

bool DirectScheduler::Idle() const {
  for (const std::vector<TxnId>& queue : inject_by_home_) {
    if (!queue.empty()) return false;
  }
  return !network_.HasPending() && protocol_.Idle();
}

namespace {
const SchedulerRegistrar kDirectRegistrar{
    "direct", [](const SimConfig& config, SchedulerDeps& deps) {
      (void)config;
      return std::unique_ptr<Scheduler>(
          std::make_unique<DirectScheduler>(deps.metric, deps.ledger));
    }};
}  // namespace

}  // namespace stableshard::core
