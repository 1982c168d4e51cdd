#include "core/commit_protocol.h"

#include <algorithm>

#include "common/check.h"

namespace stableshard::core {

std::uint64_t& CommitProtocol::VoteSet::Word(std::uint32_t index) {
  if (index < 64) return bits_;
  const std::size_t word = index / 64 - 1;
  if (wide_.size() <= word) wide_.resize(word + 1, 0);
  return wide_[word];
}

void CommitProtocol::VoteSet::Add(std::uint32_t index) {
  std::uint64_t& word = Word(index);
  const std::uint64_t bit = std::uint64_t{1} << (index % 64);
  if ((word & bit) == 0) ++count_;
  word |= bit;
}

void CommitProtocol::VoteSet::Remove(std::uint32_t index) {
  std::uint64_t& word = Word(index);
  const std::uint64_t bit = std::uint64_t{1} << (index % 64);
  if ((word & bit) != 0) --count_;
  word &= ~bit;
}

CommitProtocol::CommitProtocol(ShardId shards,
                               net::OutboxSet<Message>& outbox,
                               CommitLedger& ledger,
                               DecidedCallback on_decided, CommitMode mode)
    : outbox_(&outbox),
      ledger_(&ledger),
      on_decided_(std::move(on_decided)),
      mode_(mode),
      queues_(shards),
      coordinating_(shards) {}

bool CommitProtocol::Idle() const {
  for (const auto& slice : coordinating_) {
    if (!slice.empty()) return false;
  }
  for (const DestinationQueue& queue : queues_) {
    if (!queue.entries.empty()) return false;
  }
  return true;
}

std::uint64_t CommitProtocol::queued_subtxns() const {
  std::uint64_t count = 0;
  for (const DestinationQueue& queue : queues_) count += queue.entries.size();
  return count;
}

std::uint64_t CommitProtocol::pinned_count() const {
  std::uint64_t count = 0;
  for (const DestinationQueue& queue : queues_) {
    if (queue.pinned.has_value()) ++count;
  }
  return count;
}

std::uint64_t CommitProtocol::coordinated_unresolved() const {
  std::uint64_t count = 0;
  for (const auto& slice : coordinating_) count += slice.size();
  return count;
}

std::uint64_t CommitProtocol::retracts_sent() const {
  std::uint64_t count = 0;
  for (const DestinationQueue& queue : queues_) count += queue.retracts;
  return count;
}

void CommitProtocol::Coordinate(ShardId coordinator, TxnId txn,
                                std::uint32_t cluster) {
  PendingCommit pending;
  pending.cluster = cluster;
  coordinating_[coordinator].TryEmplace(txn, std::move(pending));
}

void CommitProtocol::SendSubTxn(ShardId coordinator, TxnId txn,
                                std::uint32_t sub, Height height,
                                std::uint32_t cluster, bool update) {
  if (PendingCommit* pending = coordinating_[coordinator].Find(txn)) {
    pending->current_height = height;
  }
  SubTxnMsg msg;
  msg.txn = txn;
  msg.cluster = cluster;
  msg.coordinator = coordinator;
  msg.height = height;
  msg.sub = sub;
  msg.update = update;
  outbox_->Send(coordinator, ledger_->Sub(txn, sub).destination,
                Message{msg});
}

std::uint32_t CommitProtocol::DestinationIndex(TxnId txn,
                                               ShardId dest) const {
  const std::vector<ShardId>& dests = ledger_->Body(txn).destinations();
  const auto it = std::lower_bound(dests.begin(), dests.end(), dest);
  SSHARD_CHECK(it != dests.end() && *it == dest &&
               "vote from a shard the transaction does not access");
  return static_cast<std::uint32_t>(it - dests.begin());
}

void CommitProtocol::Decide(ShardId coordinator, TxnId txn,
                            PendingCommit& pending, bool commit) {
  const std::uint32_t cluster = pending.cluster;
  for (const txn::SubTransaction& sub : ledger_->Body(txn).subs()) {
    ConfirmMsg confirm;
    confirm.txn = txn;
    confirm.cluster = cluster;
    confirm.commit = commit;
    confirm.height = pending.current_height;
    outbox_->Send(coordinator, sub.destination, Message{confirm});
  }
  coordinating_[coordinator].Erase(txn);
  if (on_decided_) on_decided_(txn, cluster, commit);
}

void CommitProtocol::MaybeRequestRetract(ShardId dest) {
  DestinationQueue& queue = queues_[dest];
  if (!queue.pinned.has_value() || queue.retract_outstanding) return;
  const ScheduleEntry* pinned_entry = queue.entries.Find(*queue.pinned);
  SSHARD_CHECK(pinned_entry != nullptr);
  if (queue.entries.head().height < pinned_entry->height) {
    // A higher-priority subtransaction overtook the pinned one: ask its
    // coordinator for permission to withdraw our vote.
    RetractRequestMsg request;
    request.txn = *queue.pinned;
    request.cluster = pinned_entry->cluster;
    request.dest = dest;
    outbox_->Send(dest, pinned_entry->coordinator, Message{request});
    queue.retract_outstanding = true;
    ++queue.retracts;
  }
}

bool CommitProtocol::HandleMessage(ShardId to, Message& message,
                                   Round round) {
  if (auto* sub_msg = std::get_if<SubTxnMsg>(&message)) {
    DestinationQueue& queue = queues_[to];
    const ScheduleEntry* entry = queue.entries.Find(sub_msg->txn);
    if (sub_msg->update) {
      // FDS reschedule: refresh the height of a still-queued entry. Entries
      // already confirmed (popped) simply ignore the update.
      if (entry != nullptr && entry->height != sub_msg->height) {
        queue.entries.SetHeight(sub_msg->txn, sub_msg->height);
      }
    } else {
      SSHARD_CHECK(entry == nullptr &&
                   "duplicate schedule of a subtransaction");
      ScheduleEntry fresh;
      fresh.height = sub_msg->height;
      fresh.txn = sub_msg->txn;
      fresh.cluster = sub_msg->cluster;
      fresh.coordinator = sub_msg->coordinator;
      fresh.sub = sub_msg->sub;
      queue.entries.Insert(fresh);
    }
    if (mode_ == CommitMode::kPinned) MaybeRequestRetract(to);
    return true;
  }

  if (auto* vote = std::get_if<VoteMsg>(&message)) {
    PendingCommit* pending = coordinating_[to].Find(vote->txn);
    if (pending == nullptr) {
      return true;  // stale vote after decision — ignore
    }
    if (!vote->commit) {
      // Early abort: one abort vote settles the outcome.
      Decide(to, vote->txn, *pending, /*commit=*/false);
      return true;
    }
    pending->votes.Add(DestinationIndex(vote->txn, vote->dest));
    if (pending->votes.size() ==
        ledger_->Body(vote->txn).destinations().size()) {
      Decide(to, vote->txn, *pending, /*commit=*/true);
    }
    return true;
  }

  if (auto* confirm = std::get_if<ConfirmMsg>(&message)) {
    DestinationQueue& queue = queues_[to];
    ScheduleEntry* entry = queue.entries.Find(confirm->txn);
    SSHARD_CHECK(entry != nullptr && "confirm for an unknown queue entry");
    if (mode_ == CommitMode::kPipelined) {
      // Aborts write nothing: their position is irrelevant, pop at once.
      if (!confirm->commit) {
        ledger_->ApplyConfirmDeferred(
            confirm->txn, ledger_->Sub(confirm->txn, entry->sub),
            /*commit=*/false, round);
        queue.entries.Erase(confirm->txn);
        return true;
      }
      // Commits: move the entry to the coordinator's final height so all
      // shards agree on its position, then let ApplyDecidedInOrder pop it
      // in queue order (one commit per shard per round).
      if (entry->height != confirm->height) {
        entry = &queue.entries.SetHeight(confirm->txn, confirm->height);
      }
      entry->decided = true;
      return true;
    }
    if (confirm->commit) {
      // Commit confirms only reach shards that voted and are still pinned
      // (the retract handshake never releases a pin that has a decision in
      // flight), so the vote-time evaluation is still valid.
      SSHARD_CHECK(queue.pinned.has_value() &&
                   *queue.pinned == confirm->txn &&
                   "commit confirm for unpinned entry");
    }
    ledger_->ApplyConfirmDeferred(
        confirm->txn, ledger_->Sub(confirm->txn, entry->sub), confirm->commit,
        round);
    queue.entries.Erase(confirm->txn);
    if (queue.pinned.has_value() && *queue.pinned == confirm->txn) {
      queue.pinned.reset();
      queue.retract_outstanding = false;
    }
    return true;
  }

  if (auto* request = std::get_if<RetractRequestMsg>(&message)) {
    PendingCommit* pending = coordinating_[to].Find(request->txn);
    if (pending == nullptr) {
      return true;  // decision already in flight; the confirm wins
    }
    pending->votes.Remove(DestinationIndex(request->txn, request->dest));
    RetractAckMsg ack;
    ack.txn = request->txn;
    ack.cluster = request->cluster;
    outbox_->Send(to, request->dest, Message{ack});
    return true;
  }

  if (auto* ack = std::get_if<RetractAckMsg>(&message)) {
    DestinationQueue& queue = queues_[to];
    // Only honor the ack if we are still pinned on that transaction (a
    // racing confirm may already have cleared the pin).
    if (queue.pinned.has_value() && *queue.pinned == ack->txn) {
      queue.pinned.reset();
      queue.retract_outstanding = false;
    }
    return true;
  }

  return false;
}

void CommitProtocol::ApplyDecidedInOrder(ShardId dest, Round round) {
  ScheduleQueue& queue = queues_[dest].entries;
  if (queue.empty()) return;
  const ScheduleEntry& head = queue.head();
  // Only commit decisions are recorded: aborts were popped on arrival.
  if (!head.decided) return;
  // Height-stability gate: schedule messages for an epoch always arrive
  // before the epoch's end (t_end), so from round t_end onward no entry
  // with a smaller-or-equal t_end — and hence no smaller height — can still
  // arrive. Applying only after the gate keeps the per-shard apply order
  // identical to the global height order (cross-shard serializability).
  if (round < head.height.t_end) return;
  ledger_->ApplyConfirmDeferred(head.txn, ledger_->Sub(head.txn, head.sub),
                                /*commit=*/true, round);
  queue.PopHead();
}

void CommitProtocol::IssueVotesForShard(ShardId dest, Round round) {
  DestinationQueue& queue = queues_[dest];
  if (mode_ == CommitMode::kPipelined) {
    // Algorithm 2b Step 1: pick one subtransaction per round and vote.
    if (ScheduleEntry* entry = queue.entries.FirstUnvoted()) {
      entry->voted = true;
      VoteMsg vote;
      vote.txn = entry->txn;
      vote.cluster = entry->cluster;
      vote.dest = dest;
      vote.commit =
          ledger_->EvaluateSub(ledger_->Sub(entry->txn, entry->sub));
      outbox_->Send(dest, entry->coordinator, Message{vote});
    }
    ApplyDecidedInOrder(dest, round);
    return;
  }

  if (queue.pinned.has_value() || queue.entries.empty()) return;
  const ScheduleEntry& entry = queue.entries.head();
  VoteMsg vote;
  vote.txn = entry.txn;
  vote.cluster = entry.cluster;
  vote.dest = dest;
  vote.commit = ledger_->EvaluateSub(ledger_->Sub(entry.txn, entry.sub));
  outbox_->Send(dest, entry.coordinator, Message{vote});
  queue.pinned = entry.txn;
}

void CommitProtocol::IssueVotes(Round round) {
  for (ShardId dest = 0; dest < queues_.size(); ++dest) {
    IssueVotesForShard(dest, round);
  }
}

}  // namespace stableshard::core
