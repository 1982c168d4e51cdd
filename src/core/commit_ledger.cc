#include "core/commit_ledger.h"

#include "common/check.h"

namespace stableshard::core {

CommitLedger::CommitLedger(const chain::AccountMap& map,
                           chain::Balance initial_balance)
    : map_(&map),
      initial_balance_(initial_balance),
      last_commit_round_(map.shard_count(), kNoRound),
      journal_(map.shard_count()) {
  stores_.reserve(map.shard_count());
  chains_.reserve(map.shard_count());
  for (ShardId shard = 0; shard < map.shard_count(); ++shard) {
    stores_.emplace_back(initial_balance);
    chains_.emplace_back(shard);
  }
}

void CommitLedger::AttachWal(durability::WalManager* wal) {
  SSHARD_CHECK(wal != nullptr);
  SSHARD_CHECK(wal->shard_count() == stores_.size() &&
               "WAL shard count mismatch");
  SSHARD_CHECK(wal_ == nullptr && "WAL already attached");
  wal_ = wal;
}

void CommitLedger::ResetShardForRecovery(ShardId shard) {
  SSHARD_CHECK(shard < stores_.size());
  SSHARD_CHECK(journal_[shard].empty() &&
               "crash with an undrained journal: crash points are round "
               "boundaries");
  stores_[shard] = chain::AccountStore(initial_balance_);
  chains_[shard] = chain::LocalChain(shard);
  last_commit_round_[shard] = kNoRound;
}

const txn::Transaction& CommitLedger::RegisterInjection(txn::Transaction txn) {
  const TxnId id = txn.id();
  SSHARD_CHECK(id != kInvalidTxn);
  if (window_front_ == window_.size() && id >= window_base_ + window_.size()) {
    // Everything registered so far has retired: restart the window at
    // this id so a first id above 0 leaves no unregistered prefix.
    window_.clear();
    window_front_ = 0;
    window_base_ = id;
  }
  SSHARD_CHECK(id >= window_base_ + window_front_ &&
               "transaction registered twice");
  if (id - window_base_ >= window_.size()) {
    window_.resize(id - window_base_ + 1);
  }
  TxnRecord& record = window_[id - window_base_];
  SSHARD_CHECK(record.state == RecordState::kUnregistered &&
               "transaction registered twice");
  if (!free_slots_.empty()) {
    record.slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    if ((slot_count_ & kChunkMask) == 0) {
      body_chunks_.push_back(
          std::make_unique<txn::Transaction[]>(std::size_t{1} << kChunkBits));
    }
    record.slot = slot_count_++;
  }
  record.remaining = static_cast<std::uint32_t>(txn.subs().size());
  record.state = RecordState::kLive;
  ++registered_;
  txn::Transaction& body = SlotBody(record.slot);
  body = std::move(txn);
  return body;
}

CommitLedger::TxnRecord* CommitLedger::FindRecord(TxnId txn) {
  if (txn < window_base_ + window_front_) return nullptr;
  if (txn - window_base_ >= window_.size()) return nullptr;
  return &window_[txn - window_base_];
}

void CommitLedger::Release(TxnId txn) {
  TxnRecord& record = window_[txn - window_base_];
  SSHARD_DCHECK(record.state == RecordState::kLive);
  // Drop the body's heap state now, so memory tracks live transactions.
  SlotBody(record.slot) = txn::Transaction();
  free_slots_.push_back(record.slot);
  record.state = RecordState::kResolved;
  while (window_front_ < window_.size() &&
         window_[window_front_].state == RecordState::kResolved) {
    ++window_front_;
  }
  if (window_front_ >= 1024 && window_front_ * 2 >= window_.size()) {
    window_.erase(window_.begin(),
                  window_.begin() + static_cast<std::ptrdiff_t>(window_front_));
    window_base_ += window_front_;
    window_front_ = 0;
  }
}

bool CommitLedger::EvaluateSub(const txn::SubTransaction& sub) const {
  SSHARD_DCHECK(sub.destination < stores_.size());
  const chain::AccountStore& store = stores_[sub.destination];
  for (const chain::Condition& condition : sub.conditions) {
    SSHARD_DCHECK(map_->OwnerOf(condition.account) == sub.destination);
    if (!store.Check(condition)) return false;
  }
  for (const chain::Action& action : sub.actions) {
    SSHARD_DCHECK(map_->OwnerOf(action.account) == sub.destination);
    if (!store.IsValid(action)) return false;
  }
  return true;
}

void CommitLedger::ApplyConfirmDeferred(TxnId txn,
                                        const txn::SubTransaction& sub,
                                        bool commit, Round round) {
  // Shard-local half only: store/chain effects for the destination shard
  // plus a journal entry. Runs inside StepShard(sub.destination, round),
  // never inside the sealed window (the journal has a single buffer).
  SSHARD_DCHECK(sealed_parts_ == 0 &&
                "confirm journaled inside a sealed window");
  if (commit) {
    SSHARD_CHECK(last_commit_round_[sub.destination] != round &&
                 "two commits on one shard in one round");
    last_commit_round_[sub.destination] = round;
    SSHARD_CHECK(EvaluateSub(sub) && "commit applied to stale state");
    chain::AccountStore& store = stores_[sub.destination];
    for (const chain::Action& action : sub.actions) {
      store.Apply(action);
    }
    const std::uint64_t digest = sub.Digest();
    chains_[sub.destination].Append(txn, round, digest);
    // WAL staging is shard-owned like the store/chain writes above, so it
    // inherits StepShard's concurrency safety for distinct destinations.
    if (wal_ != nullptr) {
      wal_->StageCommit(sub.destination, txn, round, digest, sub.actions);
    }
  } else if (wal_ != nullptr) {
    wal_->StageAbort(sub.destination, txn, round);
  }
  journal_[sub.destination].push_back(JournalEntry{txn, commit});
}

void CommitLedger::SealJournal(Round round, std::uint32_t parts) {
  journal_cap.Acquire();  // annotation-only, no runtime effect
  SSHARD_CHECK(parts >= 1);
  SSHARD_CHECK(sealed_parts_ == 0 && "journal sealed twice");
  if (wal_ != nullptr) wal_->Seal(round, parts);
  if (completions_.size() < parts) completions_.resize(parts);
  sealed_parts_ = parts;
}

void CommitLedger::ResolveSealedPartition(std::uint32_t part, Round round) {
  (void)round;
  const std::uint32_t parts = sealed_parts_;
  SSHARD_DCHECK(part < parts);
  // Persist this partition's WAL chunk first: the encode overlaps the
  // resolution work on the same pool pass (disjoint data — the WAL
  // partitions by destination-shard range, the resolution by txn residue).
  if (wal_ != nullptr) wal_->PersistSealedPartition(part);
  std::vector<Completion>& out = completions_[part];
  out.clear();
  // Global journal index: destinations in shard order, entries in append
  // order — the same for every partition count.
  std::uint64_t index = 0;
  for (const std::vector<JournalEntry>& entries : journal_) {
    for (const JournalEntry& entry : entries) {
      const std::uint64_t entry_index = index++;
      if (parts > 1 && entry.txn % parts != part) continue;
      // No registration or release may overlap the drain window, so the
      // record window is fixed here, and each record belongs to one
      // partition.
      TxnRecord* record = FindRecord(entry.txn);
      SSHARD_CHECK(record != nullptr &&
                   record->state != RecordState::kUnregistered &&
                   "confirm for unregistered txn");
      SSHARD_CHECK(record->state == RecordState::kLive &&
                   record->remaining > 0 && "confirm after txn resolved");
      if (!entry.commit) record->any_abort = true;
      if (--record->remaining == 0) {
        out.push_back(Completion{entry_index, entry.txn,
                                 Body(entry.txn).injected(),
                                 !record->any_abort});
      }
    }
  }
}

void CommitLedger::FinishSealedRound(Round round) {
  // End the WAL's round first: its staging lanes view the actions of the
  // bodies released below (durability/wal.h).
  if (wal_ != nullptr) wal_->FinishSealedRound();
  // Merge the partitions' completion buffers (each ascending by journal
  // index) back into global journal order: the latency recorder must see
  // the same sequence for every partition count.
  std::vector<std::size_t>& cursor = merge_cursor_;
  cursor.assign(sealed_parts_, 0);
  for (;;) {
    std::uint32_t best = sealed_parts_;
    std::uint64_t best_index = 0;
    for (std::uint32_t part = 0; part < sealed_parts_; ++part) {
      if (cursor[part] >= completions_[part].size()) continue;
      const std::uint64_t index =
          completions_[part][cursor[part]].journal_index;
      if (best == sealed_parts_ || index < best_index) {
        best = part;
        best_index = index;
      }
    }
    if (best == sealed_parts_) break;
    const Completion& completion = completions_[best][cursor[best]++];
    ++resolved_;
    if (completion.committed) {
      ++committed_txns_;
    } else {
      ++aborted_txns_;
    }
    latency_.Record(completion.injected, round, completion.committed);
    Release(completion.txn);
  }
  for (std::vector<JournalEntry>& shard_journal : journal_) {
    shard_journal.clear();
  }
  sealed_parts_ = 0;
  journal_cap.Release();  // annotation-only, no runtime effect
}

bool CommitLedger::IsResolved(TxnId txn) const {
  if (txn < window_base_ + window_front_) return true;  // retired
  if (txn - window_base_ >= window_.size()) return false;
  return window_[txn - window_base_].state == RecordState::kResolved;
}

}  // namespace stableshard::core
