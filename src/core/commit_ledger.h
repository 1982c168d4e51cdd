// Commit bookkeeping shared by all schedulers.
//
// The CommitLedger owns the per-shard account stores and local blockchains,
// evaluates subtransaction votes, applies confirmed commits, tracks
// per-transaction resolution (a transaction resolves when its last
// subtransaction commits or aborts everywhere), and enforces the model's
// safety invariants at runtime:
//   * unit shard capacity  — at most one subtransaction commit per shard
//     per round (Section 3: "exactly one subtransaction can be processed in
//     each shard" per round);
//   * vote consistency     — a commit is only applied if the condition and
//     validity checks still hold (the schedulers' pin discipline guarantees
//     they do; a violation aborts the simulation).
//
// Shard-parallel rounds: applying a confirm mixes shard-local effects
// (store writes, chain append) with global bookkeeping (resolution
// records, counters, latency). Schedulers call ApplyConfirmDeferred from
// StepShard — it performs only the shard-local half (safe for concurrent
// calls on distinct destinations) and journals the resolution event in
// the destination's journal. The round epilogue then resolves the journal
// in three steps: SealJournal closes it (no confirm may be journaled until
// FinishSealedRound; Debug builds abort if one is); ResolveSealedPartition
// applies the remaining-count decrements, possibly in parallel across
// partitions; FinishSealedRound folds the counters and latency serially.
// The partitioned stage splits entries by *transaction id* (txn % parts),
// NOT by destination: one transaction's subtransactions resolve on several
// destination shards, so a destination-partitioned drain would race on
// the shared TxnRecord. With id-residue ownership each record is touched
// by exactly one partition, in journal order, and every completion is
// tagged with its global journal index (destinations in shard order,
// entries in append order) so FinishSealedRound can replay the latency
// recorder in the same order for any partition count — float accumulation
// is order-sensitive, and the workers-1-vs-N bit-identity contract covers
// the latency means. A serial run is the one-partition case. The journals
// themselves are only read concurrently.
//
// Transaction bodies. The ledger is the single owner of every injected
// transaction's body: RegisterInjection takes it by value, and schedulers,
// messages and the commit protocol carry the TxnId (plus a sub index)
// and read the body back through Body(). Lifetime contract:
//   * bodies are written only by RegisterInjection, in the serial inject
//     phase, and released only by FinishSealedRound, in the round the
//     transaction's last subtransaction resolves;
//   * StepShard and FlushRoundPartition only read them (concurrently);
//   * a reference returned by RegisterInjection or Body() stays valid
//     until the transaction resolves, and no scheduler may hold one past
//     that: coordinator records are erased at decision, destination
//     entries at apply. Debug builds abort on a read of a released body;
//   * the WAL's staged commit records view their subtransaction's
//     actions, so FinishSealedRound ends the WAL round (dropping the
//     views) before it releases any body.
// Body storage is a free list of stable slots, so its footprint tracks
// the live transactions, not the id span. Per-id bookkeeping is a small
// record in a dense window indexed by TxnId (TxnFactory issues ids
// densely from 0); resolved ids retire from the window's front.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "chain/account_map.h"
#include "chain/account_store.h"
#include "chain/local_chain.h"
#include "common/check.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "durability/wal.h"
#include "stats/latency_recorder.h"
#include "txn/transaction.h"

namespace stableshard::core {

class CommitLedger {
 public:
  /// Annotation-only capability for the sealed-journal window: SealJournal
  /// acquires it, ResolveSealedPartition requires it, FinishSealedRound
  /// releases it, and the serial-phase mutations (RegisterInjection,
  /// ResetShardForRecovery) exclude it — so on clang, mutating the ledger
  /// inside a Seal..Finish window fails compilation (the "no other ledger
  /// mutation may overlap" contract). Public so schedulers' annotations
  /// can name it; no runtime state.
  common::PhaseCapability journal_cap;

  CommitLedger(const chain::AccountMap& map, chain::Balance initial_balance);

  /// Attach a write-ahead log: every ApplyConfirmDeferred stages a
  /// durable record for its destination shard, sealed and persisted
  /// alongside the journal (SealJournal drives wal->Seal,
  /// ResolveSealedPartition the partitioned persist, FinishSealedRound
  /// the durable-sequence advance). The manager must cover the same shard
  /// count and outlive the ledger. Optional — without it the ledger
  /// behaves exactly as before, bit for bit.
  void AttachWal(durability::WalManager* wal);

  /// Register a newly injected transaction and take ownership of its body
  /// (latency clock starts; expected subtransaction count recorded). The
  /// returned reference stays valid until the transaction resolves (see
  /// the lifetime contract above).
  const txn::Transaction& RegisterInjection(txn::Transaction txn)
      SSHARD_EXCLUDES(journal_cap);

  /// The body of a registered, unresolved transaction. Read-only, safe
  /// from any phase; Debug builds abort on an unknown or released id.
  const txn::Transaction& Body(TxnId txn) const {
    const TxnRecord& record = RecordOf(txn);
    SSHARD_DCHECK(record.state == RecordState::kLive &&
                  "read of a released transaction body");
    return SlotBody(record.slot);
  }
  const txn::SubTransaction& Sub(TxnId txn, std::uint32_t index) const {
    return Body(txn).subs()[index];
  }

  /// Vote decision for a subtransaction on its destination shard's current
  /// state: all conditions hold and all actions are valid.
  bool EvaluateSub(const txn::SubTransaction& sub) const;

  /// Apply the coordinator's decision for one subtransaction at `round`,
  /// shard-local half: on commit, re-checks EvaluateSub (scheduler pin bug
  /// otherwise) and the unit shard capacity, applies the actions, appends
  /// a block to the destination's local chain and stages the WAL record;
  /// then journals the resolution event. Safe to call concurrently for
  /// distinct destination shards; the global bookkeeping happens in the
  /// Seal/Resolve/Finish epilogue below. Never inside that window.
  void ApplyConfirmDeferred(TxnId txn, const txn::SubTransaction& sub,
                            bool commit, Round round);

  /// Serial: close the journals for round `round` and set up `parts`
  /// completion buffers for the partitioned resolution. `round` tags the
  /// attached WAL's sealed window (the journal itself never needed it —
  /// the WAL's durable callbacks do).
  void SealJournal(Round round, std::uint32_t parts)
      SSHARD_ACQUIRE(journal_cap);

  /// Parallel-safe: apply the sealed journal entries owned by `part`
  /// (txn % parts == part, walking destinations in shard order) — record
  /// decrements only; completions are buffered with their global journal
  /// index. Each TxnRecord is touched by exactly one partition. No other
  /// ledger mutation (RegisterInjection included) may overlap the
  /// Seal..Finish window. Also persists the partition's WAL chunk.
  void ResolveSealedPartition(std::uint32_t part, Round round)
      SSHARD_REQUIRES(journal_cap);

  /// Serial epilogue: merge the partitions' completion buffers back into
  /// global journal order and apply counters + latency, then clear the
  /// journals and reopen them.
  void FinishSealedRound(Round round) SSHARD_RELEASE(journal_cap);

  bool IsResolved(TxnId txn) const;

  /// Body slots ever allocated (the peak of live transactions) and the
  /// per-id record window's current span.
  std::size_t body_slots() const { return slot_count_; }
  std::size_t record_window() const { return window_.size() - window_front_; }

  /// Transactions injected but not yet fully resolved.
  std::uint64_t pending() const { return registered_ - resolved_; }
  std::uint64_t registered() const { return registered_; }
  std::uint64_t resolved() const { return resolved_; }
  std::uint64_t committed_txns() const { return committed_txns_; }
  std::uint64_t aborted_txns() const { return aborted_txns_; }

  const stats::LatencyRecorder& latency() const { return latency_; }
  const std::vector<chain::LocalChain>& chains() const { return chains_; }
  const chain::AccountStore& store(ShardId shard) const {
    return stores_[shard];
  }
  chain::AccountStore& mutable_store(ShardId shard) { return stores_[shard]; }
  const chain::AccountMap& account_map() const { return *map_; }
  chain::Balance initial_balance() const { return initial_balance_; }

  // Recovery surface (durability/recovery.cc; serial, between rounds).

  /// Unit-capacity marker for `shard` (kNoRound = no commit yet).
  Round last_commit_round(ShardId shard) const {
    return last_commit_round_[shard];
  }
  chain::LocalChain& mutable_chain(ShardId shard) { return chains_[shard]; }
  /// Reinstate the unit-capacity marker while rebuilding a shard.
  void RestoreLastCommitRound(ShardId shard, Round round) {
    last_commit_round_[shard] = round;
  }
  /// Model a shard losing its volatile state: fresh store (initial
  /// balances), empty chain, cleared capacity marker. Resolution records
  /// and counters are global (coordinator-side) state and survive — the
  /// crash model fails a shard's *storage*, not the protocol bookkeeping
  /// the rest of the system already observed.
  void ResetShardForRecovery(ShardId shard) SSHARD_EXCLUDES(journal_cap);

 private:
  enum class RecordState : std::uint8_t { kUnregistered, kLive, kResolved };

  struct TxnRecord {
    std::uint32_t slot = 0;       ///< body slot while kLive
    std::uint32_t remaining = 0;  ///< unresolved subtransactions
    bool any_abort = false;
    RecordState state = RecordState::kUnregistered;
  };

  static constexpr std::uint32_t kChunkBits = 8;
  static constexpr std::uint32_t kChunkMask = (1u << kChunkBits) - 1;

  /// The window record of `txn` (Debug builds abort outside the window).
  const TxnRecord& RecordOf(TxnId txn) const {
    SSHARD_DCHECK(txn >= window_base_ + window_front_ &&
                  txn - window_base_ < window_.size() &&
                  "read of a released transaction body");
    return window_[txn - window_base_];
  }
  const txn::Transaction& SlotBody(std::uint32_t slot) const {
    return body_chunks_[slot >> kChunkBits][slot & kChunkMask];
  }
  txn::Transaction& SlotBody(std::uint32_t slot) {
    return body_chunks_[slot >> kChunkBits][slot & kChunkMask];
  }
  /// Record of `txn` if it is in the window, else nullptr.
  TxnRecord* FindRecord(TxnId txn);
  /// Release a resolved transaction's body slot and retire the resolved
  /// prefix of the record window.
  void Release(TxnId txn);

  struct JournalEntry {
    TxnId txn = kInvalidTxn;
    bool commit = false;
  };

  /// A transaction fully resolved during a sealed-journal drain, tagged
  /// with the global (destination-order) index of its resolving entry so
  /// the serial epilogue can replay completions in exact serial order.
  struct Completion {
    std::uint64_t journal_index = 0;
    TxnId txn = kInvalidTxn;
    Round injected = 0;
    bool committed = false;
  };

  const chain::AccountMap* map_;
  chain::Balance initial_balance_;
  durability::WalManager* wal_ = nullptr;  ///< optional, not owned
  std::vector<chain::AccountStore> stores_;   // one per shard
  std::vector<chain::LocalChain> chains_;     // one per shard
  std::vector<Round> last_commit_round_;      // unit-capacity enforcement
  std::vector<std::vector<JournalEntry>> journal_;  // per destination shard
  /// Per-partition completion buffers and the merge's cursors into them
  /// (drain scratch, reused every round: a serial run pays the epilogue
  /// every round, so it must not allocate).
  std::vector<std::vector<Completion>> completions_;
  std::vector<std::size_t> merge_cursor_;
  /// Partition count of the open Seal..Finish window (0 = not sealed).
  std::uint32_t sealed_parts_ = 0;
  /// Per-id records: window_[id - window_base_]; ids below
  /// window_base_ + window_front_ are retired (resolved). The retired
  /// prefix is compacted away once it is half the vector.
  std::vector<TxnRecord> window_;
  std::size_t window_front_ = 0;
  TxnId window_base_ = 0;
  /// Body slots in fixed chunks (stable addresses), recycled LIFO.
  std::vector<std::unique_ptr<txn::Transaction[]>> body_chunks_;
  std::vector<std::uint32_t> free_slots_;
  std::uint32_t slot_count_ = 0;
  stats::LatencyRecorder latency_;
  std::uint64_t registered_ = 0;
  std::uint64_t resolved_ = 0;
  std::uint64_t committed_txns_ = 0;
  std::uint64_t aborted_txns_ = 0;
};

}  // namespace stableshard::core
