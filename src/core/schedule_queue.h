// One destination shard's schedule queue (schqd, Algorithm 2b): the
// subtransactions scheduled on the shard, in ascending Height order.
//
// Layout. One contiguous array of entries sorted by height, with a head
// offset: live entries are [head_, entries_.size()). Beside it, a FlatIdMap
// index from TxnId to the entry's current height. A lookup by txn reads
// the height from the index and binary-searches the array for it. Heights
// are a total order (the txn id is the last key), so the array order is
// exactly the order a std::map<Height, Entry> would iterate in.
//
// Costs, with n live entries:
//   - lookup by txn: O(1) expected + O(log n);
//   - head pop: O(1) amortized (the head offset advances; the dead prefix
//     is compacted away once it is at least half the array);
//   - append of a new largest height (Direct's order): O(1) amortized;
//   - insert, erase or height change in the middle: O(distance moved);
//   - first unvoted entry: O(1) amortized. unvoted_from_ marks a position
//     before which every entry has voted; the scan past voted entries
//     after a mutation is bounded by the entries that mutation moved.
// Array and index capacity track the live queue: each shrinks once its
// live share falls to 1/4 (array) or 1/8 (index).
//
// A queue belongs to its destination shard; nothing here is shared.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/flat_id_map.h"
#include "common/types.h"
#include "core/height.h"

namespace stableshard::core {

struct ScheduleEntry {
  Height height;
  TxnId txn = kInvalidTxn;
  std::uint32_t cluster = 0;
  ShardId coordinator = kInvalidShard;
  std::uint32_t sub = 0;  ///< index into the body's subs()
  bool voted = false;     ///< pipelined mode: this shard has voted
  bool decided = false;   ///< pipelined mode: commit confirm received
};

class ScheduleQueue {
 public:
  bool empty() const { return head_ == entries_.size(); }
  std::size_t size() const { return entries_.size() - head_; }

  /// The smallest-height entry. Requires !empty().
  ScheduleEntry& head() { return entries_[head_]; }

  /// The entry of `txn`, or nullptr. Pointers stay valid until the next
  /// Insert, SetHeight, Erase or PopHead.
  ScheduleEntry* Find(TxnId txn);

  /// The smallest-height entry with voted == false, or nullptr.
  ScheduleEntry* FirstUnvoted();

  /// Queue `entry` at its height. Its txn must not be queued, and no
  /// queued entry may have the same height.
  void Insert(const ScheduleEntry& entry);

  /// Move the queued entry of `txn` to `height`, keeping its flags.
  /// Returns the entry at its new position.
  ScheduleEntry& SetHeight(TxnId txn, const Height& height);

  /// Remove the queued entry of `txn`, wherever it is.
  void Erase(TxnId txn);

  /// Remove head(). Requires !empty().
  void PopHead();

  /// Capacity in entries of the array and in slots of the index (tests).
  std::size_t array_capacity() const { return entries_.capacity(); }
  std::size_t index_capacity() const { return index_.capacity(); }

 private:
  static constexpr std::size_t kMinCapacity = 16;

  /// Position of the first live entry with height >= `height`.
  std::size_t LowerBound(const Height& height) const;
  /// Position of the live entry of `txn`, queued at `height`.
  std::size_t PositionOf(TxnId txn, const Height& height) const;
  /// Remove the entry at `pos` from the array (the index is the caller's).
  void RemoveAt(std::size_t pos);
  /// Drop the dead prefix once it dominates, and shrink the array once
  /// the live entries use a quarter of it.
  void Compact();

  std::vector<ScheduleEntry> entries_;
  std::size_t head_ = 0;
  /// Every entry in [head_, unvoted_from_) has voted.
  std::size_t unvoted_from_ = 0;
  common::FlatIdMap<Height> index_;  ///< txn -> current height
};

}  // namespace stableshard::core
