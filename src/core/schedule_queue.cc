#include "core/schedule_queue.h"

#include <algorithm>
#include <iterator>

#include "common/check.h"

namespace stableshard::core {

std::size_t ScheduleQueue::LowerBound(const Height& height) const {
  const auto it = std::lower_bound(
      entries_.begin() + static_cast<std::ptrdiff_t>(head_), entries_.end(),
      height, [](const ScheduleEntry& entry, const Height& key) {
        return entry.height < key;
      });
  return static_cast<std::size_t>(it - entries_.begin());
}

std::size_t ScheduleQueue::PositionOf(TxnId txn, const Height& height) const {
  const std::size_t pos = LowerBound(height);
  SSHARD_DCHECK(pos < entries_.size() && entries_[pos].txn == txn);
  (void)txn;
  return pos;
}

ScheduleEntry* ScheduleQueue::Find(TxnId txn) {
  const Height* height = index_.Find(txn);
  if (height == nullptr) return nullptr;
  return &entries_[PositionOf(txn, *height)];
}

ScheduleEntry* ScheduleQueue::FirstUnvoted() {
  while (unvoted_from_ < entries_.size() && entries_[unvoted_from_].voted) {
    ++unvoted_from_;
  }
  return unvoted_from_ < entries_.size() ? &entries_[unvoted_from_] : nullptr;
}

void ScheduleQueue::Insert(const ScheduleEntry& entry) {
  const std::size_t pos = LowerBound(entry.height);
  SSHARD_DCHECK(pos == entries_.size() ||
                entries_[pos].height != entry.height);
  [[maybe_unused]] const bool inserted =
      index_.TryEmplace(entry.txn, entry.height).second;
  SSHARD_DCHECK(inserted);
  if (entries_.capacity() == 0) entries_.reserve(kMinCapacity);
  entries_.insert(entries_.begin() + static_cast<std::ptrdiff_t>(pos), entry);
  // [pos, end) moved up one: a voted prefix reaching past pos now ends at
  // the new entry if it is unvoted, one further if it has voted.
  if (unvoted_from_ > pos) {
    unvoted_from_ = entry.voted ? unvoted_from_ + 1 : pos;
  }
}

ScheduleEntry& ScheduleQueue::SetHeight(TxnId txn, const Height& height) {
  Height* indexed = index_.Find(txn);
  SSHARD_DCHECK(indexed != nullptr);
  const std::size_t from = PositionOf(txn, *indexed);
  *indexed = height;
  // The entry's new position among the others: entries between the old
  // and new position shift one place toward the old one.
  std::size_t to = LowerBound(height);
  const auto begin = entries_.begin();
  if (to > from) {
    --to;
    std::rotate(begin + static_cast<std::ptrdiff_t>(from),
                begin + static_cast<std::ptrdiff_t>(from + 1),
                begin + static_cast<std::ptrdiff_t>(to + 1));
  } else if (to < from) {
    std::rotate(begin + static_cast<std::ptrdiff_t>(to),
                begin + static_cast<std::ptrdiff_t>(from),
                begin + static_cast<std::ptrdiff_t>(from + 1));
  }
  entries_[to].height = height;
  SSHARD_DCHECK(to + 1 == entries_.size() ||
                entries_[to + 1].height != height);
  // Only [lo, hi] was permuted: a voted prefix that ends inside it now
  // ends at lo at the latest.
  const std::size_t lo = std::min(from, to);
  const std::size_t hi = std::max(from, to);
  if (unvoted_from_ > lo && unvoted_from_ <= hi) unvoted_from_ = lo;
  return entries_[to];
}

void ScheduleQueue::Erase(TxnId txn) {
  const Height* height = index_.Find(txn);
  SSHARD_DCHECK(height != nullptr);
  const std::size_t pos = PositionOf(txn, *height);
  index_.Erase(txn);
  RemoveAt(pos);
}

void ScheduleQueue::PopHead() {
  SSHARD_DCHECK(!empty());
  index_.Erase(entries_[head_].txn);
  RemoveAt(head_);
}

void ScheduleQueue::RemoveAt(std::size_t pos) {
  if (pos == head_) {
    ++head_;
    unvoted_from_ = std::max(unvoted_from_, head_);
  } else {
    entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(pos));
    if (unvoted_from_ > pos) --unvoted_from_;
  }
  Compact();
}

void ScheduleQueue::Compact() {
  const std::size_t live = size();
  if (live == 0) {
    entries_.clear();
    head_ = 0;
    unvoted_from_ = 0;
  } else if (head_ * 2 >= entries_.size()) {
    // The dead prefix is at least the live part: moving the live entries
    // costs no more than the pops that made the prefix.
    entries_.erase(entries_.begin(),
                   entries_.begin() + static_cast<std::ptrdiff_t>(head_));
    unvoted_from_ -= head_;
    head_ = 0;
  }
  if (entries_.capacity() > kMinCapacity && live * 4 <= entries_.capacity()) {
    std::vector<ScheduleEntry> fresh;
    fresh.reserve(std::max(kMinCapacity, live * 2));
    fresh.assign(entries_.begin() + static_cast<std::ptrdiff_t>(head_),
                 entries_.end());
    entries_.swap(fresh);
    unvoted_from_ -= head_;
    head_ = 0;
  }
}

}  // namespace stableshard::core
