// Open-addressing map keyed by a 64-bit id (a TxnId), for per-shard
// protocol state that is inserted, looked up and erased once per
// transaction: the commit protocol's coordinator records and the schedule
// queue's txn -> height index.
//
// Slots hold the value inline, so an entry costs no heap node; the slot
// array is the only allocation. Linear probing from a Fibonacci hash of the
// key (sequential ids spread over the table), and backward-shift deletion,
// so no tombstones accumulate and a lookup stops at the first empty slot.
// The table doubles above 1/2 load and halves below 1/8 (never under
// kMinCapacity), so its memory tracks the live count, not the run's peak.
//
// There is deliberately no iteration: slot order depends on the capacity
// history, and callers that need an order keep one themselves.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"

namespace stableshard::common {

template <typename Value>
class FlatIdMap {
 public:
  /// Reserved key marking an empty slot (TxnId's kInvalidTxn).
  static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};
  static constexpr std::size_t kMinCapacity = 16;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Slot count (0 until the first insert).
  std::size_t capacity() const { return slots_.size(); }

  /// The value stored under `key`, or nullptr. The pointer stays valid
  /// until the next TryEmplace or Erase.
  Value* Find(std::uint64_t key) {
    if (size_ == 0) return nullptr;
    for (std::size_t i = Home(key);; i = (i + 1) & Mask()) {
      if (slots_[i].key == key) return &slots_[i].value;
      if (slots_[i].key == kEmptyKey) return nullptr;
    }
  }

  /// Stores `value` under `key` unless the key is present. Returns the
  /// stored value and whether this call inserted it.
  std::pair<Value*, bool> TryEmplace(std::uint64_t key, Value value) {
    SSHARD_DCHECK(key != kEmptyKey);
    if ((size_ + 1) * 2 > slots_.size()) {
      Rehash(slots_.empty() ? kMinCapacity : slots_.size() * 2);
    }
    std::size_t i = Home(key);
    for (; slots_[i].key != kEmptyKey; i = (i + 1) & Mask()) {
      if (slots_[i].key == key) return {&slots_[i].value, false};
    }
    slots_[i].key = key;
    slots_[i].value = std::move(value);
    ++size_;
    return {&slots_[i].value, true};
  }

  /// Removes `key`; returns whether it was present.
  bool Erase(std::uint64_t key) {
    if (size_ == 0) return false;
    std::size_t hole = Home(key);
    while (slots_[hole].key != key) {
      if (slots_[hole].key == kEmptyKey) return false;
      hole = (hole + 1) & Mask();
    }
    // Backward shift: pull each later member of the probe run into the
    // hole when the hole lies on its path from its home slot.
    for (std::size_t next = (hole + 1) & Mask();
         slots_[next].key != kEmptyKey; next = (next + 1) & Mask()) {
      const std::size_t home = Home(slots_[next].key);
      if (((hole - home) & Mask()) < ((next - home) & Mask())) {
        slots_[hole] = std::move(slots_[next]);
        hole = next;
      }
    }
    slots_[hole] = Slot{};
    --size_;
    if (slots_.size() > kMinCapacity && size_ * 8 < slots_.size()) {
      Rehash(slots_.size() / 2);
    }
    return true;
  }

 private:
  struct Slot {
    std::uint64_t key = kEmptyKey;
    Value value{};
  };

  std::size_t Mask() const { return slots_.size() - 1; }
  std::size_t Home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  void Rehash(std::size_t capacity) {
    std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(capacity));
    shift_ = 64;
    for (std::size_t c = capacity; c > 1; c >>= 1) --shift_;
    for (Slot& slot : old) {
      if (slot.key == kEmptyKey) continue;
      std::size_t i = Home(slot.key);
      while (slots_[i].key != kEmptyKey) i = (i + 1) & Mask();
      slots_[i] = std::move(slot);
    }
  }

  std::vector<Slot> slots_;  ///< power-of-two length, or empty
  std::size_t size_ = 0;
  unsigned shift_ = 64;      ///< 64 - log2(capacity)
};

}  // namespace stableshard::common
