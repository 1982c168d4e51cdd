// Differential tests for core::ScheduleQueue, the flat destination queue
// of the commit protocol, and for common::FlatIdMap, its TxnId index.
//
// The queue replaced three node-based containers: a std::map<Height,
// Entry>, the pipelined std::set<Height> of unvoted heights and a
// std::unordered_map<TxnId, Height> index. MapQueue below is that old
// structure, copied into the test with the protocol's old update rules.
// Seeded random sequences drive both through the operations the protocol
// performs (insert, height update, vote, commit decision with its height
// move, abort, head pop, and the pinned mode's pin, retract and unpin),
// comparing after every step the head, the first unvoted entry, the size,
// and lookups by txn: queued ones (all of them every 50th step) and absent
// ones.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/flat_id_map.h"
#include "common/rng.h"
#include "core/schedule_queue.h"

namespace stableshard::core {
namespace {

/// The pre-flat destination queue: map + unvoted set + index, with the
/// update rules CommitProtocol applied to them.
class MapQueue {
 public:
  struct Entry {
    TxnId txn = kInvalidTxn;
    std::uint32_t cluster = 0;
    bool voted = false;
    std::optional<bool> decision;
  };

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  const Height& head_height() const { return entries_.begin()->first; }
  const Entry& head() const { return entries_.begin()->second; }
  std::optional<Height> height_of(TxnId txn) const {
    const auto it = index_.find(txn);
    if (it == index_.end()) return std::nullopt;
    return it->second;
  }
  const Entry& at(const Height& height) const { return entries_.at(height); }
  std::optional<Height> first_unvoted() const {
    if (unvoted_.empty()) return std::nullopt;
    return *unvoted_.begin();
  }

  void Insert(const Height& height, TxnId txn, std::uint32_t cluster) {
    Entry entry;
    entry.txn = txn;
    entry.cluster = cluster;
    entries_.emplace(height, entry);
    index_.emplace(txn, height);
    unvoted_.insert(height);
  }
  // A reschedule's height update.
  void Update(TxnId txn, const Height& height) {
    const auto index_it = index_.find(txn);
    if (index_it == index_.end() || index_it->second == height) return;
    auto node = entries_.extract(index_it->second);
    const bool was_unvoted = unvoted_.erase(index_it->second) > 0;
    node.key() = height;
    entries_.insert(std::move(node));
    if (was_unvoted) unvoted_.insert(height);
    index_it->second = height;
  }
  void VoteFirstUnvoted() {
    const Height height = *unvoted_.begin();
    unvoted_.erase(unvoted_.begin());
    entries_.at(height).voted = true;
  }
  // A pipelined commit confirm: move to the final height, record it.
  void Decide(TxnId txn, const Height& height) {
    const auto index_it = index_.find(txn);
    if (index_it->second != height) {
      auto node = entries_.extract(index_it->second);
      node.key() = height;
      entries_.insert(std::move(node));
      index_it->second = height;
    }
    entries_.at(height).decision = true;
  }
  void Abort(TxnId txn) {
    const auto index_it = index_.find(txn);
    unvoted_.erase(index_it->second);
    entries_.erase(index_it->second);
    index_.erase(index_it);
  }
  void PopHead() {
    const auto head = entries_.begin();
    unvoted_.erase(head->first);
    index_.erase(head->second.txn);
    entries_.erase(head);
  }

  /// Every queued txn, in height order.
  std::vector<TxnId> txns() const {
    std::vector<TxnId> out;
    for (const auto& [height, entry] : entries_) out.push_back(entry.txn);
    return out;
  }

 private:
  std::map<Height, Entry> entries_;
  std::unordered_map<TxnId, Height> index_;
  std::set<Height> unvoted_;
};

class Differential {
 public:
  explicit Differential(std::uint64_t seed) : rng_(seed) {}

  Height RandomHeight(TxnId txn) {
    return Height{rng_.NextBounded(64), static_cast<std::uint32_t>(
                                            rng_.NextBounded(4)),
                  static_cast<std::uint32_t>(rng_.NextBounded(2)),
                  static_cast<Color>(rng_.NextBounded(8)), txn};
  }

  TxnId RandomQueued() {
    const std::vector<TxnId> txns = oracle_.txns();
    return txns[rng_.NextBounded(txns.size())];
  }

  void Insert() {
    const TxnId txn = next_txn_++;
    const Height height = RandomHeight(txn);
    const auto cluster = static_cast<std::uint32_t>(rng_.NextBounded(1000));
    ScheduleEntry entry;
    entry.height = height;
    entry.txn = txn;
    entry.cluster = cluster;
    entry.coordinator = static_cast<ShardId>(txn % 7);
    entry.sub = static_cast<std::uint32_t>(txn % 3);
    ASSERT_EQ(queue_.Find(txn), nullptr);
    queue_.Insert(entry);
    oracle_.Insert(height, txn, cluster);
  }

  void Update() {
    if (oracle_.empty()) return;
    const TxnId txn = RandomQueued();
    const Height height = RandomHeight(txn);
    if (queue_.Find(txn)->height != height) queue_.SetHeight(txn, height);
    oracle_.Update(txn, height);
  }

  void Vote() {
    ScheduleEntry* entry = queue_.FirstUnvoted();
    ASSERT_EQ(entry == nullptr, !oracle_.first_unvoted().has_value());
    if (entry == nullptr) return;
    entry->voted = true;
    oracle_.VoteFirstUnvoted();
  }

  void Decide() {
    // A commit decision reaches only entries that have voted.
    std::vector<TxnId> voted;
    for (const TxnId txn : oracle_.txns()) {
      const MapQueue::Entry& entry = oracle_.at(*oracle_.height_of(txn));
      if (entry.voted && !entry.decision.has_value()) voted.push_back(txn);
    }
    if (voted.empty()) return;
    const TxnId txn = voted[rng_.NextBounded(voted.size())];
    const Height height =
        rng_.NextBounded(2) == 0 ? *oracle_.height_of(txn) : RandomHeight(txn);
    ScheduleEntry* entry = queue_.Find(txn);
    ASSERT_NE(entry, nullptr);
    if (entry->height != height) entry = &queue_.SetHeight(txn, height);
    entry->decided = true;
    oracle_.Decide(txn, height);
  }

  void Abort() {
    if (oracle_.empty()) return;
    const TxnId txn = RandomQueued();
    if (pinned_ == txn) pinned_.reset();
    queue_.Erase(txn);
    oracle_.Abort(txn);
  }

  void PopHead() {
    if (oracle_.empty()) return;
    if (pinned_ == oracle_.head().txn) pinned_.reset();
    queue_.PopHead();
    oracle_.PopHead();
  }

  // Pinned mode: pin the head; retract (unpin) when a smaller height has
  // overtaken the pinned entry; unpin by the pinned entry's confirm.
  void Pin() {
    if (pinned_.has_value() || oracle_.empty()) return;
    ASSERT_EQ(queue_.head().txn, oracle_.head().txn);
    pinned_ = queue_.head().txn;
  }
  void Retract() {
    if (!pinned_.has_value()) return;
    const ScheduleEntry* pinned = queue_.Find(*pinned_);
    ASSERT_NE(pinned, nullptr);
    const bool overtaken = queue_.head().height < pinned->height;
    ASSERT_EQ(overtaken, oracle_.head_height() < *oracle_.height_of(*pinned_));
    if (overtaken) pinned_.reset();
  }
  void UnpinByConfirm() {
    if (!pinned_.has_value()) return;
    const TxnId txn = *pinned_;
    pinned_.reset();
    queue_.Erase(txn);
    oracle_.Abort(txn);
  }

  void Compare() {
    ASSERT_EQ(queue_.size(), oracle_.size());
    ASSERT_EQ(queue_.empty(), oracle_.empty());
    if (!oracle_.empty()) {
      ASSERT_EQ(queue_.head().txn, oracle_.head().txn);
      ASSERT_EQ(queue_.head().height, oracle_.head_height());
    }
    const std::optional<Height> unvoted = oracle_.first_unvoted();
    const ScheduleEntry* first = queue_.FirstUnvoted();
    ASSERT_EQ(first != nullptr, unvoted.has_value());
    if (first != nullptr) {
      ASSERT_EQ(first->height, *unvoted);
      ASSERT_FALSE(first->voted);
    }
    // Every queued txn every 50 steps, eight random ones in between.
    std::vector<TxnId> txns = oracle_.txns();
    if (++compares_ % 50 != 0 && txns.size() > 8) {
      for (std::size_t i = 0; i < 8; ++i) {
        std::swap(txns[i], txns[i + rng_.NextBounded(txns.size() - i)]);
      }
      txns.resize(8);
    }
    for (const TxnId txn : txns) {
      const ScheduleEntry* entry = queue_.Find(txn);
      ASSERT_NE(entry, nullptr) << "txn " << txn;
      const Height height = *oracle_.height_of(txn);
      const MapQueue::Entry& expected = oracle_.at(height);
      ASSERT_EQ(entry->txn, txn);
      ASSERT_EQ(entry->height, height);
      ASSERT_EQ(entry->cluster, expected.cluster);
      ASSERT_EQ(entry->voted, expected.voted);
      ASSERT_EQ(entry->decided, expected.decision.has_value());
      ASSERT_EQ(entry->coordinator, static_cast<ShardId>(txn % 7));
      ASSERT_EQ(entry->sub, static_cast<std::uint32_t>(txn % 3));
    }
    // Absent ids: never queued, and already removed.
    ASSERT_EQ(queue_.Find(next_txn_), nullptr);
    ASSERT_EQ(queue_.Find(next_txn_ + 1000), nullptr);
    if (next_txn_ > 0) {
      const TxnId past = rng_.NextBounded(next_txn_);
      ASSERT_EQ(queue_.Find(past) != nullptr,
                oracle_.height_of(past).has_value());
    }
  }

  const ScheduleQueue& queue() const { return queue_; }
  Rng& rng() { return rng_; }

 private:
  Rng rng_;
  ScheduleQueue queue_;
  MapQueue oracle_;
  std::optional<TxnId> pinned_;
  TxnId next_txn_ = 0;
  std::uint64_t compares_ = 0;
};

/// Runs `steps` random operations, biased toward inserts in the first half
/// of the run and toward removals in the second, so the queue fills to a
/// few hundred entries and drains again.
void RunPipelined(std::uint64_t seed, int steps) {
  Differential diff(seed);
  for (int step = 0; step < steps; ++step) {
    const bool growing = step < steps / 2;
    const std::uint64_t op = diff.rng().NextBounded(16);
    if (op < (growing ? 6u : 2u)) {
      diff.Insert();
    } else if (op < 8) {
      diff.Update();
    } else if (op < 10) {
      diff.Vote();
    } else if (op < 12) {
      diff.Decide();
    } else if (op < 14) {
      diff.Abort();
    } else {
      diff.PopHead();
    }
    if (::testing::Test::HasFatalFailure()) return;
    diff.Compare();
    if (::testing::Test::HasFatalFailure()) {
      ADD_FAILURE() << "seed " << seed << " step " << step;
      return;
    }
  }
}

void RunPinned(std::uint64_t seed, int steps) {
  Differential diff(seed);
  for (int step = 0; step < steps; ++step) {
    const bool growing = step < steps / 2;
    const std::uint64_t op = diff.rng().NextBounded(16);
    if (op < (growing ? 7u : 3u)) {
      diff.Insert();
    } else if (op < 9) {
      diff.Update();
    } else if (op < 11) {
      diff.Pin();
    } else if (op < 13) {
      diff.Retract();
    } else if (op < 14) {
      diff.UnpinByConfirm();
    } else if (op < 15) {
      diff.Abort();
    } else {
      diff.PopHead();
    }
    if (::testing::Test::HasFatalFailure()) return;
    diff.Compare();
    if (::testing::Test::HasFatalFailure()) {
      ADD_FAILURE() << "seed " << seed << " step " << step;
      return;
    }
  }
}

TEST(ScheduleQueueDifferential, PipelinedMatchesMapSetIndex) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    RunPipelined(seed, 3000);
    if (HasFailure()) return;
  }
}

TEST(ScheduleQueueDifferential, PinnedMatchesMapSetIndex) {
  for (std::uint64_t seed = 101; seed <= 120; ++seed) {
    RunPinned(seed, 3000);
    if (HasFailure()) return;
  }
}

TEST(ScheduleQueue, CapacityTracksTheLiveQueue) {
  ScheduleQueue queue;
  for (TxnId txn = 0; txn < 5000; ++txn) {
    ScheduleEntry entry;
    entry.height = Height{0, 0, 0, 0, txn};
    entry.txn = txn;
    queue.Insert(entry);
  }
  EXPECT_GE(queue.array_capacity(), 5000u);
  EXPECT_GE(queue.index_capacity(), 10000u);
  while (queue.size() > 3) queue.PopHead();
  EXPECT_LE(queue.array_capacity(), 16u);
  EXPECT_LE(queue.index_capacity(), 32u);
  EXPECT_EQ(queue.head().txn, 4997u);
}

// Direct's order: every new entry has the largest height so far. One
// 100,000-entry queue is filled this way with a lookup per insert and a
// head pop every other step, then drained, with the pipelined vote cursor
// walking it throughout: every operation stays O(1) amortized (O(log n)
// for the lookup), so the whole run takes milliseconds.
TEST(ScheduleQueue, DeepQueueInDirectOrderStaysCheap) {
  constexpr TxnId kEntries = 100'000;
  const auto start = std::chrono::steady_clock::now();
  ScheduleQueue queue;
  Rng rng(7);
  TxnId popped = 0;
  for (TxnId txn = 0; txn < kEntries; ++txn) {
    ScheduleEntry entry;
    entry.height = Height{0, 0, 0, 0, txn};
    entry.txn = txn;
    queue.Insert(entry);
    const TxnId probe = popped + rng.NextBounded(txn + 1 - popped);
    ASSERT_NE(queue.Find(probe), nullptr);
    if (ScheduleEntry* unvoted = queue.FirstUnvoted()) unvoted->voted = true;
    if (txn % 2 == 1) {
      ASSERT_EQ(queue.head().txn, popped);
      queue.PopHead();
      ++popped;
    }
  }
  ASSERT_EQ(queue.size(), kEntries / 2);
  while (!queue.empty()) {
    ASSERT_EQ(queue.head().txn, popped);
    queue.PopHead();
    ++popped;
  }
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  std::printf("100k-entry Direct-order queue: %.3f s\n", seconds);
#if defined(NDEBUG) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)
  EXPECT_LT(seconds, 1.0);
#endif
}

TEST(FlatIdMap, MatchesUnorderedMap) {
  common::FlatIdMap<std::uint64_t> map;
  std::unordered_map<std::uint64_t, std::uint64_t> oracle;
  Rng rng(3);
  for (int step = 0; step < 200'000; ++step) {
    // Phases of growth and shrinkage, over sequential-ish ids (TxnIds)
    // with some spread so probe runs wrap and collide.
    const bool growing = (step / 20'000) % 2 == 0;
    const std::uint64_t key = rng.NextBounded(4096) * 3;
    const std::uint64_t op = rng.NextBounded(10);
    if (op < (growing ? 6u : 2u)) {
      const auto [value, inserted] = map.TryEmplace(key, step);
      const auto [it, oracle_inserted] = oracle.emplace(key, step);
      ASSERT_EQ(inserted, oracle_inserted);
      ASSERT_EQ(*value, it->second);
    } else {
      ASSERT_EQ(map.Erase(key), oracle.erase(key) == 1);
    }
    ASSERT_EQ(map.size(), oracle.size());
    const std::uint64_t probe = rng.NextBounded(4096) * 3;
    const auto it = oracle.find(probe);
    const std::uint64_t* found = map.Find(probe);
    ASSERT_EQ(found != nullptr, it != oracle.end());
    if (found != nullptr) {
      ASSERT_EQ(*found, it->second);
    }
    // Load stays at most 1/2 (and at least 1/8 above the minimum).
    ASSERT_LE(map.size() * 2, map.capacity());
    if (map.capacity() > common::FlatIdMap<std::uint64_t>::kMinCapacity) {
      ASSERT_GE(map.size() * 8, map.capacity() / 2);
    }
  }
  for (const auto& [key, value] : oracle) {
    ASSERT_NE(map.Find(key), nullptr);
    ASSERT_EQ(*map.Find(key), value);
  }
}

}  // namespace
}  // namespace stableshard::core
