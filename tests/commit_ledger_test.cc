// Unit tests for the CommitLedger: vote evaluation, commit application,
// resolution tracking, latency accounting and the runtime safety invariants
// (unit shard capacity, stale-state commits).
#include <gtest/gtest.h>

#include "chain/account_map.h"
#include "core/commit_ledger.h"
#include "txn/txn_factory.h"

namespace stableshard::core {
namespace {

/// The round epilogue at one partition, as a serial run drives it.
void FinishRoundSerially(CommitLedger& ledger, Round round) {
  ledger.SealJournal(round, /*parts=*/1);
  ledger.ResolveSealedPartition(0, round);
  ledger.FinishSealedRound(round);
}

class CommitLedgerTest : public ::testing::Test {
 protected:
  CommitLedgerTest()
      : map_(chain::AccountMap::RoundRobin(4, 4)),
        ledger_(map_, /*initial_balance=*/1000),
        factory_(map_) {}

  /// One confirm applied and resolved in its own round; returns whether
  /// the whole transaction is resolved afterwards.
  bool Confirm(const txn::Transaction& txn, const txn::SubTransaction& sub,
               bool commit, Round round) {
    ledger_.ApplyConfirmDeferred(txn.id(), sub, commit, round);
    FinishRoundSerially(ledger_, round);
    return ledger_.IsResolved(txn.id());
  }

  chain::AccountMap map_;
  CommitLedger ledger_;
  txn::TxnFactory factory_;
};

TEST_F(CommitLedgerTest, EvaluateChecksConditionsAndValidity) {
  const auto good = factory_.MakeTransfer(0, 0, /*from=*/0, /*to=*/1,
                                          /*amount=*/100, /*min=*/500);
  for (const auto& sub : good.subs()) {
    EXPECT_TRUE(ledger_.EvaluateSub(sub));
  }
  const auto poor = factory_.MakeTransfer(0, 0, 0, 1, /*amount=*/100,
                                          /*min=*/5000);  // condition fails
  bool any_false = false;
  for (const auto& sub : poor.subs()) {
    if (!ledger_.EvaluateSub(sub)) any_false = true;
  }
  EXPECT_TRUE(any_false);
  const auto broke = factory_.MakeTransfer(0, 0, 0, 1, /*amount=*/5000,
                                           /*min=*/500);  // invalid action
  any_false = false;
  for (const auto& sub : broke.subs()) {
    if (!ledger_.EvaluateSub(sub)) any_false = true;
  }
  EXPECT_TRUE(any_false);
}

TEST_F(CommitLedgerTest, CommitAppliesActionsAndAppendsBlocks) {
  const auto txn = factory_.MakeTransfer(0, 0, 0, 1, 100, 500);
  ledger_.RegisterInjection(txn);
  Round round = 5;
  bool resolved = false;
  for (const auto& sub : txn.subs()) {
    resolved = Confirm(txn, sub, /*commit=*/true, round);
    ++round;  // different shards, different rounds allowed (kOrdered)
  }
  EXPECT_TRUE(resolved);
  EXPECT_TRUE(ledger_.IsResolved(txn.id()));
  EXPECT_EQ(ledger_.committed_txns(), 1u);
  EXPECT_EQ(ledger_.store(map_.OwnerOf(0)).BalanceOf(0), 900);
  EXPECT_EQ(ledger_.store(map_.OwnerOf(1)).BalanceOf(1), 1100);
  std::size_t blocks = 0;
  for (const auto& chain : ledger_.chains()) blocks += chain.size();
  EXPECT_EQ(blocks, 2u);
}

TEST_F(CommitLedgerTest, AbortLeavesStateUntouched) {
  const auto txn = factory_.MakeTransfer(0, 0, 0, 1, 100, 500);
  ledger_.RegisterInjection(txn);
  for (const auto& sub : txn.subs()) {
    ledger_.ApplyConfirmDeferred(txn.id(), sub, /*commit=*/false, 3);
  }
  FinishRoundSerially(ledger_, 3);
  EXPECT_EQ(ledger_.aborted_txns(), 1u);
  EXPECT_EQ(ledger_.store(map_.OwnerOf(0)).BalanceOf(0), 1000);
  for (const auto& chain : ledger_.chains()) EXPECT_TRUE(chain.empty());
}

TEST_F(CommitLedgerTest, PendingCountsUnresolved) {
  const auto t0 = factory_.MakeTouch(0, 0, {0});
  const auto t1 = factory_.MakeTouch(0, 0, {1});
  ledger_.RegisterInjection(t0);
  ledger_.RegisterInjection(t1);
  EXPECT_EQ(ledger_.pending(), 2u);
  Confirm(t0, t0.subs()[0], true, 1);
  EXPECT_EQ(ledger_.pending(), 1u);
}

TEST_F(CommitLedgerTest, LatencyRecordedAtLastSub) {
  const auto txn = factory_.MakeTouch(0, /*injected=*/10, {0, 1});
  ledger_.RegisterInjection(txn);
  Confirm(txn, txn.subs()[0], true, 20);
  EXPECT_EQ(ledger_.latency().resolved(), 0u);
  Confirm(txn, txn.subs()[1], true, 31);
  EXPECT_EQ(ledger_.latency().resolved(), 1u);
  EXPECT_DOUBLE_EQ(ledger_.latency().average_latency(), 21.0);
}

TEST_F(CommitLedgerTest, PartitionedJournalMatchesOnePartition) {
  // Two identical deferred-confirm rounds: one resolved in one partition,
  // the other in 3 partitions applied out of order. Every counter and the
  // (order-sensitive) latency mean must agree bit-for-bit.
  CommitLedger single(map_, 1000);
  CommitLedger split(map_, 1000);

  const auto a = factory_.MakeTouch(0, /*injected=*/0, {0, 1, 2});
  const auto b = factory_.MakeTouch(1, /*injected=*/1, {3});
  const auto c = factory_.MakeTouch(2, /*injected=*/1, {1, 3});
  for (CommitLedger* ledger : {&single, &split}) {
    for (const auto* txn : {&a, &b, &c}) {
      ledger->RegisterInjection(*txn);
    }
    // Round 4: a fully commits, b aborts, c resolves only its shard-3 sub
    // (with an abort vote) — c stays pending into the next round.
    for (const auto& sub : a.subs()) {
      ledger->ApplyConfirmDeferred(a.id(), sub, /*commit=*/true, 4);
    }
    ledger->ApplyConfirmDeferred(b.id(), b.subs()[0], /*commit=*/false, 4);
    ledger->ApplyConfirmDeferred(c.id(), c.subs()[1], /*commit=*/false, 4);
  }

  FinishRoundSerially(single, 4);
  split.SealJournal(/*round=*/4, /*parts=*/3);
  split.ResolveSealedPartition(2, 4);
  split.ResolveSealedPartition(0, 4);
  split.ResolveSealedPartition(1, 4);
  split.FinishSealedRound(4);

  // Round 5: c's remaining sub arrives and completes the abort.
  for (CommitLedger* ledger : {&single, &split}) {
    ledger->ApplyConfirmDeferred(c.id(), c.subs()[0], /*commit=*/false, 5);
  }
  FinishRoundSerially(single, 5);
  split.SealJournal(/*round=*/5, /*parts=*/2);
  split.ResolveSealedPartition(1, 5);
  split.ResolveSealedPartition(0, 5);
  split.FinishSealedRound(5);

  EXPECT_EQ(single.resolved(), split.resolved());
  EXPECT_EQ(single.committed_txns(), split.committed_txns());
  EXPECT_EQ(single.aborted_txns(), split.aborted_txns());
  EXPECT_EQ(single.pending(), split.pending());
  EXPECT_EQ(single.committed_txns(), 1u);
  EXPECT_EQ(single.aborted_txns(), 2u);
  EXPECT_TRUE(split.IsResolved(a.id()));
  EXPECT_TRUE(split.IsResolved(b.id()));
  EXPECT_TRUE(split.IsResolved(c.id()));
  EXPECT_DOUBLE_EQ(single.latency().average_latency(),
                   split.latency().average_latency());
  EXPECT_DOUBLE_EQ(single.latency().max_latency(),
                   split.latency().max_latency());
}

TEST_F(CommitLedgerTest, SealedJournalSupportsMorePartitionsThanEntries) {
  const auto txn = factory_.MakeTouch(0, 0, {0});
  ledger_.RegisterInjection(txn);
  ledger_.ApplyConfirmDeferred(txn.id(), txn.subs()[0], /*commit=*/true, 1);
  ledger_.SealJournal(/*round=*/1, /*parts=*/8);
  for (std::uint32_t part = 0; part < 8; ++part) {
    ledger_.ResolveSealedPartition(part, 1);
  }
  ledger_.FinishSealedRound(1);
  EXPECT_TRUE(ledger_.IsResolved(txn.id()));
  EXPECT_EQ(ledger_.committed_txns(), 1u);
}

TEST_F(CommitLedgerTest, MixedDecisionCountsAsAborted) {
  const auto txn = factory_.MakeTouch(0, 0, {0, 1});
  ledger_.RegisterInjection(txn);
  Confirm(txn, txn.subs()[0], false, 1);
  Confirm(txn, txn.subs()[1], false, 2);
  EXPECT_EQ(ledger_.aborted_txns(), 1u);
  EXPECT_EQ(ledger_.committed_txns(), 0u);
}

TEST_F(CommitLedgerTest, OwnsBodiesUntilResolution) {
  const auto txn = factory_.MakeTouch(0, /*injected=*/4, {0, 1});
  const txn::Transaction& body = ledger_.RegisterInjection(txn);
  EXPECT_EQ(&ledger_.Body(txn.id()), &body);
  EXPECT_EQ(body.id(), txn.id());
  EXPECT_EQ(body.injected(), 4u);
  EXPECT_EQ(ledger_.Sub(txn.id(), 1).destination, txn.subs()[1].destination);
  Confirm(txn, txn.subs()[0], true, 5);
  EXPECT_EQ(&ledger_.Body(txn.id()), &body);  // one sub still unresolved
  Confirm(txn, txn.subs()[1], true, 6);
  EXPECT_TRUE(ledger_.IsResolved(txn.id()));
  EXPECT_EQ(ledger_.record_window(), 0u);
}

// One long-lived transaction pins the front of the record window while
// thousands of later ones resolve behind it: the records (small) span the
// ids, but the body slots are recycled and stay at the live count.
TEST_F(CommitLedgerTest, BodySlotsTrackLiveTransactionsNotTheIdSpan) {
  const auto pinned = factory_.MakeTouch(0, 0, {0});
  ledger_.RegisterInjection(pinned);
  Round round = 1;
  for (int i = 0; i < 3000; ++i) {
    const auto txn = factory_.MakeTouch(1, round, {1});
    ledger_.RegisterInjection(txn);
    Confirm(txn, txn.subs()[0], true, round++);
  }
  EXPECT_EQ(ledger_.body_slots(), 2u);
  EXPECT_EQ(ledger_.record_window(), 3001u);
  EXPECT_FALSE(ledger_.IsResolved(pinned.id()));
  Confirm(pinned, pinned.subs()[0], true, round);
  EXPECT_EQ(ledger_.record_window(), 0u);
  EXPECT_EQ(ledger_.committed_txns(), 3001u);
  EXPECT_EQ(ledger_.pending(), 0u);
}

using CommitLedgerDeathTest = CommitLedgerTest;

TEST_F(CommitLedgerDeathTest, ReadingAReleasedBodyAborts) {
#ifdef NDEBUG
  GTEST_SKIP() << "the released-body check compiles out under NDEBUG";
#else
  const auto txn = factory_.MakeTouch(0, 0, {0});
  ledger_.RegisterInjection(txn);
  Confirm(txn, txn.subs()[0], true, 1);  // resolves and releases the body
  EXPECT_DEATH((void)ledger_.Body(txn.id()), "released transaction body");
#endif
}

TEST_F(CommitLedgerDeathTest, DoubleRegisterAborts) {
  const auto txn = factory_.MakeTouch(0, 0, {0});
  ledger_.RegisterInjection(txn);
  EXPECT_DEATH(ledger_.RegisterInjection(txn), "twice");
}

TEST_F(CommitLedgerDeathTest, UnitShardCapacityEnforced) {
  const auto t0 = factory_.MakeTouch(0, 0, {0});
  const auto t1 = factory_.MakeTouch(0, 0, {0});
  ledger_.RegisterInjection(t0);
  ledger_.RegisterInjection(t1);
  Confirm(t0, t0.subs()[0], true, /*round=*/7);
  // Second commit on the same shard in the same round must abort.
  EXPECT_DEATH(Confirm(t1, t1.subs()[0], true, 7), "two commits");
}

TEST_F(CommitLedgerDeathTest, StaleCommitDetected) {
  // t0 drains the balance; committing t1 (whose withdraw was valid at vote
  // time but no longer is) must trip the stale-state check.
  const auto t0 = factory_.MakeTransfer(0, 0, 0, 1, 1000, 0);
  const auto t1 = factory_.MakeTransfer(0, 0, 0, 1, 1000, 0);
  ledger_.RegisterInjection(t0);
  ledger_.RegisterInjection(t1);
  for (const auto& sub : t0.subs()) {
    ledger_.ApplyConfirmDeferred(t0.id(), sub, true, 1);
  }
  FinishRoundSerially(ledger_, 1);
  for (const auto& sub : t1.subs()) {
    if (sub.destination == map_.OwnerOf(0)) {
      EXPECT_DEATH(Confirm(t1, sub, true, 2), "stale");
    }
  }
}

TEST_F(CommitLedgerDeathTest, ConfirmForUnknownTxnAborts) {
  const auto txn = factory_.MakeTouch(0, 0, {0});
  EXPECT_DEATH(Confirm(txn, txn.subs()[0], true, 1), "unregistered");
}

TEST_F(CommitLedgerDeathTest, ConfirmInsideSealedWindowAborts) {
#ifdef NDEBUG
  GTEST_SKIP() << "the sealed-window check compiles out under NDEBUG";
#else
  // The journal has one buffer: a confirm journaled between SealJournal
  // and FinishSealedRound would land in the journal being resolved.
  const auto txn = factory_.MakeTouch(0, 0, {0});
  ledger_.RegisterInjection(txn);
  ledger_.SealJournal(/*round=*/1, /*parts=*/1);
  EXPECT_DEATH(
      ledger_.ApplyConfirmDeferred(txn.id(), txn.subs()[0], true, 1),
      "confirm journaled inside a sealed window");
  ledger_.ResolveSealedPartition(0, 1);
  ledger_.FinishSealedRound(1);
#endif
}

}  // namespace
}  // namespace stableshard::core
