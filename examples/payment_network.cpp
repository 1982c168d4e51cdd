// Payment network: drives the library's transaction layer directly with
// Example-1-style conditional transfers ("move X from A to B if A holds at
// least Y"), showing condition checks, atomic commit/abort voting, balance
// conservation and global chain reconstruction — without the adversary
// harness.
//
//   build/examples/payment_network
#include <cstdio>

#include "chain/account_map.h"
#include "chain/global_chain.h"
#include "common/rng.h"
#include "core/bds.h"
#include "core/commit_ledger.h"
#include "net/metric.h"
#include "txn/txn_factory.h"

int main() {
  using namespace stableshard;

  constexpr ShardId kShards = 8;
  constexpr AccountId kAccounts = 32;  // 4 accounts per shard
  constexpr chain::Balance kInitial = 10'000;

  const auto accounts = chain::AccountMap::RoundRobin(kShards, kAccounts);
  net::UniformMetric metric(kShards);
  core::CommitLedger ledger(accounts, kInitial);
  core::BdsScheduler scheduler(metric, ledger);
  txn::TxnFactory factory(accounts);
  Rng rng(7);

  // Issue random transfers; roughly a third carry a condition that cannot
  // be met and must abort atomically on every shard involved.
  constexpr int kTransfers = 400;
  Round round = 0;
  for (int i = 0; i < kTransfers; ++i) {
    const AccountId from = rng.NextBounded(kAccounts);
    AccountId to = rng.NextBounded(kAccounts - 1);
    if (to >= from) ++to;
    const chain::Balance amount = 1 + rng.NextInRange(0, 99);
    // One in three transfers demands an absurd minimum balance -> abort.
    const chain::Balance minimum =
        rng.NextBool(0.33) ? 100 * kInitial : amount;
    const auto txn = factory.MakeTransfer(accounts.OwnerOf(from), round,
                                          from, to, amount, minimum);
    // The ledger keeps the one copy of the transaction; the scheduler
    // keeps its id.
    scheduler.Inject(ledger.RegisterInjection(txn));
    // Trickle: a couple of transactions per round.
    if (i % 2 == 1) scheduler.Step(round++);
  }
  while (!scheduler.Idle()) scheduler.Step(round++);

  std::printf("transfers issued   : %d\n", kTransfers);
  std::printf("committed          : %llu\n",
              static_cast<unsigned long long>(ledger.committed_txns()));
  std::printf("aborted (failed conditions): %llu\n",
              static_cast<unsigned long long>(ledger.aborted_txns()));
  std::printf("avg latency        : %.1f rounds\n",
              ledger.latency().average_latency());

  // Money conservation: transfers only move balance, so the total across
  // all shards must equal the number of touched accounts times the initial
  // balance.
  chain::Balance total = 0;
  std::size_t materialized = 0;
  for (ShardId shard = 0; shard < kShards; ++shard) {
    total += ledger.store(shard).TotalBalance();
    materialized += ledger.store(shard).materialized_accounts();
  }
  std::printf("balance conserved  : %s (total %lld over %zu accounts)\n",
              total == static_cast<chain::Balance>(materialized) * kInitial
                  ? "yes"
                  : "NO",
              static_cast<long long>(total), materialized);

  const auto reconstruction = chain::ReconstructGlobalChain(ledger.chains());
  std::printf("global chain       : %zu committed entries, consistent=%s, "
              "serializable=%s\n",
              reconstruction.entries.size(),
              reconstruction.consistent ? "yes" : "no",
              chain::CheckSerializable(ledger.chains()) ? "yes" : "no");
  return 0;
}
