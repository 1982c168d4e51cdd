// Allocation budget of the commit path: heap allocations per committed
// transaction over a warm steady-state window of serial BDS, FDS (with and
// without a WAL) and backpressure runs. Allocation counts are deterministic for a given build,
// so unlike a timing they cannot be fooled by host noise: a change that
// adds a copy or a hash node per transaction shows up here at once.
//
// The window is the difference between two runs of one config that differ
// only in their injection rounds: setup, warm-up growth (rings, lanes,
// arenas, the ledger window) and the drain tail appear in both and cancel.
//
// The budgets are the counts measured with GCC 12.2 / libstdc++ 12
// (Debian 12, x86-64) when they were set, plus about 3% for container
// growth policies that differ slightly between library versions; another
// standard library may need its own. Debug builds count separately: their
// DCHECK-only verification (the coloring check) allocates. A change that
// lowers a count lowers its budget; one that raises it names the count,
// the old and new values and the reason in CHANGES.md.
//
// Its own binary, because it replaces the global operator new/delete with
// counting versions; no other test should run under them.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "core/config.h"
#include "core/engine.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* memory = std::malloc(size == 0 ? 1 : size)) return memory;
  throw std::bad_alloc();
}

void operator delete(void* memory) noexcept { std::free(memory); }

void operator delete(void* memory, std::size_t) noexcept {
  std::free(memory);
}

namespace stableshard {
namespace {

struct RunCost {
  std::uint64_t allocations = 0;
  std::uint64_t committed = 0;
};

RunCost CountRun(core::SimConfig config, Round rounds) {
  config.rounds = rounds;
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  core::Simulation sim(config);
  const core::SimResult result = sim.Run();
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_TRUE(result.drained);
  return {after - before, result.committed};
}

/// Allocations per commit between `short_rounds` and `long_rounds` of
/// injection.
double AllocationsPerCommit(const core::SimConfig& config, Round short_rounds,
                            Round long_rounds) {
  const RunCost short_run = CountRun(config, short_rounds);
  const RunCost long_run = CountRun(config, long_rounds);
  EXPECT_GT(long_run.committed, short_run.committed);
  return static_cast<double>(long_run.allocations - short_run.allocations) /
         static_cast<double>(long_run.committed - short_run.committed);
}

struct Budget {
  double bds;
  double fds;
  double fds_wal;
  double backpressure;
};

#ifdef NDEBUG
// measured 18.9, 16.3, 16.4, 18.8
constexpr Budget kBudget = {19.5, 16.8, 16.9, 19.4};
#else
// measured 24.2, 19.9, 20.0, 19.6
constexpr Budget kBudget = {25.0, 20.5, 20.6, 20.3};
#endif

core::SimConfig Serial(const char* scheduler, net::TopologyKind topology) {
  core::SimConfig config;
  config.scheduler = scheduler;
  config.topology = topology;
  config.shards = 64;
  config.accounts = 64;
  config.k = 8;
  config.burstiness = 50;
  config.drain_cap = 50000;
  config.seed = 42;
  config.worker_threads = 1;
  return config;
}

TEST(CommitAllocations, BdsUniformStaysWithinBudget) {
  core::SimConfig config = Serial("bds", net::TopologyKind::kUniform);
  config.rho = 0.05;
  const double per_commit = AllocationsPerCommit(config, 1000, 3000);
  std::printf("bds_uniform_s64: %.2f allocations per commit\n", per_commit);
  EXPECT_LE(per_commit, kBudget.bds);
}

TEST(CommitAllocations, FdsLineStaysWithinBudget) {
  core::SimConfig config = Serial("fds", net::TopologyKind::kLine);
  config.strategy = "local";
  config.local_radius = 4;
  config.rho = 0.1;
  const double per_commit = AllocationsPerCommit(config, 1000, 3000);
  std::printf("fds_line_s64: %.2f allocations per commit\n", per_commit);
  EXPECT_LE(per_commit, kBudget.fds);
}

// The same FDS run with a write-ahead log and no checkpoints: the WAL
// stages and encodes one record per subtransaction decision.
TEST(CommitAllocations, FdsLineWithWalStaysWithinBudget) {
  core::SimConfig config = Serial("fds", net::TopologyKind::kLine);
  config.strategy = "local";
  config.local_radius = 4;
  config.rho = 0.1;
  config.wal = true;
  config.checkpoint_interval = 0;
  const double per_commit = AllocationsPerCommit(config, 1000, 3000);
  std::printf("fds_line_wal_s64: %.2f allocations per commit\n", per_commit);
  EXPECT_LE(per_commit, kBudget.fds_wal);
}

// FDS behind watermark admission control on Zipf-hot destinations (the
// backpressure golden's knobs): spilled transactions wait in the
// scheduler's per-home spill queues before they reach the commit path.
TEST(CommitAllocations, BackpressureHotDestinationStaysWithinBudget) {
  core::SimConfig config = Serial("backpressure", net::TopologyKind::kLine);
  config.strategy = "hot_destination";
  config.zipf_theta = 1.0;
  config.rho = 0.35;
  config.backpressure_high = 6;
  config.backpressure_low = 2;
  const double per_commit = AllocationsPerCommit(config, 1000, 3000);
  std::printf("backpressure_hotdest_s64: %.2f allocations per commit\n",
              per_commit);
  EXPECT_LE(per_commit, kBudget.backpressure);
}

}  // namespace
}  // namespace stableshard
