// sshard_bench: runs one StableShard benchmark workload per process.
//
//   sshard_bench --workload=fds_line_s1024_w3 [--seed=42] [--reps=5]
//                [--seconds=0] [--traced] [--smoke]
//
// The process runs one discarded warm-up rep, then measured reps until it
// has at least `--reps` of them and `--seconds` of measuring time have
// passed. Every rep constructs a fresh Simulation. With --traced each
// measured rep is a pair, one untraced run and one run whose scheduler is
// wrapped in TracedScheduler (below), alternating which goes first. The
// untraced process also constructs kSetupSamples extra Simulations that it
// does not run, so the set-up time is a median of many samples.
//
// Output is one JSON document on stdout: each rep's set-up and Run() wall
// time, PhaseTimes, full SimResult and, for traced reps, the per-layer
// metrics. benchmark/run.py derives the end-to-end metrics and checks the
// outputs. --smoke runs each workload at 1/20 of its rounds, without the
// warm-up.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "core/engine.h"
#include "core/scheduler_registry.h"

namespace {

using namespace stableshard;

using Clock = std::chrono::steady_clock;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// StepShard is timed only on rounds where round % kStepSampleEvery == 0:
/// on bds_uniform_s1024_w1, whose median StepShard call takes ~40 ns,
/// timing every call added 57% to the run and timing every 16th round ~8%.
constexpr Round kStepSampleEvery = 32;
/// The memory footprints are read on rounds where round % kMemorySampleEvery
/// == 0: reading them every 16th round cost ~4% on bds_uniform_s1024_w1.
constexpr Round kMemorySampleEvery = 256;
constexpr std::size_t kMaxThreads = 64;
constexpr int kSetupSamples = 10;
constexpr Round kSmokeDivisor = 20;

// ---------------------------------------------------------------- workloads

struct Fault {
  ShardId shard;
  Round round;
  Round down;
};

struct Workload {
  const char* name;
  core::SimConfig config;  ///< full scale; seed and faults filled in later
  std::vector<Fault> faults;
};

/// The config simulate_cli builds for the same flags: accounts = shards and
/// the default (random) account assignment.
core::SimConfig CliBase(const char* scheduler, net::TopologyKind topology,
                        ShardId shards) {
  core::SimConfig config;
  config.scheduler = scheduler;
  config.topology = topology;
  config.shards = shards;
  config.accounts = shards;
  return config;
}

std::vector<Workload> Workloads() {
  std::vector<Workload> workloads;

  // --scheduler=bds --topology=uniform --shards=1024 --rho=0.10 --b=3000
  // --rounds=20000 --drain=50000 --workers=1
  core::SimConfig bds = CliBase("bds", net::TopologyKind::kUniform, 1024);
  bds.rho = 0.10;
  bds.burstiness = 3000;
  bds.rounds = 20000;
  bds.drain_cap = 50000;
  workloads.push_back({"bds_uniform_s1024_w1", bds, {}});

  // --scheduler=fds --topology=line --shards=1024 --strategy=local
  // --radius=8 --rho=0.20 --b=3000 --rounds=10000 --drain=50000 --workers=3
  core::SimConfig fds = CliBase("fds", net::TopologyKind::kLine, 1024);
  fds.strategy = "local";
  fds.local_radius = 8;
  fds.rho = 0.20;
  fds.burstiness = 3000;
  fds.rounds = 10000;
  fds.drain_cap = 50000;
  fds.worker_threads = 3;
  workloads.push_back({"fds_line_s1024_w3", fds, {}});

  // --scheduler=fds --topology=line --shards=256 --strategy=local --radius=8
  // --arrival-rate=16 --burst=1 --rounds=8000 --drain=100000 --workers=2
  // --wal --checkpoint-interval=500
  // --faults=17@1730+20,130@3270+40,201@4810+20,64@6390+30
  // Crash rounds are off the checkpoint cadence, so every replay is
  // non-empty.
  core::SimConfig churn = CliBase("fds", net::TopologyKind::kLine, 256);
  churn.strategy = "local";
  churn.local_radius = 8;
  churn.arrival_rate = 16;
  churn.arrival_burst = 1;
  churn.rounds = 8000;
  churn.drain_cap = 100000;
  churn.worker_threads = 2;
  churn.wal = true;
  churn.checkpoint_interval = 500;
  workloads.push_back({"fds_churn_wal_s256_w2",
                       churn,
                       {{17, 1730, 20},
                        {130, 3270, 40},
                        {201, 4810, 20},
                        {64, 6390, 30}}});

  // --scheduler=backpressure --topology=line --shards=64
  // --strategy=hot_destination --zipf=1.2 --rho=0.35 --no-burst
  // --rounds=200000 --drain=100000 --bp-high=48 --bp-low=12
  core::SimConfig bp =
      CliBase("backpressure", net::TopologyKind::kLine, 64);
  bp.strategy = "hot_destination";
  bp.zipf_theta = 1.2;
  bp.rho = 0.35;
  bp.burst_round = kNoRound;
  bp.rounds = 200000;
  bp.drain_cap = 100000;
  bp.backpressure_high = 48;
  bp.backpressure_low = 12;
  workloads.push_back({"bp_hotdest_s64_w1", bp, {}});

  return workloads;
}

/// The workload's config for `seed`; `divisor` shrinks the run (rounds,
/// checkpoint cadence and crash rounds) for smoke runs.
core::SimConfig ConfigFor(const Workload& workload, std::uint64_t seed,
                          Round divisor) {
  core::SimConfig config = workload.config;
  config.seed = seed;
  config.rounds /= divisor;
  config.checkpoint_interval /= divisor;
  for (const Fault& fault : workload.faults) {
    if (!config.faults.empty()) config.faults += ",";
    config.faults += std::to_string(fault.shard) + "@" +
                     std::to_string(fault.round / divisor) + "+" +
                     std::to_string(fault.down);
  }
  return config;
}

// ----------------------------------------------------------- traced wrapper

/// Per-thread accumulators, one cache line apart.
struct alignas(64) ThreadSlot {
  double round_busy_s = 0;  ///< StepShard busy in the current sampled round
  double flush_busy_s = 0;  ///< FlushRoundPartition busy, whole run
  std::vector<std::uint32_t> step_ns;  ///< sampled StepShard durations
};

std::atomic<std::uint64_t> g_next_traced_id{1};

/// Forwards every Scheduler virtual to the scheduler the registry builds
/// and times the calls (see the sampling note at kStepSampleEvery).
/// Timing never feeds back into the simulation, so the SimResult equals
/// the untraced one; benchmark/run.py checks that.
class TracedScheduler final : public core::Scheduler {
 public:
  TracedScheduler(std::unique_ptr<core::Scheduler> inner, ShardId shards)
      : inner_(std::move(inner)), shard_busy_s_(shards, 0.0) {}

  void Inject(const txn::Transaction& txn) override {
    const auto start = Clock::now();
    inner_->Inject(txn);
    inject_s_ += Seconds(Clock::now() - start);
  }

  void BeginRound(Round round) override {
    round_start_ = Clock::now();
    inner_->BeginRound(round);
    step_start_ = Clock::now();
    begin_s_ += Seconds(step_start_ - round_start_);
    sampled_ = round % kStepSampleEvery == 0;
    memory_sampled_ = round % kMemorySampleEvery == 0;
  }

  void StepShard(ShardId shard, Round round) override {
    if (!sampled_) {
      inner_->StepShard(shard, round);
      return;
    }
    const auto start = Clock::now();
    inner_->StepShard(shard, round);
    const auto elapsed = Clock::now() - start;
    ThreadSlot& slot = Slot();
    const double busy = Seconds(elapsed);
    slot.round_busy_s += busy;
    slot.step_ns.push_back(static_cast<std::uint32_t>(std::min<std::int64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count(),
        UINT32_MAX)));
    // Each shard is stepped by one thread per round, and rounds are
    // separated by the pool's barrier.
    shard_busy_s_[shard] += busy;
  }

  void EndRound(Round round) override {
    EndStep();
    const auto start = Clock::now();
    inner_->EndRound(round);
    const auto end = Clock::now();
    // The serial epilogue flushes inside EndRound, so all three are its
    // time on this path.
    const double seconds = Seconds(end - start);
    epilogue_serial_s_ += seconds;
    flush_wall_s_ += seconds;
    serial_flush_s_ += seconds;
    EndRoundSpan(end);
  }

  void SealRound(Round round, std::uint32_t parts) override {
    EndStep();
    const auto start = Clock::now();
    inner_->SealRound(round, parts);
    seal_end_ = Clock::now();
    epilogue_serial_s_ += Seconds(seal_end_ - start);
  }

  void FlushRoundPartition(Round round, std::uint32_t part,
                           std::uint32_t parts) override {
    const auto start = Clock::now();
    inner_->FlushRoundPartition(round, part, parts);
    Slot().flush_busy_s += Seconds(Clock::now() - start);
  }

  void FinishRound(Round round) override {
    const auto start = Clock::now();
    flush_wall_s_ += Seconds(start - seal_end_);
    inner_->FinishRound(round);
    const auto end = Clock::now();
    epilogue_serial_s_ += Seconds(end - start);
    EndRoundSpan(end);
  }

  ShardId shard_count() const override { return inner_->shard_count(); }
  bool Idle() const override { return inner_->Idle(); }
  double LeaderQueueMean() const override { return inner_->LeaderQueueMean(); }
  double LeaderQueueMax() const override { return inner_->LeaderQueueMax(); }
  std::uint64_t MessagesSent() const override {
    return inner_->MessagesSent();
  }
  std::uint64_t PayloadUnits() const override {
    return inner_->PayloadUnits();
  }
  net::RingMemory NetworkMemory() const override {
    return inner_->NetworkMemory();
  }
  net::LaneMemory OutboxMemory() const override {
    return inner_->OutboxMemory();
  }
  common::ArenaMemoryStats ArenaMemory() const override {
    return inner_->ArenaMemory();
  }
  net::ShardTraffic ShardTrafficFor(ShardId shard) const override {
    return inner_->ShardTrafficFor(shard);
  }
  std::uint64_t QueueDepth(ShardId shard) const override {
    return inner_->QueueDepth(shard);
  }
  std::uint64_t SpilledTxns() const override { return inner_->SpilledTxns(); }
  void OnShardLiveness(ShardId shard,
                       durability::ShardLiveness state) override {
    inner_->OnShardLiveness(shard, state);
  }
  const char* name() const override { return inner_->name(); }

  /// The per-layer metrics of the finished run, named as in BENCHMARK.json.
  std::vector<std::pair<std::string, double>> Layers(
      const core::Simulation& sim, const core::SimResult& result,
      double run_s) const;

 private:
  /// This thread's accumulator slot, assigned on its first timed call.
  ThreadSlot& Slot() {
    thread_local std::uint64_t owner = 0;
    thread_local std::size_t index = 0;
    if (owner != id_) {
      owner = id_;
      index = used_slots_.fetch_add(1, std::memory_order_relaxed);
      SSHARD_CHECK(index < kMaxThreads && "more threads than trace slots");
    }
    return slots_[index];
  }

  std::size_t used_slots() const {
    return used_slots_.load(std::memory_order_acquire);
  }

  /// Epilogue entry: close the StepShard fan-out's wall window and fold
  /// the sampled round's per-thread busy time (the pool has joined).
  void EndStep() {
    const double wall = Seconds(Clock::now() - step_start_);
    step_wall_s_ += wall;
    if (!sampled_) return;
    double busy = 0;
    double max_busy = 0;
    for (std::size_t i = 0; i < used_slots(); ++i) {
      busy += slots_[i].round_busy_s;
      max_busy = std::max(max_busy, slots_[i].round_busy_s);
      slots_[i].round_busy_s = 0;
    }
    sampled_step_wall_s_ += wall;
    sampled_busy_s_ += busy;
    sampled_max_busy_s_ += max_busy;
  }

  /// Epilogue exit: record the round's span and, on memory-sampled rounds,
  /// the peak memory footprints.
  void EndRoundSpan(Clock::time_point end) {
    round_us_.push_back(Seconds(end - round_start_) * 1e6);
    if (!memory_sampled_) return;
    ring_peak_bytes_ = std::max(ring_peak_bytes_,
                                inner_->NetworkMemory().bucket_capacity_bytes);
    outbox_peak_bytes_ = std::max(outbox_peak_bytes_,
                                  inner_->OutboxMemory().capacity_bytes);
    arena_peak_bytes_ = std::max(arena_peak_bytes_,
                                 inner_->ArenaMemory().high_water_bytes);
  }

  std::unique_ptr<core::Scheduler> inner_;
  const std::uint64_t id_ = g_next_traced_id.fetch_add(1);
  std::array<ThreadSlot, kMaxThreads> slots_;
  std::atomic<std::size_t> used_slots_{0};
  std::vector<double> shard_busy_s_;
  std::vector<double> round_us_;

  Clock::time_point round_start_;
  Clock::time_point step_start_;
  Clock::time_point seal_end_;
  bool sampled_ = false;
  bool memory_sampled_ = false;

  double inject_s_ = 0;
  double begin_s_ = 0;
  double step_wall_s_ = 0;
  double sampled_step_wall_s_ = 0;
  double sampled_busy_s_ = 0;
  double sampled_max_busy_s_ = 0;
  double epilogue_serial_s_ = 0;
  double flush_wall_s_ = 0;
  double serial_flush_s_ = 0;
  std::uint64_t ring_peak_bytes_ = 0;
  std::uint64_t outbox_peak_bytes_ = 0;
  std::uint64_t arena_peak_bytes_ = 0;
};

/// Quantile q of `values`, interpolated inside runs of equal values: the
/// clock ticks in steps of several ns, so most StepShard samples tie, and
/// the plain order statistic would read the same tick on every run.
template <typename T>
double Quantile(std::vector<T> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const T value = values[static_cast<std::size_t>(rank)];
  const auto first = std::lower_bound(values.begin(), values.end(), value);
  const auto last = std::upper_bound(first, values.end(), value);
  const double next =
      last == values.end() ? value : static_cast<double>(*last);
  const double position =
      (rank - static_cast<double>(first - values.begin()) + 0.5) /
      static_cast<double>(last - first);
  return static_cast<double>(value) +
         (next - static_cast<double>(value)) * position;
}

double Ratio(double numerator, double denominator) {
  return denominator > 0 ? numerator / denominator : 0;
}

std::vector<std::pair<std::string, double>> TracedScheduler::Layers(
    const core::Simulation& sim, const core::SimResult& result,
    double run_s) const {
  const core::PhaseTimes& phases = sim.phase_times();
  const double workers = sim.effective_workers();
  // Sampled StepShard totals scaled to every round by step wall time (a
  // ratio estimate: a sampled burst round weighs what its wall time does).
  const double scale = Ratio(step_wall_s_, sampled_step_wall_s_);

  std::vector<std::uint32_t> step_ns;
  double flush_busy_s = serial_flush_s_;
  for (std::size_t i = 0; i < used_slots(); ++i) {
    step_ns.insert(step_ns.end(), slots_[i].step_ns.begin(),
                   slots_[i].step_ns.end());
    flush_busy_s += slots_[i].flush_busy_s;
  }
  double shard_busy_max = 0;
  double shard_busy_sum = 0;
  for (const double busy : shard_busy_s_) {
    shard_busy_max = std::max(shard_busy_max, busy);
    shard_busy_sum += busy;
  }
  const double shard_busy_mean =
      shard_busy_sum / static_cast<double>(shard_busy_s_.size());

  std::uint64_t inbound_total = 0;
  std::uint64_t inbound_max = 0;
  for (ShardId shard = 0; shard < inner_->shard_count(); ++shard) {
    const std::uint64_t in = inner_->ShardTrafficFor(shard).messages_in;
    inbound_total += in;
    inbound_max = std::max(inbound_max, in);
  }

  // In the pipelined epilogue the next round's generation runs inside
  // the flush window, so it is already inside phases.flush.
  const bool pipelined = sim.effective_workers() > 1 && sim.config().pipeline;
  const double accounted = phases.inject + phases.begin + phases.step +
                           phases.flush + phases.finish + phases.sample +
                           (pipelined ? 0.0 : phases.generate);
  const auto committed = static_cast<double>(result.committed);

  return {
      {"pool.step_efficiency",
       Ratio(sampled_busy_s_, workers * sampled_step_wall_s_)},
      {"pool.handoff_s", (sampled_step_wall_s_ - sampled_max_busy_s_) * scale},
      {"pool.worker_imbalance",
       Ratio(sampled_max_busy_s_ * workers, sampled_busy_s_)},
      {"pool.serial_share",
       Ratio(run_s - step_wall_s_ - (pipelined ? flush_wall_s_ : 0.0),
             run_s)},
      {"sched.step_wall_s", step_wall_s_},
      {"sched.step_busy_s", sampled_busy_s_ * scale},
      {"sched.step_shard_ns_p50", Quantile(step_ns, 0.50)},
      {"sched.step_shard_ns_p99", Quantile(step_ns, 0.99)},
      {"sched.shard_busy_max_over_mean",
       Ratio(shard_busy_max, shard_busy_mean)},
      {"sched.epilogue_serial_s", epilogue_serial_s_},
      {"sched.flush_busy_s", flush_busy_s},
      {"sched.flush_wall_s", flush_wall_s_},
      {"engine.generate_s", phases.generate},
      {"engine.inject_s", phases.inject},
      {"sched.inject_s", inject_s_},
      {"ledger.register_s", phases.inject - inject_s_},
      {"sched.begin_s", begin_s_},
      {"engine.sample_s", phases.sample},
      {"sched.leader_queue_peak", result.max_single_leader_queue},
      {"admission.spill_peak", static_cast<double>(result.spill_peak)},
      {"ledger.latency_max_rounds", result.max_latency},
      {"wal.bytes_per_commit",
       Ratio(static_cast<double>(result.wal_bytes), committed)},
      {"wal.checkpoints", static_cast<double>(result.checkpoint_count)},
      {"wal.replay_bytes", static_cast<double>(result.replay_bytes)},
      {"wal.recovery_rounds", static_cast<double>(result.recovery_rounds)},
      {"engine.unaccounted_s", phases.total - accounted},
      {"net.msgs_per_commit",
       Ratio(static_cast<double>(result.messages), committed)},
      {"net.payload_per_commit",
       Ratio(static_cast<double>(result.payload_units), committed)},
      {"net.leader_in_share",
       Ratio(static_cast<double>(inbound_max),
             static_cast<double>(inbound_total))},
      {"net.ring_capacity_bytes", static_cast<double>(ring_peak_bytes_)},
      {"net.outbox_capacity_bytes", static_cast<double>(outbox_peak_bytes_)},
      {"txn.colorings", static_cast<double>(inner_->ArenaMemory().resets)},
      {"txn.arena_high_water_bytes", static_cast<double>(arena_peak_bytes_)},
      {"ledger.pending_peak", static_cast<double>(result.max_pending)},
      {"traffic.inject_lag_peak", static_cast<double>(result.inject_lag_peak)},
      {"engine.round_us_p50", Quantile(round_us_, 0.50)},
      {"engine.round_us_p99", Quantile(round_us_, 0.99)},
  };
}

// --------------------------------------------------------------------- JSON

std::string Num(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string Num(std::uint64_t value) { return std::to_string(value); }

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string ResultJson(const core::SimResult& r) {
  const std::pair<const char*, std::string> fields[] = {
      {"avg_pending_per_shard", Num(r.avg_pending_per_shard)},
      {"avg_latency", Num(r.avg_latency)},
      {"max_latency", Num(r.max_latency)},
      {"p50_latency", Num(r.p50_latency)},
      {"p99_latency", Num(r.p99_latency)},
      {"avg_leader_queue", Num(r.avg_leader_queue)},
      {"max_leader_queue", Num(r.max_leader_queue)},
      {"max_single_leader_queue", Num(r.max_single_leader_queue)},
      {"injected", Num(r.injected)},
      {"committed", Num(r.committed)},
      {"aborted", Num(r.aborted)},
      {"unresolved", Num(r.unresolved)},
      {"max_pending", Num(r.max_pending)},
      {"spill_peak", Num(r.spill_peak)},
      {"messages", Num(r.messages)},
      {"payload_units", Num(r.payload_units)},
      {"offered_txns", Num(r.offered_txns)},
      {"injected_txns", Num(r.injected_txns)},
      {"inject_lag_peak", Num(r.inject_lag_peak)},
      {"wal_bytes", Num(r.wal_bytes)},
      {"checkpoint_count", Num(r.checkpoint_count)},
      {"replay_bytes", Num(r.replay_bytes)},
      {"recovery_rounds", Num(r.recovery_rounds)},
      {"rounds_executed", Num(r.rounds_executed)},
      {"drained", r.drained ? "true" : "false"},
  };
  std::string out = "{";
  for (const auto& [name, value] : fields) {
    if (out.size() > 1) out += ", ";
    out += Quote(name) + ": " + value;
  }
  return out + "}";
}

std::string PhasesJson(const core::PhaseTimes& p) {
  return "{\"generate\": " + Num(p.generate) + ", \"inject\": " +
         Num(p.inject) + ", \"begin\": " + Num(p.begin) + ", \"step\": " +
         Num(p.step) + ", \"flush\": " + Num(p.flush) + ", \"finish\": " +
         Num(p.finish) + ", \"sample\": " + Num(p.sample) + ", \"total\": " +
         Num(p.total) + "}";
}

// --------------------------------------------------------------------- reps

struct Rep {
  bool warmup = false;
  bool traced = false;
  double setup_s = 0;
  double run_s = 0;
  std::string json_body;  ///< result, phases and layers
};

Rep RunRep(const core::SimConfig& config, bool traced, bool warmup) {
  core::SimConfig run_config = config;
  if (traced) run_config.scheduler = "bench_traced";
  Rep rep;
  rep.warmup = warmup;
  rep.traced = traced;
  auto start = Clock::now();
  core::Simulation sim(run_config);
  rep.setup_s = Seconds(Clock::now() - start);
  start = Clock::now();
  const core::SimResult result = sim.Run();
  rep.run_s = Seconds(Clock::now() - start);

  rep.json_body = "\"result\": " + ResultJson(result) +
                  ", \"phases\": " + PhasesJson(sim.phase_times());
  if (traced) {
    const auto& tracer = static_cast<const TracedScheduler&>(sim.scheduler());
    std::string layers;
    for (const auto& [name, value] : tracer.Layers(sim, result, rep.run_s)) {
      if (!layers.empty()) layers += ", ";
      layers += Quote(name) + ": " + Num(value);
    }
    rep.json_body += ", \"layers\": {" + layers + "}";
  }
  return rep;
}

const char* Compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

int main(int argc, char** argv) {
#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  std::fprintf(stderr,
               "sshard_bench: refusing to time a Debug or sanitizer build "
               "(build type %s)\n",
               SSHARD_BENCH_BUILD_TYPE);
  return 2;
#endif
  Flags flags;
  if (!flags.Parse(argc, argv)) {
    std::fprintf(stderr, "%s\n", flags.error().c_str());
    return 2;
  }
  const std::string name = flags.GetString("workload", "");
  const std::uint64_t seed = flags.GetUint("seed", 42);
  const std::uint64_t min_reps = flags.GetUint("reps", 5);
  const double seconds = flags.GetDouble("seconds", 0);
  const bool traced = flags.GetBool("traced", false);
  const bool smoke = flags.GetBool("smoke", false);
  if (!flags.FinishReads()) return 2;

  const std::vector<Workload> workloads = Workloads();
  const auto workload =
      std::find_if(workloads.begin(), workloads.end(),
                   [&](const Workload& w) { return name == w.name; });
  if (workload == workloads.end()) {
    std::fprintf(stderr, "unknown --workload=%s; known:", name.c_str());
    for (const Workload& w : workloads) std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
  }
  const core::SimConfig config =
      ConfigFor(*workload, seed, smoke ? kSmokeDivisor : 1);

  const core::SchedulerRegistrar traced_registrar{
      "bench_traced",
      [inner = config.scheduler](const core::SimConfig& sim_config,
                                 core::SchedulerDeps& deps) {
        return std::unique_ptr<core::Scheduler>(
            std::make_unique<TracedScheduler>(
                core::SchedulerRegistry::Global().Build(inner, sim_config,
                                                        deps),
                sim_config.shards));
      }};

  // The peak RSS is read after the process's first run: later reps reuse a
  // heap whose fragmentation, and so whose peak, varies from run to run.
  std::vector<Rep> reps;
  std::uint64_t peak_rss_kb = 0;
  const auto read_peak_rss = [&peak_rss_kb] {
    if (peak_rss_kb > 0) return;
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    peak_rss_kb = static_cast<std::uint64_t>(usage.ru_maxrss);
  };
  if (!smoke) {
    reps.push_back(RunRep(config, false, true));
    read_peak_rss();
  }
  const auto measure_start = Clock::now();
  for (std::uint64_t i = 0;
       i < min_reps || Seconds(Clock::now() - measure_start) < seconds; ++i) {
    if (traced) {
      const bool traced_first = i % 2 == 1;
      reps.push_back(RunRep(config, traced_first, false));
      reps.push_back(RunRep(config, !traced_first, false));
    } else {
      reps.push_back(RunRep(config, false, false));
    }
    read_peak_rss();
  }
  std::vector<double> setup_samples;
  if (!traced) {
    for (int i = 0; i < kSetupSamples; ++i) {
      const auto start = Clock::now();
      const core::Simulation sim(config);
      setup_samples.push_back(Seconds(Clock::now() - start));
    }
  }

  std::string out = "{\"workload\": " + Quote(workload->name) +
                    ", \"config\": " + Quote(config.Describe()) +
                    ", \"seed\": " + Num(seed) +
                    ", \"shards\": " + Num(std::uint64_t{config.shards}) +
                    ", \"workers\": " +
                    Num(std::uint64_t{config.worker_threads}) +
                    ", \"faults\": " + Quote(config.faults) +
                    ", \"smoke\": " + (smoke ? "true" : "false") +
                    ", \"traced\": " + (traced ? "true" : "false") +
                    ", \"build_type\": " + Quote(SSHARD_BENCH_BUILD_TYPE) +
                    ", \"compiler\": " + Quote(Compiler()) +
                    ", \"peak_rss_kb\": " + Num(peak_rss_kb) +
                    ", \"setup_samples_s\": [";
  for (std::size_t i = 0; i < setup_samples.size(); ++i) {
    out += (i > 0 ? ", " : "") + Num(setup_samples[i]);
  }
  out += "], \"reps\": [";
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const Rep& rep = reps[i];
    out += std::string(i > 0 ? ",\n  " : "\n  ") + "{\"warmup\": " +
           (rep.warmup ? "true" : "false") + ", \"traced\": " +
           (rep.traced ? "true" : "false") + ", \"setup_s\": " +
           Num(rep.setup_s) + ", \"run_s\": " + Num(rep.run_s) + ", " +
           rep.json_body + "}";
  }
  out += "]}\n";
  std::fputs(out.c_str(), stdout);
  return 0;
}
