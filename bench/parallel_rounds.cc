// Fixed benchmark records. Each mode runs one fixed list of simulations,
// asserts its relations with SSHARD_CHECK (a violated relation aborts the
// run) and writes one record into the working directory:
//
//   build/bench/parallel_rounds --check         # BENCH_check.json
//   build/bench/parallel_rounds --grid          # BENCH_scaling.json
//   build/bench/parallel_rounds --backpressure  # BENCH_backpressure.json
//   build/bench/parallel_rounds --traffic       # BENCH_traffic.json
//   build/bench/parallel_rounds --faults        # BENCH_recovery.json
//   build/bench/parallel_rounds --leadershare   # BENCH_leadershare.json
//
// --traffic replays the fixtures in --trace-dir (default tests/traces).
// Run from the repo root, a mode overwrites its tracked record; ctest runs
// every mode in the build directory and byte-compares its output with the
// tracked file. docs/BENCHMARKS.md documents each record's fields.
//
// Every run is repeated with 4 worker threads (the grid: 8), the pipelined
// epilogue on and off, and must match the serial run bit for bit: the
// determinism contract of core/scheduler.h. Records hold no wall clock;
// timings come from benchmark/.
#include <algorithm>
#include <array>
#include <concepts>
#include <cstdio>
#include <functional>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "cluster/hierarchy.h"
#include "common/check.h"
#include "common/flags.h"
#include "consensus/backpressure_scheduler.h"
#include "core/engine.h"
#include "traffic/trace.h"

namespace {

using namespace stableshard;

/// One run's SimResult plus the scheduler introspection the records read.
struct Run {
  std::string scheduler;
  core::SimResult result;
  net::RingMemory ring_at_start;  ///< after construction, before round 0
  net::RingMemory ring_at_end;
  double leader_in_share = 0;   ///< max_i messages_in(i) / messages
  double leader_out_share = 0;  ///< max_i messages_out(i) / messages
  /// messages_in of each top-root cluster's leader, in root order (empty
  /// when the scheduler runs without a hierarchy).
  std::vector<std::uint64_t> root_leader_in;
  // Admission-control counters (0 unless the scheduler is backpressure).
  std::uint64_t deferred = 0;
  std::uint64_t readmitted = 0;
  std::uint64_t hot_transitions = 0;
};

Run RunOnce(core::SimConfig config, std::uint32_t workers, bool pipeline) {
  config.worker_threads = workers;
  config.pipeline = pipeline;
  // The small-grid guard must never serialize a pooled run, or the
  // identity check would compare the serial path with itself.
  config.min_shards_per_worker = 1;
  core::Simulation sim(config);
  const core::Scheduler& scheduler = sim.scheduler();
  Run run;
  run.scheduler = config.scheduler;
  run.ring_at_start = scheduler.NetworkMemory();
  run.result = sim.Run();
  run.ring_at_end = scheduler.NetworkMemory();
  std::uint64_t max_in = 0, max_out = 0;
  for (ShardId shard = 0; shard < config.shards; ++shard) {
    const net::ShardTraffic traffic = scheduler.ShardTrafficFor(shard);
    max_in = std::max(max_in, traffic.messages_in);
    max_out = std::max(max_out, traffic.messages_out);
  }
  if (run.result.messages > 0) {
    const auto messages = static_cast<double>(run.result.messages);
    run.leader_in_share = static_cast<double>(max_in) / messages;
    run.leader_out_share = static_cast<double>(max_out) / messages;
  }
  if (const cluster::Hierarchy* hierarchy = sim.hierarchy()) {
    for (const std::uint32_t root : hierarchy->top_roots()) {
      const ShardId leader = hierarchy->clusters()[root].leader;
      run.root_leader_in.push_back(
          scheduler.ShardTrafficFor(leader).messages_in);
    }
  }
  if (const auto* backpressure =
          dynamic_cast<const consensus::BackpressureScheduler*>(&scheduler)) {
    run.deferred = backpressure->deferred_total();
    run.readmitted = backpressure->readmitted_total();
    run.hot_transitions = backpressure->hot_transitions();
  }
  return run;
}

/// Protocol-outcome fields equal, doubles bit-for-bit. This is the subset
/// a WAL-enabled fault-free run must share with a WAL-off run: the WAL is
/// write-only until a crash, so only the durability counters may differ.
bool IdenticalProtocol(const core::SimResult& a, const core::SimResult& b) {
  return a.injected == b.injected && a.committed == b.committed &&
         a.aborted == b.aborted && a.unresolved == b.unresolved &&
         a.max_pending == b.max_pending && a.spill_peak == b.spill_peak &&
         a.messages == b.messages &&
         a.payload_units == b.payload_units &&
         a.rounds_executed == b.rounds_executed && a.drained == b.drained &&
         a.offered_txns == b.offered_txns &&
         a.injected_txns == b.injected_txns &&
         a.inject_lag_peak == b.inject_lag_peak &&
         a.avg_pending_per_shard == b.avg_pending_per_shard &&
         a.avg_leader_queue == b.avg_leader_queue &&
         a.max_leader_queue == b.max_leader_queue &&
         a.max_single_leader_queue == b.max_single_leader_queue &&
         a.avg_latency == b.avg_latency && a.max_latency == b.max_latency &&
         a.p50_latency == b.p50_latency && a.p99_latency == b.p99_latency;
}

/// Every SimResult field equal — the durability counters included: the WAL
/// persists, checkpoints cut and the fault plan replays identically
/// whatever the worker count or epilogue mode.
bool Identical(const core::SimResult& a, const core::SimResult& b) {
  return IdenticalProtocol(a, b) && a.wal_bytes == b.wal_bytes &&
         a.checkpoint_count == b.checkpoint_count &&
         a.replay_bytes == b.replay_bytes &&
         a.recovery_rounds == b.recovery_rounds;
}

/// Runs `config` serially, then with `workers` threads and the pipelined
/// epilogue on and off, and aborts unless all three SimResults are
/// bit-identical. Returns the serial run. A run that commits nothing
/// aborts as well: every equality over it, the identity here and each
/// mode's committed-count relations, would be vacuous.
Run RunChecked(const core::SimConfig& config, std::uint32_t workers = 4) {
  const Run serial = RunOnce(config, 1, /*pipeline=*/true);
  SSHARD_CHECK(serial.result.committed > 0 &&
               "the run committed nothing — its relations are vacuous");
  for (const bool pipeline : {true, false}) {
    SSHARD_CHECK(
        Identical(serial.result,
                  RunOnce(config, workers, pipeline).result) &&
        "worker_threads or the pipeline switch changed a SimResult — "
        "determinism bug");
  }
  return serial;
}

/// Everything injected resolved, with the accounting identity.
void CheckDrained(const core::SimResult& r) {
  SSHARD_CHECK(r.drained && r.unresolved == 0 &&
               r.injected == r.committed + r.aborted &&
               "a run broke the accounting identity or failed to drain");
}

/// The base of the drained records: one account per shard, assigned
/// round-robin, and a drain phase long enough to resolve every injection.
core::SimConfig DrainedConfig(const char* scheduler,
                              net::TopologyKind topology, ShardId shards) {
  core::SimConfig config;
  config.scheduler = scheduler;
  config.topology = topology;
  config.hierarchy = bench::HierarchyFor(topology);
  config.shards = shards;
  config.accounts = shards;
  config.account_assignment = core::AccountAssignment::kRoundRobin;
  config.drain_cap = 200000;
  return config;
}

/// One JSON object, fields in insertion order. Doubles print with six
/// decimals, so a record is byte-stable wherever its runs are
/// bit-identical.
class JsonRow {
 public:
  JsonRow& Add(const char* key, const char* value) {
    return Field(key, std::string("\"") + value + "\"");
  }
  JsonRow& Add(const char* key, const std::string& value) {
    return Add(key, value.c_str());
  }
  JsonRow& Add(const char* key, double value) {
    char text[64];
    std::snprintf(text, sizeof(text), "%.6f", value);
    return Field(key, text);
  }
  template <std::integral T>
  JsonRow& Add(const char* key, T value) {
    if constexpr (std::same_as<T, bool>) {
      return Field(key, value ? "true" : "false");
    } else {
      return Field(key, std::to_string(value));
    }
  }

  const std::vector<std::pair<std::string, std::string>>& fields() const {
    return fields_;
  }
  /// `{"key": value, ...}` on one line.
  std::string Inline() const {
    std::string text = "{";
    for (const auto& [key, value] : fields_) {
      if (text.size() > 1) text += ", ";
      text += "\"" + key + "\": " + value;
    }
    return text + "}";
  }

 private:
  JsonRow& Field(const char* key, std::string value) {
    fields_.emplace_back(key, std::move(value));
    return *this;
  }

  std::vector<std::pair<std::string, std::string>> fields_;
};

/// A record being built: header fields, then one row per run. Rows echo to
/// stdout as they are added, so a relation that aborts the mode shows the
/// rows it was checking.
class Record {
 public:
  Record(const char* name, JsonRow header)
      : path_(std::string("BENCH_") + name + ".json"),
        header_(std::move(header)) {}

  void Add(const JsonRow& row) {
    rows_.push_back(row.Inline());
    std::printf("%s\n", rows_.back().c_str());
  }

  /// Writes the record into the working directory: the header one field
  /// per line, then the rows one per line. Returns the exit code.
  int Write() const {
    std::FILE* file = std::fopen(path_.c_str(), "w");
    if (file == nullptr) {
      std::fprintf(stderr, "cannot open '%s' for writing\n", path_.c_str());
      return 1;
    }
    std::fprintf(file, "{\n");
    for (const auto& [key, value] : header_.fields()) {
      std::fprintf(file, "  \"%s\": %s,\n", key.c_str(), value.c_str());
    }
    std::fprintf(file, "  \"rows\": [\n");
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(file, "    %s%s\n", rows_[i].c_str(),
                   i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(file, "  ]\n}\n");
    if (std::fclose(file) != 0) {
      std::fprintf(stderr, "cannot write '%s'\n", path_.c_str());
      return 1;
    }
    std::printf("every relation held; wrote %s\n", path_.c_str());
    return 0;
  }

 private:
  std::string path_;
  JsonRow header_;
  std::vector<std::string> rows_;
};

/// Every scheduler on a small config, the sharded-leader and multi-root
/// modes with non-trivial fan-outs (at knob value 1 they are "bds"/"fds"
/// bit for bit, by tests/leader_sharding_test.cc). bds, fds and direct run
/// again with the WAL and a checkpoint cadence on but no faults: the WAL
/// is write-only until a crash, so the protocol outcome must not move.
int Check() {
  core::SimConfig base;
  base.shards = 32;
  base.accounts = 32;
  base.rho = 0.2;
  base.burstiness = 300;
  base.rounds = 300;
  Record record("check", JsonRow()
                             .Add("bench", "parallel_rounds_check")
                             .Add("shards", base.shards)
                             .Add("k", base.k)
                             .Add("rho", base.rho)
                             .Add("burst", base.burstiness)
                             .Add("rounds", base.rounds)
                             .Add("workers_1_vs_4_pipeline_on_off_identical",
                                  true));
  const struct {
    const char* scheduler;
    std::uint32_t color_leaders;
    std::uint32_t top_roots;
    bool wal_cell;
  } cells[] = {{"bds", 1, 1, true},          {"bds_sharded", 4, 1, false},
               {"fds", 1, 1, true},          {"fds_multiroot", 1, 3, false},
               {"direct", 1, 1, true},       {"backpressure", 1, 1, false}};
  for (const auto& cell : cells) {
    core::SimConfig config = base;
    config.scheduler = cell.scheduler;
    config.bds_color_leaders = cell.color_leaders;
    config.fds_top_roots = cell.top_roots;
    config.topology = config.scheduler.rfind("bds", 0) == 0
                          ? net::TopologyKind::kUniform
                          : net::TopologyKind::kLine;
    config.hierarchy = bench::HierarchyFor(config.topology);
    const auto add_row = [&](const core::SimResult& r) {
      record.Add(JsonRow()
                     .Add("scheduler", cell.scheduler)
                     .Add("color_leaders", cell.color_leaders)
                     .Add("top_roots", cell.top_roots)
                     .Add("wal", config.wal)
                     .Add("injected", r.injected)
                     .Add("committed", r.committed)
                     .Add("aborted", r.aborted)
                     .Add("unresolved", r.unresolved)
                     .Add("messages", r.messages)
                     .Add("max_pending", r.max_pending)
                     .Add("avg_latency", r.avg_latency)
                     .Add("p99_latency", r.p99_latency)
                     .Add("wal_bytes", r.wal_bytes)
                     .Add("checkpoint_count", r.checkpoint_count));
    };
    const core::SimResult off = RunChecked(config).result;
    add_row(off);
    if (!cell.wal_cell) continue;

    config.wal = true;
    config.checkpoint_interval = 50;
    const core::SimResult on = RunChecked(config).result;
    add_row(on);
    SSHARD_CHECK(IdenticalProtocol(off, on) &&
                 "enabling the WAL changed a protocol outcome — durability "
                 "must be write-only without faults");
    SSHARD_CHECK(on.wal_bytes > 0 && on.checkpoint_count > 0 &&
                 "WAL cell persisted nothing — the check is vacuous");
  }
  return record.Write();
}

/// The large-s grid (bench::LargeScaleGrid): s in {256, 512, 1024} on line
/// and ring (fds) and uniform (bds), b = 3000, the non-uniform cells on
/// the radius-8 local workload. Records each cell's network-ring footprint
/// (the lazy ring allocates nothing before first contact; a dense table
/// held (Diameter + 2) * s buckets) and the busiest shard's share of all
/// messages (1/s is perfectly balanced).
int Grid() {
  constexpr double kRho = 0.15;
  constexpr std::uint32_t kBurst = 3000;
  constexpr Round kRounds = 400;
  constexpr std::uint32_t kWorkers = 8;
  constexpr Distance kRadius = 8;
  Record record("scaling", JsonRow()
                               .Add("bench", "parallel_rounds_grid")
                               .Add("burst", kBurst)
                               .Add("rho", kRho)
                               .Add("rounds", kRounds)
                               .Add("workers", kWorkers));
  for (const bench::LargeGridCell& cell : bench::LargeScaleGrid()) {
    const core::SimConfig config =
        bench::LargeGridConfig(cell, kRho, kBurst, kRounds, kRadius);
    const Run run = RunChecked(config, kWorkers);
    const net::RingMemory& ring = run.ring_at_end;
    record.Add(JsonRow()
                   .Add("s", config.shards)
                   .Add("topology", net::TopologyName(config.topology))
                   .Add("scheduler", config.scheduler)
                   .Add("strategy", config.strategy)
                   .Add("identical", true)
                   .Add("ring_buckets_at_start",
                        run.ring_at_start.allocated_buckets)
                   .Add("ring_live_destinations", ring.live_destinations)
                   .Add("ring_buckets", ring.allocated_buckets)
                   .Add("ring_capacity_bytes", ring.bucket_capacity_bytes)
                   .Add("dense_bucket_equivalent",
                        ring.dense_bucket_equivalent)
                   .Add("leader_in_share", run.leader_in_share)
                   .Add("leader_out_share", run.leader_out_share)
                   .Add("max_single_leader_queue",
                        run.result.max_single_leader_queue)
                   .Add("committed", run.result.committed)
                   .Add("messages", run.result.messages));
    SSHARD_CHECK(run.ring_at_start.allocated_buckets == 0 &&
                 "the network ring allocated buckets before first contact");
  }
  return record.Write();
}

/// fds and the backpressure wrapper on the same workload, each drained.
/// Shedding defers admissions and never drops one, so both sides must
/// commit the same count. Returns {fds, backpressure}.
std::array<Run, 2> FdsVsBackpressure(core::SimConfig config) {
  config.scheduler = "fds";
  const Run fds = RunChecked(config);
  config.scheduler = "backpressure";
  const Run backpressure = RunChecked(config);
  CheckDrained(fds.result);
  CheckDrained(backpressure.result);
  SSHARD_CHECK(backpressure.result.committed == fds.result.committed &&
               "backpressure committed a different count than fds — "
               "admissions were lost or duplicated");
  return {fds, backpressure};
}

/// Hot-destination load shedding: fds vs backpressure (watermarks 48/12)
/// on Zipf-skewed destinations over a 64-shard line, in sustained overload
/// with no one-shot burst (admission control cannot see a burst that
/// lands before any traffic exists). Under real skew (theta >= 1) the
/// shedding must strictly cut the leader-queue peak.
int Backpressure() {
  core::SimConfig config =
      DrainedConfig("fds", net::TopologyKind::kLine, 64);
  config.rho = 0.35;
  config.burst_round = kNoRound;
  config.strategy = "hot_destination";
  config.rounds = 800;
  config.backpressure_high = 48;
  config.backpressure_low = 12;
  Record record("backpressure",
                JsonRow()
                    .Add("bench", "parallel_rounds_backpressure")
                    .Add("strategy", config.strategy)
                    .Add("topology", "line")
                    .Add("shards", config.shards)
                    .Add("rho", config.rho)
                    .Add("rounds", config.rounds)
                    .Add("bp_high", config.backpressure_high)
                    .Add("bp_low", config.backpressure_low)
                    .Add("workers_1_vs_4_pipeline_on_off_identical", true));
  for (const double theta : {0.0, 0.5, 1.0, 1.5}) {
    config.zipf_theta = theta;
    const std::array<Run, 2> runs = FdsVsBackpressure(config);
    for (const Run& run : runs) {
      const core::SimResult& r = run.result;
      record.Add(JsonRow()
                     .Add("zipf_theta", theta)
                     .Add("scheduler", run.scheduler)
                     .Add("avg_leader_queue", r.avg_leader_queue)
                     .Add("max_leader_queue", r.max_leader_queue)
                     .Add("spill_peak", r.spill_peak)
                     .Add("deferred", run.deferred)
                     .Add("readmitted", run.readmitted)
                     .Add("hot_transitions", run.hot_transitions)
                     .Add("injected", r.injected)
                     .Add("committed", r.committed)
                     .Add("aborted", r.aborted)
                     .Add("unresolved", r.unresolved)
                     .Add("avg_latency", r.avg_latency)
                     .Add("p99_latency", r.p99_latency)
                     .Add("max_pending", r.max_pending)
                     .Add("messages", r.messages)
                     .Add("drained", r.drained));
    }
    const auto& [fds, backpressure] = runs;
    SSHARD_CHECK((theta < 1.0 || backpressure.result.max_leader_queue <
                                     fds.result.max_leader_queue) &&
                 "backpressure did not cut the leader-queue peak at "
                 "theta >= 1.0");
  }
  return record.Write();
}

/// Open-loop trace replay: the tracked fixtures (tools/gen_trace.py), three
/// production shapes x Zipf theta {0.8, 1.2} on a 32-shard line, through
/// fds and backpressure. Every replay must offer and inject its whole
/// trace, and on the migrating hot spot backpressure must strictly cut the
/// leader-queue peak.
int Traffic(const std::string& trace_dir) {
  Record record("traffic",
                JsonRow()
                    .Add("bench", "parallel_rounds_traffic")
                    .Add("strategy", "trace_replay")
                    .Add("topology", "line")
                    .Add("bp_high", 48)
                    .Add("bp_low", 12)
                    .Add("workers_1_vs_4_pipeline_on_off_identical", true));
  const struct {
    const char* shape;
    const char* suffix;
    double theta;
  } cells[] = {{"diurnal", "t08", 0.8},   {"diurnal", "t12", 1.2},
               {"flash", "t08", 0.8},     {"flash", "t12", 1.2},
               {"migrating", "t08", 0.8}, {"migrating", "t12", 1.2}};
  for (const auto& cell : cells) {
    const std::string path =
        trace_dir + "/" + cell.shape + "_" + cell.suffix + ".trace";
    traffic::Trace trace;
    std::string error;
    if (!traffic::LoadTraceFile(path, &trace, &error)) {
      std::fprintf(stderr, "invalid trace: %s (file \"%s\")\n", error.c_str(),
                   path.c_str());
      return 2;
    }
    core::SimConfig config =
        DrainedConfig("fds", net::TopologyKind::kLine, trace.shards);
    config.accounts = trace.accounts;
    config.strategy = "trace_replay";
    config.trace = path;
    config.rounds = trace.records.empty() ? 1 : trace.records.back().round + 1;
    config.backpressure_high = 48;
    config.backpressure_low = 12;
    const std::array<Run, 2> runs = FdsVsBackpressure(config);
    for (const Run& run : runs) {
      const core::SimResult& r = run.result;
      record.Add(JsonRow()
                     .Add("shape", cell.shape)
                     .Add("zipf_theta", cell.theta)
                     .Add("scheduler", run.scheduler)
                     .Add("offered", r.offered_txns)
                     .Add("injected", r.injected_txns)
                     .Add("inject_lag_peak", r.inject_lag_peak)
                     .Add("avg_leader_queue", r.avg_leader_queue)
                     .Add("max_leader_queue", r.max_leader_queue)
                     .Add("spill_peak", r.spill_peak)
                     .Add("deferred", run.deferred)
                     .Add("committed", r.committed)
                     .Add("aborted", r.aborted)
                     .Add("avg_latency", r.avg_latency)
                     .Add("p99_latency", r.p99_latency)
                     .Add("drained", r.drained));
      // Arrivals continue through the drain phase until the schedule is
      // exhausted, so every record is offered and every offer injected.
      SSHARD_CHECK(r.offered_txns == trace.records.size() &&
                   r.injected_txns == r.offered_txns &&
                   r.injected == r.offered_txns &&
                   "a replay did not inject its whole trace");
    }
    const auto& [fds, backpressure] = runs;
    SSHARD_CHECK((std::string(cell.shape) != "migrating" ||
                  backpressure.result.max_leader_queue <
                      fds.result.max_leader_queue) &&
                 "backpressure did not cut the leader-queue peak on the "
                 "migrating-skew trace");
  }
  return record.Write();
}

/// Crash/recovery churn: bds (uniform) and fds (line) at s = 64 with the
/// WAL and a checkpoint every 100 rounds, each run fault-free and under a
/// two-event fault plan. The engine itself aborts unless a restored shard
/// is byte-identical to its pre-crash snapshot; on top of that, the churn
/// run must commit exactly the fault-free counts (stall-the-world freezes
/// the protocol clock, so a fault costs wall rounds only), replay a
/// non-empty window, and account every wall round. The crash rounds sit
/// past both schedulers' commit-latency knee (~264 rounds for FDS here):
/// an earlier crash finds nothing to replay.
int Faults() {
  constexpr ShardId kShards = 64;
  constexpr double kRho = 0.2;
  constexpr Round kRounds = 600;
  constexpr Round kCheckpointInterval = 100;
  constexpr const char* kPlan = "5@350+12,23@520+18";
  Record record("recovery",
                JsonRow()
                    .Add("bench", "parallel_rounds_faults")
                    .Add("shards", kShards)
                    .Add("rho", kRho)
                    .Add("rounds", kRounds)
                    .Add("checkpoint_interval", kCheckpointInterval)
                    .Add("faults", kPlan));
  const std::pair<net::TopologyKind, const char*> cells[] = {
      {net::TopologyKind::kUniform, "bds"}, {net::TopologyKind::kLine, "fds"}};
  for (const auto& [topology, scheduler] : cells) {
    core::SimConfig config = DrainedConfig(scheduler, topology, kShards);
    config.rho = kRho;
    config.burstiness = 300;
    config.rounds = kRounds;
    config.wal = true;
    config.checkpoint_interval = kCheckpointInterval;
    const auto add_row = [&](const char* mode, const core::SimResult& r) {
      record.Add(JsonRow()
                     .Add("scheduler", scheduler)
                     .Add("mode", mode)
                     .Add("injected", r.injected)
                     .Add("committed", r.committed)
                     .Add("aborted", r.aborted)
                     .Add("rounds_executed", r.rounds_executed)
                     .Add("recovery_rounds", r.recovery_rounds)
                     .Add("wal_bytes", r.wal_bytes)
                     .Add("checkpoint_count", r.checkpoint_count)
                     .Add("replay_bytes", r.replay_bytes)
                     .Add("avg_latency", r.avg_latency)
                     .Add("p99_latency", r.p99_latency)
                     .Add("drained", r.drained));
      CheckDrained(r);
    };
    const core::SimResult clean = RunChecked(config).result;
    add_row("clean", clean);
    config.faults = kPlan;
    const core::SimResult churn = RunChecked(config).result;
    add_row("churn", churn);
    SSHARD_CHECK(churn.injected == clean.injected &&
                 churn.committed == clean.committed &&
                 churn.aborted == clean.aborted &&
                 "churn changed a protocol count — recovery lost or "
                 "duplicated commits");
    SSHARD_CHECK(churn.recovery_rounds > 0 && churn.replay_bytes > 0 &&
                 "the fault plan never fired — the churn cell is vacuous");
    SSHARD_CHECK(
        churn.rounds_executed ==
            clean.rounds_executed + churn.recovery_rounds &&
        "wall-round accounting broke: churn rounds must be the fault-free "
        "rounds plus the recovery stalls");
  }
  return record.Write();
}

/// max / mean over the top-root leaders' inbound counts (1.0 is perfectly
/// even; 0 without root traffic).
double RootLeaderImbalance(const Run& run) {
  const std::vector<std::uint64_t>& in = run.root_leader_in;
  const std::uint64_t total =
      std::accumulate(in.begin(), in.end(), std::uint64_t{0});
  if (total == 0) return 0;
  const double mean =
      static_cast<double>(total) / static_cast<double>(in.size());
  return static_cast<double>(*std::max_element(in.begin(), in.end())) / mean;
}

/// The single-leader degeneration, drained: fds (one top root) vs
/// fds_multiroot (4 roots) on diameter_span over a 64-shard line. With one
/// root, its leader coordinates every diameter-spanning transaction; the
/// multi-root hierarchy hashes them across the root leaders, and the
/// busiest must stay below 3x the mean root-leader inbound count. With no
/// aborts everything injected commits, so equal counts show the redirect
/// loses and duplicates nothing.
int LeaderShare() {
  core::SimConfig config =
      DrainedConfig("fds", net::TopologyKind::kLine, 64);
  config.k = 4;
  config.rho = 0.1;
  config.burst_round = kNoRound;
  config.strategy = "diameter_span";
  config.abort_probability = 0;
  config.rounds = 120;
  Record record("leadershare",
                JsonRow()
                    .Add("bench", "parallel_rounds_leadershare")
                    .Add("strategy", config.strategy)
                    .Add("topology", "line")
                    .Add("shards", config.shards)
                    .Add("k", config.k)
                    .Add("rho", config.rho)
                    .Add("rounds", config.rounds)
                    .Add("workers_1_vs_4_pipeline_on_off_identical", true));
  std::array<Run, 2> runs;
  const std::pair<const char*, std::uint32_t> cells[] = {{"fds", 1},
                                                         {"fds_multiroot", 4}};
  for (std::size_t i = 0; i < runs.size(); ++i) {
    config.scheduler = cells[i].first;
    config.fds_top_roots = cells[i].second;
    runs[i] = RunChecked(config);
    const Run& run = runs[i];
    const core::SimResult& r = run.result;
    const std::vector<std::uint64_t>& in = run.root_leader_in;
    record.Add(JsonRow()
                   .Add("scheduler", run.scheduler)
                   .Add("top_roots", config.fds_top_roots)
                   .Add("injected", r.injected)
                   .Add("committed", r.committed)
                   .Add("aborted", r.aborted)
                   .Add("drained", r.drained)
                   .Add("messages", r.messages)
                   .Add("root_leaders", in.size())
                   .Add("busiest_root_leader_share",
                        static_cast<double>(
                            *std::max_element(in.begin(), in.end())) /
                            static_cast<double>(r.messages))
                   .Add("root_leader_imbalance", RootLeaderImbalance(run)));
    CheckDrained(r);
    SSHARD_CHECK(r.aborted == 0 && "a leadershare run aborted a transaction");
  }
  SSHARD_CHECK(runs[0].result.committed == runs[1].result.committed &&
               "multi-root hierarchy changed the committed count — the "
               "redirect lost or duplicated admissions");
  SSHARD_CHECK(RootLeaderImbalance(runs[1]) < 3.0 &&
               "busiest top-root leader above 3x the mean root-leader "
               "share — the multi-root spread regressed");
  return record.Write();
}

constexpr const char* kUsage =
    "usage: parallel_rounds MODE... [--trace-dir=tests/traces]\n"
    "  modes: --check --grid --backpressure --traffic --faults "
    "--leadershare\n"
    "  each mode writes its BENCH_<name>.json into the working directory\n";

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!flags.Parse(argc, argv)) {
    std::fprintf(stderr, "%s\n%s", flags.error().c_str(), kUsage);
    return 2;
  }
  const std::string trace_dir = flags.GetString("trace-dir", "tests/traces");
  const std::pair<const char*, std::function<int()>> modes[] = {
      {"check", Check},
      {"grid", Grid},
      {"backpressure", Backpressure},
      {"traffic", [&] { return Traffic(trace_dir); }},
      {"faults", Faults},
      {"leadershare", LeaderShare}};
  std::vector<std::function<int()>> selected;
  for (const auto& [name, mode] : modes) {
    if (flags.GetBool(name, false)) selected.push_back(mode);
  }
  if (!flags.FinishReads()) return 2;
  if (selected.empty() || !flags.UnreadFlags().empty()) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }
  for (const auto& mode : selected) {
    if (const int code = mode(); code != 0) return code;
  }
  return 0;
}
