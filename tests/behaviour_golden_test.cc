// Behaviour goldens: every SimResult field and a fold of every shard's
// local chain, pinned for a fixed set of small simulations that together
// reach every registered scheduler and the knobs that change what a
// scheduler does with the injected stream.
//
// Every other determinism check compares two runs of one binary (workers 1
// vs N, WAL on vs off), so a change that moves one commit round on both
// sides passes them all. These constants were recorded once, at a build
// before the change that added this file, and must never be edited to make
// a change pass: a refactor is behaviour-preserving only if it reproduces
// them exactly. A change that alters behaviour on purpose rewrites the
// moved rows (a failing row prints its replacement; SSHARD_PRINT_GOLDENS=1
// prints them all) and names each moved row and why in CHANGES.md.
//
// Each config runs at 1 and at 3 workers against the same row, so the
// table is also a cross-worker check. Floating-point inputs keep the
// constants independent of the host's libm: hot_destination runs at
// theta = 1, where std::pow is exact, and everything else is integer or
// IEEE basic arithmetic.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/config.h"
#include "core/engine.h"
#include "core/scheduler_registry.h"

namespace stableshard {
namespace {

// A new SimResult field must be added to Fields() below (and the table
// regenerated) before this assertion may be updated.
static_assert(sizeof(core::SimResult) == 200,
              "SimResult changed: pin the new field in Fields()");

constexpr std::size_t kFieldCount = 25;

constexpr std::array<const char*, kFieldCount> kFieldNames = {
    "avg_pending_per_shard", "avg_latency",      "max_latency",
    "p50_latency",           "p99_latency",      "avg_leader_queue",
    "max_leader_queue",      "max_single_leader_queue",
    "injected",              "committed",        "aborted",
    "unresolved",            "max_pending",      "spill_peak",
    "messages",              "payload_units",    "offered_txns",
    "injected_txns",         "inject_lag_peak",  "wal_bytes",
    "checkpoint_count",      "replay_bytes",     "recovery_rounds",
    "rounds_executed",       "drained"};

using Fields = std::array<std::uint64_t, kFieldCount>;

/// Every SimResult field; doubles as their IEEE bit patterns.
Fields FieldsOf(const core::SimResult& r) {
  const auto bits = [](double value) {
    return std::bit_cast<std::uint64_t>(value);
  };
  return {bits(r.avg_pending_per_shard),
          bits(r.avg_latency),
          bits(r.max_latency),
          bits(r.p50_latency),
          bits(r.p99_latency),
          bits(r.avg_leader_queue),
          bits(r.max_leader_queue),
          bits(r.max_single_leader_queue),
          r.injected,
          r.committed,
          r.aborted,
          r.unresolved,
          r.max_pending,
          r.spill_peak,
          r.messages,
          r.payload_units,
          r.offered_txns,
          r.injected_txns,
          r.inject_lag_peak,
          r.wal_bytes,
          r.checkpoint_count,
          r.replay_bytes,
          r.recovery_rounds,
          r.rounds_executed,
          r.drained ? 1u : 0u};
}

std::uint64_t Fold(std::uint64_t hash, std::uint64_t value) {
  return Mix64(hash ^ Mix64(value));
}

/// Each shard's chain length and head hash, in shard order. A block's hash
/// chains its txn, shard, commit round and body digest onto its parent's,
/// so the head pins every commit of the shard, in order.
std::uint64_t ChainFold(const core::Simulation& sim) {
  std::uint64_t hash = 0;
  for (const chain::LocalChain& chain : sim.ledger().chains()) {
    hash = Fold(hash, chain.size());
    hash = Fold(hash, chain.empty() ? 0 : chain.back().hash);
  }
  return hash;
}

struct Case {
  std::string label;
  core::SimConfig config;
};

core::SimConfig Base(const std::string& scheduler,
                     net::TopologyKind topology) {
  core::SimConfig config;
  config.scheduler = scheduler;
  config.topology = topology;
  config.shards = 16;
  config.accounts = 32;
  config.k = 4;
  config.rho = 0.2;
  config.burstiness = 40;
  config.rounds = 600;
  config.drain_cap = 60000;
  config.seed = 7;
  return config;
}

bool IsBds(const std::string& scheduler) {
  return scheduler.rfind("bds", 0) == 0;
}

std::vector<Case> Cases() {
  std::vector<Case> cases;
  // Every registered scheduler at its default knobs, on uniform and on line
  // (BDS is specified for the uniform model only).
  for (const std::string& name : core::SchedulerRegistry::Global().Names()) {
    cases.push_back(
        {name + "/uniform", Base(name, net::TopologyKind::kUniform)});
    if (!IsBds(name)) {
      cases.push_back({name + "/line", Base(name, net::TopologyKind::kLine)});
    }
  }
  core::SimConfig bds_l4 = Base("bds_sharded", net::TopologyKind::kUniform);
  bds_l4.bds_color_leaders = 4;
  cases.push_back({"bds_sharded/L4", bds_l4});

  core::SimConfig multiroot =
      Base("fds_multiroot", net::TopologyKind::kLine);
  multiroot.fds_top_roots = 3;
  multiroot.strategy = "diameter_span";
  cases.push_back({"fds_multiroot/roots3", multiroot});

  core::SimConfig pinned = Base("fds", net::TopologyKind::kLine);
  pinned.fds_pipelined = false;
  cases.push_back({"fds/pinned", pinned});

  core::SimConfig backpressure = Base("backpressure", net::TopologyKind::kLine);
  backpressure.strategy = "hot_destination";
  backpressure.zipf_theta = 1.0;
  backpressure.rho = 0.35;
  backpressure.backpressure_high = 6;
  backpressure.backpressure_low = 2;
  cases.push_back({"backpressure/hot_destination", backpressure});

  core::SimConfig bds_abort = Base("bds", net::TopologyKind::kUniform);
  bds_abort.abort_probability = 0.25;
  cases.push_back({"bds/abort", bds_abort});

  core::SimConfig fds_abort = Base("fds", net::TopologyKind::kLine);
  fds_abort.abort_probability = 0.25;
  cases.push_back({"fds/abort", fds_abort});

  core::SimConfig open_loop = Base("fds", net::TopologyKind::kLine);
  open_loop.strategy = "local";
  open_loop.local_radius = 3;
  open_loop.rounds = 400;
  open_loop.arrival_rate = 1.7;
  open_loop.arrival_burst = 12;
  open_loop.burst_round = 150;
  cases.push_back({"fds/open_loop", open_loop});

  core::SimConfig churn = open_loop;
  churn.wal = true;
  churn.checkpoint_interval = 100;
  churn.faults = "3@120+8,9@250+5";
  cases.push_back({"fds/churn_wal", churn});
  return cases;
}

struct Golden {
  const char* label;
  std::uint64_t chain_fold;
  Fields fields;
};

// Recorded at the parent build; see the file comment before editing.
const Golden kGoldens[] = {
    {"backpressure/uniform", 0x68a3944d191d244aULL,
     {4614767803030745995ULL, 4634186392450453600ULL, 4636244710145392640ULL,
      4632233691727265792ULL, 4636666922610458624ULL, 4619044886424944291ULL,
      4630826316843712512ULL, 4630826316843712512ULL, 551ULL, 551ULL, 0ULL,
      0ULL, 74ULL, 0ULL, 6424ULL, 6746ULL, 551ULL, 551ULL, 0ULL, 0ULL, 0ULL,
      0ULL, 0ULL, 653ULL, 1ULL}},
    {"backpressure/line", 0xe1ed432808c29905ULL,
     {4616635003022947399ULL, 4636382893414358581ULL, 4649245335632216064ULL,
      4633013990301816501ULL, 4648560706391987542ULL, 4616522249991522025ULL,
      4626181979727986688ULL, 4630685579355357184ULL, 551ULL, 551ULL, 0ULL,
      0ULL, 98ULL, 25ULL, 6429ULL, 6746ULL, 551ULL, 551ULL, 0ULL, 0ULL, 0ULL,
      0ULL, 0ULL, 744ULL, 1ULL}},
    {"bds/uniform", 0xe6e95ee7dc8b5c8aULL,
     {4619189346251890060ULL, 4640182167045105090ULL, 4646659284283686912ULL,
      4640000520260902799ULL, 4645725798911705089ULL, 0ULL, 0ULL,
      4625196817309499392ULL, 551ULL, 551ULL, 0ULL, 0ULL, 179ULL, 0ULL,
      6435ULL, 7377ULL, 551ULL, 551ULL, 0ULL, 0ULL, 0ULL, 0ULL, 0ULL, 878ULL,
      1ULL}},
    {"bds_sharded/uniform", 0xe6e95ee7dc8b5c8aULL,
     {4619189346251890060ULL, 4640182167045105090ULL, 4646659284283686912ULL,
      4640000520260902799ULL, 4645725798911705089ULL, 0ULL, 0ULL,
      4625196817309499392ULL, 551ULL, 551ULL, 0ULL, 0ULL, 179ULL, 0ULL,
      6435ULL, 7377ULL, 551ULL, 551ULL, 0ULL, 0ULL, 0ULL, 0ULL, 0ULL, 878ULL,
      1ULL}},
    {"direct/uniform", 0x49717d9a99a4650aULL,
     {4618174086485475898ULL, 4638949373056816537ULL, 4641487181586628608ULL,
      4638943230799424747ULL, 4643639082915275923ULL, 0ULL, 0ULL, 0ULL,
      551ULL, 551ULL, 0ULL, 0ULL, 148ULL, 0ULL, 6195ULL, 6195ULL, 551ULL,
      551ULL, 0ULL, 0ULL, 0ULL, 0ULL, 0ULL, 806ULL, 1ULL}},
    {"direct/line", 0x7711035c370169afULL,
     {4625360053440864787ULL, 4657722697993338492ULL, 4661779768188862464ULL,
      4657845915495884986ULL, 4661717783220846592ULL, 0ULL, 0ULL, 0ULL,
      551ULL, 551ULL, 0ULL, 0ULL, 503ULL, 0ULL, 6240ULL, 6240ULL, 551ULL,
      551ULL, 0ULL, 0ULL, 0ULL, 0ULL, 0ULL, 5199ULL, 1ULL}},
    {"fds/uniform", 0x68a3944d191d244aULL,
     {4614767803030745995ULL, 4634186392450453600ULL, 4636244710145392640ULL,
      4632233691727265792ULL, 4636666922610458624ULL, 4619044886424944291ULL,
      4630826316843712512ULL, 4630826316843712512ULL, 551ULL, 551ULL, 0ULL,
      0ULL, 74ULL, 0ULL, 6424ULL, 6746ULL, 551ULL, 551ULL, 0ULL, 0ULL, 0ULL,
      0ULL, 0ULL, 653ULL, 1ULL}},
    {"fds/line", 0x4783c600c7707b81ULL,
     {4616152074075003406ULL, 4635161976546230690ULL, 4638777984935788544ULL,
      4632710999100563900ULL, 4640686988438551173ULL, 4617110337465484267ULL,
      4626181979727986688ULL, 4630685579355357184ULL, 551ULL, 551ULL, 0ULL,
      0ULL, 84ULL, 0ULL, 6452ULL, 6758ULL, 551ULL, 551ULL, 0ULL, 0ULL, 0ULL,
      0ULL, 0ULL, 671ULL, 1ULL}},
    {"fds_multiroot/uniform", 0x68a3944d191d244aULL,
     {4614767803030745995ULL, 4634186392450453600ULL, 4636244710145392640ULL,
      4632233691727265792ULL, 4636666922610458624ULL, 4619044886424944291ULL,
      4630826316843712512ULL, 4630826316843712512ULL, 551ULL, 551ULL, 0ULL,
      0ULL, 74ULL, 0ULL, 6424ULL, 6746ULL, 551ULL, 551ULL, 0ULL, 0ULL, 0ULL,
      0ULL, 0ULL, 653ULL, 1ULL}},
    {"fds_multiroot/line", 0x4783c600c7707b81ULL,
     {4616152074075003406ULL, 4635161976546230690ULL, 4638777984935788544ULL,
      4632710999100563900ULL, 4640686988438551173ULL, 4617110337465484267ULL,
      4626181979727986688ULL, 4630685579355357184ULL, 551ULL, 551ULL, 0ULL,
      0ULL, 84ULL, 0ULL, 6452ULL, 6758ULL, 551ULL, 551ULL, 0ULL, 0ULL, 0ULL,
      0ULL, 0ULL, 671ULL, 1ULL}},
    {"bds_sharded/L4", 0xe6e95ee7dc8b5c8aULL,
     {4619189346251890060ULL, 4640182167045105090ULL, 4646659284283686912ULL,
      4640000520260902799ULL, 4645725798911705089ULL, 0ULL, 0ULL,
      4631530004285489152ULL, 551ULL, 551ULL, 0ULL, 0ULL, 179ULL, 0ULL,
      6572ULL, 7377ULL, 551ULL, 551ULL, 0ULL, 0ULL, 0ULL, 0ULL, 0ULL, 878ULL,
      1ULL}},
    {"fds_multiroot/roots3", 0x983c913c1bbd7560ULL,
     {4608291860649751014ULL, 4635587050058298250ULL, 4638496509959077888ULL,
      4633484691623757597ULL, 4641007794516918272ULL, 4613102818010311301ULL,
      4623695617433709227ULL, 4625196817309499392ULL, 159ULL, 159ULL, 0ULL,
      0ULL, 51ULL, 0ULL, 1973ULL, 2036ULL, 159ULL, 159ULL, 0ULL, 0ULL, 0ULL,
      0ULL, 0ULL, 667ULL, 1ULL}},
    {"fds/pinned", 0x563e2907669caa12ULL,
     {4624367866214135855ULL, 4658666577840944792ULL, 4663712709630492672ULL,
      4658611289823791397ULL, 4663593742472367309ULL, 4629851435171916056ULL,
      4634616176351566702ULL, 4647257418609197056ULL, 551ULL, 551ULL, 0ULL,
      0ULL, 495ULL, 0ULL, 84710ULL, 85016ULL, 551ULL, 551ULL, 0ULL, 0ULL,
      0ULL, 0ULL, 0ULL, 6951ULL, 1ULL}},
    {"backpressure/hot_destination", 0xced69c572217459bULL,
     {4618331230251552543ULL, 4635958692376336339ULL, 4649482830143815680ULL,
      4634220035465353999ULL, 4644161193865379880ULL, 4619899387626842943ULL,
      4625548661030387712ULL, 4633922541587529728ULL, 790ULL, 790ULL, 0ULL,
      0ULL, 144ULL, 31ULL, 9185ULL, 9719ULL, 790ULL, 790ULL, 0ULL, 0ULL, 0ULL,
      0ULL, 0ULL, 744ULL, 1ULL}},
    {"bds/abort", 0x5fa970260218a72dULL,
     {4619489588622234859ULL, 4640364729875961659ULL, 4646694468655775744ULL,
      4640052965017151889ULL, 4646426676490432969ULL, 0ULL, 0ULL,
      4625759767262920704ULL, 551ULL, 402ULL, 149ULL, 0ULL, 189ULL, 0ULL,
      6430ULL, 7374ULL, 551ULL, 551ULL, 0ULL, 0ULL, 0ULL, 0ULL, 0ULL, 870ULL,
      1ULL}},
    {"fds/abort", 0x8d6b05b4aeef29c9ULL,
     {4615512266220832690ULL, 4634749725536783327ULL, 4638144666238189568ULL,
      4632417148415997133ULL, 4639856134623367756ULL, 4617042077100992094ULL,
      4623320317464761685ULL, 4630544841867001856ULL, 551ULL, 402ULL, 149ULL,
      0ULL, 73ULL, 0ULL, 6440ULL, 6743ULL, 551ULL, 551ULL, 0ULL, 0ULL, 0ULL,
      0ULL, 0ULL, 668ULL, 1ULL}},
    {"fds/open_loop", 0x0bd4a028d6a55189ULL,
     {4616075921830541213ULL, 4631117201594353907ULL, 4638426141214900224ULL,
      4632306023769739162ULL, 4636857923487512288ULL, 4611970012182742309ULL,
      4617315517961601024ULL, 4627730092099895296ULL, 688ULL, 688ULL, 0ULL,
      0ULL, 86ULL, 0ULL, 7222ULL, 7587ULL, 688ULL, 688ULL, 0ULL, 0ULL, 0ULL,
      0ULL, 0ULL, 458ULL, 1ULL}},
    {"fds/churn_wal", 0xa12dbd94622fd7b3ULL,
     {4616106481985687751ULL, 4631098791167098120ULL, 4639024275540410368ULL,
      4632264510155372798ULL, 4636697432854284560ULL, 4612010637442120127ULL,
      4618066117899496107ULL, 4627448617123184640ULL, 688ULL, 688ULL, 0ULL,
      0ULL, 99ULL, 0ULL, 7211ULL, 7583ULL, 688ULL, 688ULL, 17ULL, 159288ULL,
      4ULL, 1667ULL, 17ULL, 474ULL, 1ULL}},
};

const Golden* FindGolden(const std::string& label) {
  for (const Golden& golden : kGoldens) {
    if (label == golden.label) return &golden;
  }
  return nullptr;
}

std::string Row(const std::string& label, std::uint64_t chain_fold,
                const Fields& fields) {
  std::string row = "{\"" + label + "\", ";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "0x%016llxULL",
                static_cast<unsigned long long>(chain_fold));
  row += buffer;
  row += ", {";
  for (std::size_t i = 0; i < kFieldCount; ++i) {
    std::snprintf(buffer, sizeof(buffer), "%s%lluULL", i == 0 ? "" : ", ",
                  static_cast<unsigned long long>(fields[i]));
    row += buffer;
  }
  row += "}},";
  return row;
}

TEST(BehaviourGolden, EveryRegisteredSchedulerIsPinned) {
  std::set<std::string> pinned;
  for (const Case& c : Cases()) pinned.insert(c.config.scheduler);
  for (const std::string& name : core::SchedulerRegistry::Global().Names()) {
    EXPECT_EQ(pinned.count(name), 1u) << name << " has no behaviour golden";
  }
}

TEST(BehaviourGolden, ResultsAndChainsMatchTheRecordedRun) {
  const bool print = std::getenv("SSHARD_PRINT_GOLDENS") != nullptr;
  for (const Case& c : Cases()) {
    for (const std::uint32_t workers : {1u, 3u}) {
      SCOPED_TRACE(c.label + " workers=" + std::to_string(workers));
      core::SimConfig config = c.config;
      config.worker_threads = workers;
      config.min_shards_per_worker = 1;  // force the pool at s = 16
      core::Simulation sim(config);
      const core::SimResult result = sim.Run();
      const Fields fields = FieldsOf(result);
      const std::uint64_t chain_fold = ChainFold(sim);
      const std::string row = Row(c.label, chain_fold, fields);
      if (print && workers == 1) std::printf("%s\n", row.c_str());
      const Golden* golden = FindGolden(c.label);
      if (golden == nullptr) {
        ADD_FAILURE() << "no golden row; this run's row:\n" << row;
        continue;
      }
      bool equal = golden->chain_fold == chain_fold;
      EXPECT_EQ(golden->chain_fold, chain_fold) << "chain fold";
      for (std::size_t i = 0; i < kFieldCount; ++i) {
        EXPECT_EQ(golden->fields[i], fields[i]) << kFieldNames[i];
        equal = equal && golden->fields[i] == fields[i];
      }
      if (!equal) ADD_FAILURE() << "this run's row:\n" << row;
    }
  }
}

}  // namespace
}  // namespace stableshard
