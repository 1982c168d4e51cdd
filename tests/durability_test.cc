// Durability subsystem tests: WAL record framing and torn-write semantics,
// checkpoint sections and their per-shard damage fallback, the liveness
// state machine, the fault-plan grammar, and the end-to-end crash/recovery
// (churn) goldens — restored state bit-identical, accounting identity
// intact, churn commits exactly the fault-free counts, and everything
// bit-identical across workers 1/4 x pipeline on/off. The *Hammer suites
// run the same churn under larger pools (the TSan CI target).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "chain/account_map.h"
#include "core/commit_ledger.h"
#include "durability/checkpoint.h"
#include "durability/encoding.h"
#include "durability/fault_plan.h"
#include "durability/liveness.h"
#include "durability/recovery.h"
#include "durability/wal.h"
#include "sim_test_util.h"
#include "txn/txn_factory.h"

namespace stableshard::durability {
namespace {

chain::Action Deposit(AccountId account, chain::Balance amount) {
  return chain::Action{account, chain::ActionKind::kDeposit, amount};
}

WalRecord CommitRecord(std::uint64_t seq, TxnId txn, Round round) {
  WalRecord record;
  record.type = WalRecordType::kCommit;
  record.seq = seq;
  record.txn = txn;
  record.round = round;
  record.payload_digest = 0x1234'5678'9abc'def0ULL + seq;
  record.actions = {Deposit(7, 100), {11, chain::ActionKind::kWithdraw, 40}};
  return record;
}

TEST(WalRecordTest, CommitAndAbortRoundtrip) {
  Blob wal;
  const WalRecord commit = CommitRecord(1, 42, 9);
  AppendWalRecord(wal, commit);
  WalRecord abort;
  abort.type = WalRecordType::kAbort;
  abort.seq = 2;
  abort.txn = 43;
  abort.round = 10;
  AppendWalRecord(wal, abort);

  WalReader reader(wal);
  WalRecord out;
  ASSERT_EQ(reader.Next(&out), WalReader::Status::kRecord);
  EXPECT_EQ(out.type, WalRecordType::kCommit);
  EXPECT_EQ(out.seq, 1u);
  EXPECT_EQ(out.txn, 42u);
  EXPECT_EQ(out.round, 9u);
  EXPECT_EQ(out.payload_digest, commit.payload_digest);
  ASSERT_EQ(out.actions.size(), 2u);
  EXPECT_EQ(out.actions[0].account, 7u);
  EXPECT_EQ(out.actions[0].kind, chain::ActionKind::kDeposit);
  EXPECT_EQ(out.actions[0].amount, 100);
  EXPECT_EQ(out.actions[1].kind, chain::ActionKind::kWithdraw);

  ASSERT_EQ(reader.Next(&out), WalReader::Status::kRecord);
  EXPECT_EQ(out.type, WalRecordType::kAbort);
  EXPECT_EQ(out.seq, 2u);
  EXPECT_TRUE(out.actions.empty());
  EXPECT_EQ(out.payload_digest, 0u);
  EXPECT_EQ(reader.Next(&out), WalReader::Status::kEndOfLog);
  EXPECT_EQ(reader.offset(), wal.size());
}

TEST(WalRecordTest, TornTailStopsAtLastCompleteRecord) {
  Blob wal;
  AppendWalRecord(wal, CommitRecord(1, 10, 1));
  AppendWalRecord(wal, CommitRecord(2, 11, 2));
  const std::size_t two_records = wal.size();
  AppendWalRecord(wal, CommitRecord(3, 12, 3));

  // Every possible torn length of the third record — from "frame header
  // cut mid-u32" to "one payload byte missing" — must yield exactly the
  // two complete records and a kTornTail at their boundary. (cut ==
  // two_records would be a clean kEndOfLog: no torn bytes at all.)
  for (std::size_t cut = two_records + 1; cut < wal.size(); ++cut) {
    Blob torn(wal.begin(), wal.begin() + cut);
    WalReader reader(torn);
    WalRecord out;
    EXPECT_EQ(reader.Next(&out), WalReader::Status::kRecord);
    EXPECT_EQ(reader.Next(&out), WalReader::Status::kRecord);
    EXPECT_EQ(out.seq, 2u);
    EXPECT_EQ(reader.Next(&out), WalReader::Status::kTornTail);
    EXPECT_EQ(reader.offset(), two_records);
    // Torn is sticky: re-polling must not advance or reclassify.
    EXPECT_EQ(reader.Next(&out), WalReader::Status::kTornTail);
  }
}

TEST(WalRecordTest, CorruptPayloadDetected) {
  Blob wal;
  AppendWalRecord(wal, CommitRecord(1, 10, 1));
  // Flip one payload byte: the frame is complete, so this is corruption,
  // never a torn tail.
  wal.back() ^= 0x40;
  WalReader reader(wal);
  WalRecord out;
  EXPECT_EQ(reader.Next(&out), WalReader::Status::kCorrupt);
  EXPECT_EQ(reader.offset(), 0u);
}

TEST(WalRecordTest, CorruptChecksumDetected) {
  Blob wal;
  AppendWalRecord(wal, CommitRecord(1, 10, 1));
  // Flip a checksum byte (frame bytes 4..11): payload intact, checksum
  // mismatched — still corruption, not a tail.
  wal[6] ^= 0x01;
  WalReader reader(wal);
  WalRecord out;
  EXPECT_EQ(reader.Next(&out), WalReader::Status::kCorrupt);
}

TEST(WalManagerTest, PartitionedPersistMatchesOnePartition) {
  // The same staged records persisted in one partition and in three
  // partitions applied out of order must produce byte-identical lanes and
  // the same durable sequence numbers.
  MemoryStorage single_storage(5);
  MemoryStorage split_storage(5);
  WalManager single(5, &single_storage);
  WalManager split(5, &split_storage);
  // Staged commits view their actions until FinishSealedRound.
  std::vector<std::vector<chain::Action>> deposits;
  for (ShardId shard = 0; shard < 5; ++shard) {
    deposits.push_back({Deposit(shard, 5)});
  }
  for (WalManager* wal : {&single, &split}) {
    for (ShardId shard = 0; shard < 5; ++shard) {
      wal->StageCommit(shard, /*txn=*/100 + shard, /*round=*/3,
                       /*payload_digest=*/777, deposits[shard]);
      if (shard % 2 == 0) wal->StageAbort(shard, 200 + shard, 3);
    }
  }

  std::vector<ShardId> durable_order;
  split.set_on_durable(
      [&durable_order](ShardId shard, std::uint64_t seq, Round round) {
        durable_order.push_back(shard);
        EXPECT_EQ(round, 3u);
        EXPECT_GE(seq, 1u);
      });

  single.Seal(3, /*parts=*/1);
  single.PersistSealedPartition(0);
  single.FinishSealedRound();
  split.Seal(3, /*parts=*/3);
  split.PersistSealedPartition(2);
  split.PersistSealedPartition(0);
  split.PersistSealedPartition(1);
  split.FinishSealedRound();

  for (ShardId shard = 0; shard < 5; ++shard) {
    EXPECT_EQ(single_storage.wal[shard], split_storage.wal[shard]);
    EXPECT_EQ(single.durable_seq(shard), split.durable_seq(shard));
  }
  EXPECT_EQ(single.records_persisted(), split.records_persisted());
  // Callbacks fire serially in shard order whatever the partition order.
  EXPECT_EQ(durable_order, (std::vector<ShardId>{0, 1, 2, 3, 4}));
}

TEST(WalManagerDeathTest, StageInsideSealedWindowAborts) {
#ifdef NDEBUG
  GTEST_SKIP() << "the sealed-window check compiles out under NDEBUG";
#else
  // The staging lanes have one buffer: a record staged between Seal and
  // FinishSealedRound would land in the lanes being persisted.
  MemoryStorage storage(2);
  WalManager wal(2, &storage);
  wal.StageAbort(0, /*txn=*/1, /*round=*/4);
  wal.Seal(4, /*parts=*/1);
  EXPECT_DEATH(wal.StageAbort(1, /*txn=*/2, /*round=*/4),
               "WAL staged inside a seal");
  const std::vector<chain::Action> deposit = {Deposit(1, 5)};
  EXPECT_DEATH(wal.StageCommit(1, /*txn=*/3, /*round=*/4,
                               /*payload_digest=*/9, deposit),
               "WAL staged inside a seal");
  wal.PersistSealedPartition(0);
  wal.FinishSealedRound();
#endif
}

TEST(CheckpointTest, SectionRoundtrip) {
  std::vector<ShardImage> images(3);
  for (ShardId shard = 0; shard < 3; ++shard) {
    images[shard].shard = shard;
    images[shard].wal_seq = 10 + shard;
    images[shard].last_commit_round = 7;
    images[shard].default_balance = 1000;
    images[shard].balances = {{shard, 900}, {shard + 3, 1100}};
    images[shard].blocks = {{/*txn=*/50 + shard, /*commit_round=*/7,
                             /*payload_digest=*/0xabcdefULL}};
  }
  const Blob blob = EncodeCheckpoint(/*round=*/7, images);
  EXPECT_EQ(CheckpointRound(blob), 7u);

  for (ShardId shard = 0; shard < 3; ++shard) {
    ShardImage out;
    ASSERT_EQ(DecodeCheckpointShard(blob, shard, &out), SectionStatus::kOk);
    EXPECT_EQ(out.shard, shard);
    EXPECT_EQ(out.wal_seq, 10u + shard);
    EXPECT_EQ(out.last_commit_round, 7u);
    EXPECT_EQ(out.balances, images[shard].balances);
    ASSERT_EQ(out.blocks.size(), 1u);
    EXPECT_EQ(out.blocks[0].txn, 50u + shard);
  }
}

TEST(CheckpointTest, LostTrailingPartitionDegradesPerShard) {
  std::vector<ShardImage> images(3);
  for (ShardId shard = 0; shard < 3; ++shard) {
    images[shard].shard = shard;
    images[shard].balances = {{shard, 42}};
  }
  Blob blob = EncodeCheckpoint(/*round=*/5, images);
  // Tear off the last shard's section mid-frame: a checkpoint write that
  // died before the trailing partition hit the medium.
  blob.resize(blob.size() - 9);

  ShardImage out;
  EXPECT_EQ(DecodeCheckpointShard(blob, 0, &out), SectionStatus::kOk);
  EXPECT_EQ(DecodeCheckpointShard(blob, 1, &out), SectionStatus::kOk);
  EXPECT_EQ(DecodeCheckpointShard(blob, 2, &out), SectionStatus::kTruncated);
}

TEST(CheckpointTest, BadMagicAndFlippedSectionAreCorrupt) {
  std::vector<ShardImage> images(2);
  images[0].shard = 0;
  images[1].shard = 1;
  Blob blob = EncodeCheckpoint(/*round=*/5, images);

  Blob bad_magic = blob;
  bad_magic[0] ^= 0xff;
  ShardImage out;
  EXPECT_EQ(DecodeCheckpointShard(bad_magic, 0, &out),
            SectionStatus::kCorrupt);
  EXPECT_EQ(CheckpointRound(bad_magic), kNoRound);

  Blob flipped = blob;
  flipped.back() ^= 0x01;  // inside the last shard's payload
  EXPECT_EQ(DecodeCheckpointShard(flipped, 1, &out), SectionStatus::kCorrupt);
  // Earlier sections are independently framed and stay readable.
  EXPECT_EQ(DecodeCheckpointShard(flipped, 0, &out), SectionStatus::kOk);
}

TEST(LivenessTest, FullCycleAndCounters) {
  LivenessTracker tracker(4);
  EXPECT_TRUE(tracker.AllOnline());
  EXPECT_EQ(tracker.online_count(), 4u);

  tracker.Crash(2);
  EXPECT_FALSE(tracker.AllOnline());
  EXPECT_EQ(tracker.online_count(), 3u);
  EXPECT_EQ(tracker.state(2), ShardLiveness::kCrashed);
  EXPECT_EQ(tracker.state(0), ShardLiveness::kOnline);

  tracker.BeginRecovery(2);
  EXPECT_EQ(tracker.state(2), ShardLiveness::kRecovering);
  tracker.BeginCatchUp(2);
  EXPECT_EQ(tracker.state(2), ShardLiveness::kCatchUp);
  tracker.Rejoin(2);
  EXPECT_TRUE(tracker.AllOnline());
  EXPECT_EQ(tracker.crash_count(), 1u);

  // Rejoin is also legal straight from kRecovering.
  tracker.Crash(0);
  tracker.BeginRecovery(0);
  tracker.Rejoin(0);
  EXPECT_TRUE(tracker.AllOnline());
  EXPECT_EQ(tracker.crash_count(), 2u);

  EXPECT_STREQ(ToString(ShardLiveness::kOnline), "online");
  EXPECT_STREQ(ToString(ShardLiveness::kCrashed), "crashed");
  EXPECT_STREQ(ToString(ShardLiveness::kRecovering), "recovering");
  EXPECT_STREQ(ToString(ShardLiveness::kCatchUp), "catch-up");
}

TEST(LivenessDeathTest, IllegalTransitionsAbort) {
  LivenessTracker tracker(2);
  EXPECT_DEATH(tracker.BeginRecovery(0), "illegal liveness transition");
  EXPECT_DEATH(tracker.Rejoin(0), "illegal liveness transition");
  tracker.Crash(1);
  EXPECT_DEATH(tracker.Crash(1), "illegal liveness transition");
  EXPECT_DEATH(tracker.BeginCatchUp(1), "illegal liveness transition");
}

TEST(FaultPlanTest, ParsesWellFormedSpecs) {
  FaultPlan plan;
  std::string error;
  EXPECT_TRUE(ParseFaultPlan("", &plan, &error));
  EXPECT_TRUE(plan.empty());

  EXPECT_TRUE(ParseFaultPlan("5@50+12,23@110+20", &plan, &error));
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan.events[0].shard, 5u);
  EXPECT_EQ(plan.events[0].crash_round, 50u);
  EXPECT_EQ(plan.events[0].down_rounds, 12u);
  EXPECT_EQ(plan.events[1].shard, 23u);
  EXPECT_EQ(plan.events[1].crash_round, 110u);
  EXPECT_EQ(plan.events[1].down_rounds, 20u);
}

TEST(FaultPlanTest, RejectsMalformedSpecs) {
  FaultPlan plan;
  std::string error;
  const char* bad[] = {
      "banana",       // no shard number
      "5",            // missing '@'
      "5@",           // missing round
      "5@50",         // missing '+'
      "5@50+",        // missing down count
      "5@50+0",       // down must be >= 1
      "5@50+3,4@50+3",  // crash rounds not strictly increasing
      "5@60+3,4@50+3",  // decreasing
      "5@50+3,",      // trailing separator
      "5@50+3;6@60+3",  // wrong separator
      "99999999999999999999@1+1",  // overflow
  };
  for (const char* spec : bad) {
    EXPECT_FALSE(ParseFaultPlan(spec, &plan, &error)) << spec;
    EXPECT_FALSE(error.empty()) << spec;
  }
}

// ---------------------------------------------------------------------------
// Ledger-level recovery: drive a CommitLedger with an attached WAL, crash a
// shard, replay, and compare canonical images.

class RecoveryTest : public ::testing::Test {
 protected:
  RecoveryTest()
      : map_(chain::AccountMap::RoundRobin(4, 8)),
        ledger_(map_, /*initial_balance=*/1000),
        storage_(4),
        wal_(4, &storage_),
        factory_(map_) {
    ledger_.AttachWal(&wal_);
  }

  /// Commit one round's worth of transfers and persist it, as a serial
  /// run's one-partition epilogue does.
  void CommitRound(Round round) {
    const auto txn = factory_.MakeTransfer(
        /*home=*/static_cast<ShardId>(round % 4), /*injected=*/round,
        /*from=*/round % 8, /*to=*/(round + 1) % 8, /*amount=*/10,
        /*min_balance=*/0);
    ledger_.RegisterInjection(txn);
    for (const auto& sub : txn.subs()) {
      ledger_.ApplyConfirmDeferred(txn.id(), sub, /*commit=*/true, round);
    }
    ledger_.SealJournal(round, /*parts=*/1);
    ledger_.ResolveSealedPartition(0, round);
    ledger_.FinishSealedRound(round);
  }

  Blob ImageOf(ShardId shard) {
    Blob blob;
    AppendShardImage(blob,
                     CaptureShardImage(ledger_, shard, wal_.durable_seq(shard)));
    return blob;
  }

  chain::AccountMap map_;
  core::CommitLedger ledger_;
  MemoryStorage storage_;
  WalManager wal_;
  txn::TxnFactory factory_;
};

TEST_F(RecoveryTest, ReplayFromGenesisRestoresBitIdenticalState) {
  for (Round round = 1; round <= 12; ++round) CommitRound(round);
  for (ShardId shard = 0; shard < 4; ++shard) {
    const Blob before = ImageOf(shard);
    const RecoveryStats stats = RecoverShard(ledger_, shard, storage_);
    EXPECT_FALSE(stats.used_checkpoint);
    EXPECT_GT(stats.replayed_records, 0u);
    EXPECT_GT(stats.replayed_bytes, 0u);
    EXPECT_EQ(ImageOf(shard), before);
    EXPECT_TRUE(ledger_.chains()[shard].Verify());
  }
}

TEST_F(RecoveryTest, CheckpointBoundsReplayAndStateStillMatches) {
  for (Round round = 1; round <= 6; ++round) CommitRound(round);
  WriteCheckpoint(ledger_, wal_, storage_, /*round=*/6);
  for (Round round = 7; round <= 12; ++round) CommitRound(round);

  const Blob full_wal_bytes = ImageOf(1);
  RecoveryStats stats = RecoverShard(ledger_, 1, storage_);
  EXPECT_TRUE(stats.used_checkpoint);
  EXPECT_EQ(ImageOf(1), full_wal_bytes);

  // The checkpoint horizon really bounds the window: replaying with the
  // checkpoint must touch strictly fewer bytes than genesis replay.
  storage_.checkpoints.clear();
  const RecoveryStats genesis = RecoverShard(ledger_, 1, storage_);
  EXPECT_GT(genesis.replayed_bytes, stats.replayed_bytes);
  EXPECT_EQ(ImageOf(1), full_wal_bytes);
}

TEST_F(RecoveryTest, DamagedNewestCheckpointFallsBackToOlder) {
  for (Round round = 1; round <= 4; ++round) CommitRound(round);
  WriteCheckpoint(ledger_, wal_, storage_, 4);
  for (Round round = 5; round <= 8; ++round) CommitRound(round);
  WriteCheckpoint(ledger_, wal_, storage_, 8);
  // The newest checkpoint lost its trailing bytes — every shard section
  // past the tear degrades to the older checkpoint, transparently.
  storage_.checkpoints.back().resize(storage_.checkpoints.back().size() / 4);

  const Blob before = ImageOf(3);
  const RecoveryStats stats = RecoverShard(ledger_, 3, storage_);
  EXPECT_TRUE(stats.used_checkpoint);
  EXPECT_EQ(ImageOf(3), before);
  EXPECT_TRUE(ledger_.chains()[3].Verify());
}

TEST_F(RecoveryTest, TornWalTailReplaysTheConsistentPrefix) {
  for (Round round = 1; round <= 8; ++round) CommitRound(round);
  // Ledger state includes the torn suffix, so capture the oracle by
  // replaying the untorn log into a twin ledger first.
  Blob& lane = storage_.wal[2];
  ASSERT_GT(lane.size(), 6u);
  lane.resize(lane.size() - 5);  // tear the final record mid-frame

  const RecoveryStats stats = RecoverShard(ledger_, 2, storage_);
  // The replayed prefix must itself be a fully consistent shard state:
  // the chain verifies even though the tail was lost.
  EXPECT_GT(stats.replayed_records, 0u);
  EXPECT_TRUE(ledger_.chains()[2].Verify());
  // And a second recovery over the same torn log is a fixed point.
  const Blob once = ImageOf(2);
  RecoverShard(ledger_, 2, storage_);
  EXPECT_EQ(ImageOf(2), once);
}

using RecoveryDeathTest = RecoveryTest;

TEST_F(RecoveryDeathTest, CorruptWalRecordIsUnrecoverable) {
  for (Round round = 1; round <= 4; ++round) CommitRound(round);
  Blob& lane = storage_.wal[1];
  ASSERT_FALSE(lane.empty());
  lane.back() ^= 0x20;  // complete frame, flipped payload bit
  EXPECT_DEATH(RecoverShard(ledger_, 1, storage_),
               "unrecoverable corruption");
}

TEST_F(RecoveryDeathTest, AttachWalTwiceAborts) {
  EXPECT_DEATH(ledger_.AttachWal(&wal_), "already");
}

}  // namespace
}  // namespace stableshard::durability

// ---------------------------------------------------------------------------
// Engine-level churn goldens (full simulations; the `sim` ctest label).

namespace stableshard {
namespace {

/// Durability-enabled variant of test::SmallConfig: WAL + checkpoint
/// cadence on. Fault specs are added per test.
/// SmallConfig with the sharded-leader and multi-root modes at a
/// non-trivial fan-out (at knob value 1 they are "bds"/"fds" bit for bit).
/// WAL-on and WAL-off runs both start here: backpressure's hierarchy reads
/// fds_top_roots too, so a knob set on one side only would compare two
/// different workloads.
core::SimConfig KnobConfig(const std::string& scheduler) {
  core::SimConfig config = test::SmallConfig(scheduler);
  if (scheduler == "bds_sharded") config.bds_color_leaders = 4;
  if (scheduler == "fds_multiroot") config.fds_top_roots = 3;
  return config;
}

core::SimConfig DurableConfig(const std::string& scheduler) {
  core::SimConfig config = KnobConfig(scheduler);
  config.wal = true;
  config.checkpoint_interval = 200;
  return config;
}

/// The two-event churn schedule used by the goldens. Crash rounds sit past
/// the commit-latency knee of both schedulers on the SmallConfig grid AND
/// off the checkpoint cadence (a crash at a multiple of
/// checkpoint_interval finds an image taken at that very boundary, so the
/// replay window is empty and the vacuity assertions below would trip).
const char* kChurnPlan = "3@850+10,11@1250+15";

class ChurnGoldenTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ChurnGoldenTest, RecoveryPreservesEveryProtocolOutcome) {
  const std::string scheduler = GetParam();
  const bool same_round = scheduler.rfind("bds", 0) == 0;

  core::SimConfig fault_free = DurableConfig(scheduler);
  core::SimConfig churn = fault_free;
  churn.faults = kChurnPlan;

  // Fault-free WAL-on baseline (serial).
  core::Simulation clean_sim(fault_free);
  const core::SimResult clean = clean_sim.Run();
  test::ExpectDrainedRunInvariants(clean_sim, clean, same_round);

  // Churn run: the engine SSHARD_CHECKs the restored image bit-identical
  // to the pre-crash snapshot and re-verifies the chain inside
  // ExecuteFault — reaching the end of Run() already proves the
  // bit-identity golden. On top: the run must drain with every invariant,
  // commit exactly the fault-free counts, and account every wall round.
  core::Simulation churn_sim(churn);
  const core::SimResult faulted = churn_sim.Run();
  test::ExpectDrainedRunInvariants(churn_sim, faulted, same_round);
  EXPECT_TRUE(churn_sim.liveness().AllOnline());
  EXPECT_EQ(churn_sim.liveness().crash_count(), 2u);

  EXPECT_EQ(faulted.injected, clean.injected);
  EXPECT_EQ(faulted.committed, clean.committed);
  EXPECT_EQ(faulted.aborted, clean.aborted);
  EXPECT_DOUBLE_EQ(faulted.avg_latency, clean.avg_latency);
  EXPECT_DOUBLE_EQ(faulted.p99_latency, clean.p99_latency);
  EXPECT_GT(faulted.recovery_rounds, 0u);
  EXPECT_GT(faulted.replay_bytes, 0u);
  EXPECT_GT(faulted.checkpoint_count, 0u);
  EXPECT_EQ(faulted.rounds_executed,
            clean.rounds_executed + faulted.recovery_rounds);
}

TEST_P(ChurnGoldenTest, WalIsTransparentWithoutFaults) {
  // WAL on, no faults: the protocol outcome must not move a bit relative
  // to the WAL-off run of the same config.
  core::SimConfig off = KnobConfig(GetParam());
  const core::SimResult without = test::RunWithWorkers(off, 1);
  const core::SimResult with =
      test::RunWithWorkers(DurableConfig(GetParam()), 1);
  test::ExpectBitIdenticalProtocol(without, with);
  EXPECT_EQ(without.wal_bytes, 0u);
  EXPECT_GT(with.wal_bytes, 0u);
  EXPECT_GT(with.checkpoint_count, 0u);
}

TEST_P(ChurnGoldenTest, ChurnIsBitIdenticalAcrossWorkersAndPipeline) {
  core::SimConfig churn = DurableConfig(GetParam());
  churn.faults = kChurnPlan;
  const core::SimResult serial = test::RunWithWorkers(churn, 1);
  EXPECT_GT(serial.replay_bytes, 0u);

  core::SimConfig pipelined = churn;
  pipelined.pipeline = true;
  test::ExpectBitIdenticalResults(serial,
                                  test::RunWithWorkers(pipelined, 4));
  core::SimConfig unpipelined = churn;
  unpipelined.pipeline = false;
  test::ExpectBitIdenticalResults(serial,
                                  test::RunWithWorkers(unpipelined, 4));
}

// Every in-tree scheduler, named here rather than read from the registry:
// the registry fills during static initialization, in an order this
// translation unit cannot rely on.
INSTANTIATE_TEST_SUITE_P(Schedulers, ChurnGoldenTest,
                         ::testing::Values("bds", "fds", "direct",
                                           "backpressure", "bds_sharded",
                                           "fds_multiroot"));

/// The TSan CI target: the same churn under larger pools, both epilogues.
/// Any data race between the crash/replay machinery (serial, between
/// rounds) and the pooled step/flush/persist paths shows up here.
class DurabilityChurnHammer : public ::testing::TestWithParam<const char*> {};

TEST_P(DurabilityChurnHammer, PooledChurnMatchesSerial) {
  core::SimConfig churn = DurableConfig(GetParam());
  churn.faults = kChurnPlan;
  const core::SimResult serial = test::RunWithWorkers(churn, 1);
  for (const std::uint32_t workers : {4u, 8u}) {
    for (const bool pipeline : {true, false}) {
      core::SimConfig config = churn;
      config.pipeline = pipeline;
      test::ExpectBitIdenticalResults(
          serial, test::RunWithWorkers(config, workers));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Schedulers, DurabilityChurnHammer,
                         ::testing::Values("bds", "fds"));

}  // namespace
}  // namespace stableshard
