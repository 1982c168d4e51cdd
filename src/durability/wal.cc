#include "durability/wal.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/shard_range.h"

namespace stableshard::durability {

namespace {

void EncodePayload(Blob& out, const WalRecordView& record) {
  AppendU8(out, static_cast<std::uint8_t>(record.type));
  AppendU64(out, record.seq);
  AppendU64(out, record.txn);
  AppendU64(out, record.round);
  if (record.type == WalRecordType::kCommit) {
    AppendU64(out, record.payload_digest);
    AppendU32(out, static_cast<std::uint32_t>(record.actions.size()));
    for (const chain::Action& action : record.actions) {
      AppendU64(out, action.account);
      AppendU8(out, static_cast<std::uint8_t>(action.kind));
      AppendI64(out, action.amount);
    }
  }
}

/// Overwrite `bytes` bytes at `out` with `value`, least significant first
/// (the Append* byte order).
void StoreLittleEndian(std::uint8_t* out, std::uint64_t value, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out[i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
}

bool DecodePayload(const std::uint8_t* data, std::size_t size,
                   WalRecord* out) {
  ByteReader reader(data, size);
  std::uint8_t type = 0;
  if (!reader.ReadU8(&type)) return false;
  if (type != static_cast<std::uint8_t>(WalRecordType::kCommit) &&
      type != static_cast<std::uint8_t>(WalRecordType::kAbort)) {
    return false;
  }
  out->type = static_cast<WalRecordType>(type);
  if (!reader.ReadU64(&out->seq)) return false;
  if (!reader.ReadU64(&out->txn)) return false;
  if (!reader.ReadU64(&out->round)) return false;
  out->payload_digest = 0;
  out->actions.clear();
  if (out->type == WalRecordType::kCommit) {
    if (!reader.ReadU64(&out->payload_digest)) return false;
    std::uint32_t n_actions = 0;
    if (!reader.ReadU32(&n_actions)) return false;
    out->actions.reserve(n_actions);
    for (std::uint32_t i = 0; i < n_actions; ++i) {
      chain::Action action;
      std::uint8_t kind = 0;
      if (!reader.ReadU64(&action.account)) return false;
      if (!reader.ReadU8(&kind)) return false;
      if (!reader.ReadI64(&action.amount)) return false;
      action.kind = static_cast<chain::ActionKind>(kind);
      out->actions.push_back(action);
    }
  }
  // Every payload byte must belong to the record: trailing garbage inside
  // a checksummed frame is corruption, not a tail.
  return reader.remaining() == 0;
}

}  // namespace

void AppendWalRecord(Blob& wal, const WalRecordView& record) {
  // Encode the payload in place after a placeholder frame header, then
  // back-patch the header: the lane's own capacity absorbs the record, so
  // steady state allocates nothing per record (persist partitions encode
  // concurrently into their own lanes, so no shared scratch buffer).
  const std::size_t header = wal.size();
  AppendU32(wal, 0);
  AppendU64(wal, 0);
  const std::size_t payload = wal.size();
  EncodePayload(wal, record);
  const std::size_t size = wal.size() - payload;
  StoreLittleEndian(wal.data() + header, size, 4);
  StoreLittleEndian(wal.data() + header + 4,
                    Fnv1a(wal.data() + payload, size), 8);
}

void AppendWalRecord(Blob& wal, const WalRecord& record) {
  AppendWalRecord(wal, WalRecordView{record.type, record.seq, record.txn,
                                     record.round, record.payload_digest,
                                     record.actions});
}

WalReader::Status WalReader::Next(WalRecord* out) {
  if (reader_.remaining() == 0) return Status::kEndOfLog;
  // Frame header (u32 size + u64 checksum) or body cut short: a torn
  // final write — the prefix before it is still fully valid. Probe on a
  // copy so `offset()` keeps pointing at the last complete record.
  ByteReader probe = reader_;
  std::uint32_t size = 0;
  std::uint64_t checksum = 0;
  if (!probe.ReadU32(&size)) return Status::kTornTail;
  if (!probe.ReadU64(&checksum)) return Status::kTornTail;
  const std::uint8_t* payload = probe.ReadSpan(size);
  if (payload == nullptr) return Status::kTornTail;
  // The frame is complete: checksum or decode failure now means flipped
  // bits, not a tail.
  if (Fnv1a(payload, size) != checksum) return Status::kCorrupt;
  if (!DecodePayload(payload, size, out)) return Status::kCorrupt;
  reader_ = probe;
  return Status::kRecord;
}

WalManager::WalManager(ShardId shards, MemoryStorage* storage)
    : storage_(storage),
      staging_(shards),
      next_seq_(shards, 0),
      durable_seq_(shards, 0),
      records_by_shard_(shards, 0) {
  SSHARD_CHECK(storage != nullptr);
  SSHARD_CHECK(storage->wal.size() == shards &&
               "storage shard count mismatch");
}

void WalManager::StageCommit(ShardId dest, TxnId txn, Round round,
                             std::uint64_t payload_digest,
                             std::span<const chain::Action> actions) {
  SSHARD_DCHECK(sealed_round_ == kNoRound && "WAL staged inside a seal");
  staging_[dest].push_back(WalRecordView{WalRecordType::kCommit,
                                         ++next_seq_[dest], txn, round,
                                         payload_digest, actions});
}

void WalManager::StageAbort(ShardId dest, TxnId txn, Round round) {
  SSHARD_DCHECK(sealed_round_ == kNoRound && "WAL staged inside a seal");
  staging_[dest].push_back(WalRecordView{WalRecordType::kAbort,
                                         ++next_seq_[dest], txn, round,
                                         /*payload_digest=*/0, {}});
}

void WalManager::Seal(Round round, std::uint32_t parts) {
  SSHARD_CHECK(parts >= 1);
  SSHARD_CHECK(sealed_round_ == kNoRound && "sealing over an open seal");
  sealed_round_ = round;
  sealed_parts_ = parts;
}

void WalManager::PersistSealedPartition(std::uint32_t part) {
  SSHARD_DCHECK(part < sealed_parts_);
  const auto [begin, end] = FlushShardRange(shard_count(), part, sealed_parts_);
  for (ShardId shard = begin; shard < end; ++shard) {
    for (const WalRecordView& record : staging_[shard]) {
      AppendWalRecord(storage_->wal[shard], record);
    }
    records_by_shard_[shard] += staging_[shard].size();
  }
}

void WalManager::FinishSealedRound() {
  SSHARD_CHECK(sealed_round_ != kNoRound && "finish without a seal");
  const Round round = sealed_round_;
  for (ShardId shard = 0; shard < shard_count(); ++shard) {
    std::vector<WalRecordView>& lane = staging_[shard];
    if (lane.empty()) continue;
    durable_seq_[shard] = lane.back().seq;
    if (on_durable_) on_durable_(shard, durable_seq_[shard], round);
    lane.clear();
  }
  sealed_round_ = kNoRound;
  sealed_parts_ = 0;
}

std::uint64_t WalManager::records_persisted() const {
  std::uint64_t total = 0;
  for (const std::uint64_t count : records_by_shard_) total += count;
  return total;
}

}  // namespace stableshard::durability
