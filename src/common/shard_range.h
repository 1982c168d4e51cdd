// Partition-to-shard-range map of the round epilogue's partitioned flush.
//
// The epilogue drains per-destination state in `parts` partitions, each
// owning one contiguous destination-shard range. Three layers must agree
// on that range: the outbox drain (net/outbox.h), the WAL persist
// (durability/wal.h) and the Debug ownership checker's RangeClaim
// (core/ownership.h). They all call this one function.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>

#include "common/types.h"

namespace stableshard {

/// Contiguous destination-shard range [begin, end) owned by flush
/// partition `part` of `parts`: ranges cover [0, shards) disjointly, so
/// per-destination state is touched by exactly one partition whatever
/// `parts` is — which is why the partition count never shows in the
/// results.
inline std::pair<ShardId, ShardId> FlushShardRange(ShardId shards,
                                                   std::uint32_t part,
                                                   std::uint32_t parts) {
  const ShardId chunk = (shards + parts - 1) / parts;
  const ShardId begin = static_cast<ShardId>(
      std::min<std::uint64_t>(static_cast<std::uint64_t>(chunk) * part,
                              shards));
  const ShardId end = static_cast<ShardId>(
      std::min<std::uint64_t>(static_cast<std::uint64_t>(begin) + chunk,
                              shards));
  return {begin, end};
}

}  // namespace stableshard
