#include "adversary/strategy.h"

#include <algorithm>

namespace stableshard::adversary {

void Candidate::TouchedShards(const chain::AccountMap& map,
                              std::vector<ShardId>& out) const {
  out.clear();
  for (const auto& access : accesses) {
    const ShardId shard = map.OwnerOf(access.account);
    if (std::find(out.begin(), out.end(), shard) == out.end()) {
      out.push_back(shard);
    }
  }
}

}  // namespace stableshard::adversary
