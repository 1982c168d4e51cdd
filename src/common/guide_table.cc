#include "common/guide_table.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

namespace stableshard {

GuideTable::GuideTable(std::vector<double> prefix_sums)
    : prefix_sums_(std::move(prefix_sums)) {
  SSHARD_CHECK(!prefix_sums_.empty());
  SSHARD_CHECK(prefix_sums_.size() <
               std::numeric_limits<std::uint32_t>::max());
  SSHARD_CHECK(std::is_sorted(prefix_sums_.begin(), prefix_sums_.end()));
  SSHARD_CHECK(total() > 0.0 && std::isfinite(total()));
  guide_.resize(kEntriesPerValue * prefix_sums_.size());
  scale_ = static_cast<double>(guide_.size()) / total();
  std::size_t i = 0;
  for (std::size_t bucket = 0; bucket < guide_.size(); ++bucket) {
    const double edge = static_cast<double>(bucket) / scale_;
    while (i < prefix_sums_.size() && prefix_sums_[i] <= edge) ++i;
    guide_[bucket] = static_cast<std::uint32_t>(i);
  }
}

}  // namespace stableshard
