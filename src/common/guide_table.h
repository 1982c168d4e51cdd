// Exact inverse-CDF lookup in O(1) expected time: the indexed search of
// Chen & Asau (1974), "On generating random variates from an empirical
// distribution".
//
// A draw u in [0, total) from non-decreasing prefix sums c[0..n) selects
// the index std::upper_bound returns: the first i with c[i] > u. A guide
// table splits [0, total) into kEntriesPerValue * n equal buckets and
// stores, for each, the answer at its lower edge. A lookup starts at its
// bucket's entry, walks back while c[i-1] > u and forward while c[i] <= u.
// The walks make the result exact for every u, whatever the rounding of
// the bucket index, so it is std::upper_bound's index (n for u >= total);
// the table only makes them short.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.h"

namespace stableshard {

class GuideTable {
 public:
  /// Buckets per prefix sum. A constant, chosen by measurement on the
  /// benchmark's Zipf(1.2)-over-64-shards workload (4-vCPU AMD EPYC):
  /// generation took 0.92 s per run with 2 entries per value, 0.85 s with
  /// 4 and 0.82 s with 8, and 8 bought no end-to-end time over 4.
  static constexpr std::size_t kEntriesPerValue = 4;

  /// `prefix_sums` must be non-empty and non-decreasing, with a positive,
  /// finite last element (the total weight).
  explicit GuideTable(std::vector<double> prefix_sums);

  /// std::upper_bound(prefix_sums(), u) as an index, for any u >= 0.
  std::size_t UpperBound(double u) const {
    SSHARD_DCHECK(u >= 0.0);
    const double scaled = u * scale_;
    std::size_t i = guide_[scaled < static_cast<double>(guide_.size())
                               ? static_cast<std::size_t>(scaled)
                               : guide_.size() - 1];
    while (i > 0 && prefix_sums_[i - 1] > u) --i;
    while (i < prefix_sums_.size() && prefix_sums_[i] <= u) ++i;
    return i;
  }

  double total() const { return prefix_sums_.back(); }
  const std::vector<double>& prefix_sums() const { return prefix_sums_; }

 private:
  std::vector<double> prefix_sums_;
  std::vector<std::uint32_t> guide_;  ///< bucket -> answer at its lower edge
  double scale_ = 0.0;                ///< buckets per unit of weight
};

}  // namespace stableshard
