#include "net/metric.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.h"

namespace stableshard::net {

Distance ShardMetric::Diameter() const {
  const Distance cached = diameter_cache_.load(std::memory_order_relaxed);
  if (cached != kDiameterUnknown) return cached;
  const Distance diameter = ComputeDiameter();
  SSHARD_DCHECK(diameter != kDiameterUnknown);
  diameter_cache_.store(diameter, std::memory_order_relaxed);
  return diameter;
}

Distance ShardMetric::ComputeDiameter() const {
  const ShardId s = shard_count();
  Distance diameter = 0;
  for (ShardId i = 0; i < s; ++i) {
    for (ShardId j = i + 1; j < s; ++j) {
      diameter = std::max(diameter, distance(i, j));
    }
  }
  return diameter;
}

std::vector<ShardId> ShardMetric::Neighborhood(ShardId center,
                                               Distance radius) const {
  std::vector<ShardId> result;
  const ShardId s = shard_count();
  for (ShardId i = 0; i < s; ++i) {
    if (distance(center, i) <= radius) result.push_back(i);
  }
  return result;
}

Distance ShardMetric::SubsetDiameter(const std::vector<ShardId>& shards) const {
  Distance diameter = 0;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    for (std::size_t j = i + 1; j < shards.size(); ++j) {
      diameter = std::max(diameter, distance(shards[i], shards[j]));
    }
  }
  return diameter;
}

UniformMetric::UniformMetric(ShardId shards) : shards_(shards) {
  SSHARD_CHECK(shards >= 1);
}

Distance UniformMetric::distance(ShardId a, ShardId b) const {
  SSHARD_DCHECK(a < shards_ && b < shards_);
  return a == b ? 0 : 1;
}

LineMetric::LineMetric(ShardId shards) : shards_(shards) {
  SSHARD_CHECK(shards >= 1);
}

Distance LineMetric::distance(ShardId a, ShardId b) const {
  SSHARD_DCHECK(a < shards_ && b < shards_);
  return a > b ? a - b : b - a;
}

std::vector<ShardId> LineMetric::Neighborhood(ShardId center,
                                              Distance radius) const {
  SSHARD_DCHECK(center < shards_);
  const ShardId first = center > radius ? center - radius : 0;
  const ShardId last =
      radius >= shards_ - 1 - center ? shards_ - 1 : center + radius;
  std::vector<ShardId> result(last - first + 1);
  std::iota(result.begin(), result.end(), first);
  return result;
}

Distance LineMetric::SubsetDiameter(const std::vector<ShardId>& shards) const {
  if (shards.empty()) return 0;
  const auto [min, max] = std::minmax_element(shards.begin(), shards.end());
  return *max - *min;
}

RingMetric::RingMetric(ShardId shards) : shards_(shards) {
  SSHARD_CHECK(shards >= 1);
}

Distance RingMetric::distance(ShardId a, ShardId b) const {
  SSHARD_DCHECK(a < shards_ && b < shards_);
  const ShardId direct = a > b ? a - b : b - a;
  return std::min<ShardId>(direct, shards_ - direct);
}

GridMetric::GridMetric(ShardId width, ShardId height)
    : width_(width), height_(height) {
  SSHARD_CHECK(width >= 1 && height >= 1);
}

Distance GridMetric::distance(ShardId a, ShardId b) const {
  SSHARD_DCHECK(a < shard_count() && b < shard_count());
  const auto ax = a % width_, ay = a / width_;
  const auto bx = b % width_, by = b / width_;
  const ShardId dx = ax > bx ? ax - bx : bx - ax;
  const ShardId dy = ay > by ? ay - by : by - ay;
  return dx + dy;
}

MatrixMetric::MatrixMetric(ShardId shards, std::vector<Distance> matrix)
    : shards_(shards), matrix_(std::move(matrix)) {
  SSHARD_CHECK(shards >= 1);
  SSHARD_CHECK(matrix_.size() == static_cast<std::size_t>(shards) * shards);
  for (ShardId i = 0; i < shards_; ++i) {
    SSHARD_CHECK(matrix_[static_cast<std::size_t>(i) * shards_ + i] == 0);
    for (ShardId j = 0; j < shards_; ++j) {
      if (i == j) continue;
      const Distance dij = matrix_[static_cast<std::size_t>(i) * shards_ + j];
      const Distance dji = matrix_[static_cast<std::size_t>(j) * shards_ + i];
      SSHARD_CHECK(dij >= 1);
      SSHARD_CHECK(dij == dji);
      for (ShardId via = 0; via < shards_; ++via) {
        const Distance d1 =
            matrix_[static_cast<std::size_t>(i) * shards_ + via];
        const Distance d2 =
            matrix_[static_cast<std::size_t>(via) * shards_ + j];
        SSHARD_CHECK(dij <= d1 + d2);
      }
    }
  }
}

Distance MatrixMetric::distance(ShardId a, ShardId b) const {
  SSHARD_DCHECK(a < shards_ && b < shards_);
  return matrix_[static_cast<std::size_t>(a) * shards_ + b];
}

std::unique_ptr<MatrixMetric> MakeRandomGeometricMetric(ShardId shards,
                                                        Distance side,
                                                        Rng& rng) {
  SSHARD_CHECK(shards >= 1 && side >= 1);
  std::vector<double> xs(shards), ys(shards);
  for (ShardId i = 0; i < shards; ++i) {
    xs[i] = rng.NextDouble() * side;
    ys[i] = rng.NextDouble() * side;
  }
  const std::size_t n = shards;
  std::vector<Distance> matrix(n * n, 0);
  for (ShardId i = 0; i < shards; ++i) {
    for (ShardId j = i + 1; j < shards; ++j) {
      const double dx = xs[i] - xs[j];
      const double dy = ys[i] - ys[j];
      const auto rounded =
          static_cast<Distance>(std::lround(std::sqrt(dx * dx + dy * dy)));
      const Distance d = std::max<Distance>(1, rounded);
      matrix[i * n + j] = d;
      matrix[j * n + i] = d;
    }
  }
  // Floyd-Warshall closure: rounding can break the triangle inequality, the
  // shortest-path metric restores it without shrinking any distance below 1.
  for (std::size_t via = 0; via < n; ++via) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        const Distance through = matrix[i * n + via] + matrix[via * n + j];
        if (i != j && through < matrix[i * n + j]) {
          matrix[i * n + j] = through;
        }
      }
    }
  }
  return std::make_unique<MatrixMetric>(shards, std::move(matrix));
}

}  // namespace stableshard::net
