// Shard interconnection metrics (the weighted clique G_s of Section 3).
//
// The paper models the network between shards as a complete weighted graph
// whose edge weight is the number of rounds a message needs between the two
// shards. The uniform model has all weights 1; the non-uniform model has
// weights in [1, D] where D is the diameter. The FDS evaluation (Figure 3)
// places 64 shards on a line with distance |i - j|.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace stableshard::net {

/// Abstract metric over shards. Implementations must satisfy the metric
/// axioms for distances between *distinct* shards: symmetry, positivity
/// (>= 1) and the triangle inequality; distance(i, i) == 0.
class ShardMetric {
 public:
  virtual ~ShardMetric() = default;

  virtual ShardId shard_count() const = 0;
  virtual Distance distance(ShardId a, ShardId b) const = 0;

  /// Maximum distance between any two shards (the clique diameter D).
  /// Memoized per instance: both net::Network and cluster::Hierarchy query
  /// it on construction, and the generic evaluation is O(s^2) — at s = 1024
  /// that was ~1M distance calls per simulation, multiplied across sweep
  /// configs, before the cache.
  Distance Diameter() const;

  /// All shards within distance `radius` of `center` (includes `center`),
  /// ascending. The generic scan is O(s); closed-form topologies override
  /// it (hierarchy construction asks once per member of every cluster).
  virtual std::vector<ShardId> Neighborhood(ShardId center,
                                            Distance radius) const;

  /// Strong diameter of a shard subset: max pairwise distance measured with
  /// this metric (our clusters are metric balls, so induced-subgraph
  /// distances coincide with clique distances for the topologies we use).
  /// The generic evaluation is O(n^2) in the subset size; closed-form
  /// topologies override it.
  virtual Distance SubsetDiameter(const std::vector<ShardId>& shards) const;

 protected:
  /// One-time diameter evaluation behind the Diameter() cache. The default
  /// is the generic O(s^2) max over pairs; closed-form topologies override
  /// it with O(1) formulas.
  virtual Distance ComputeDiameter() const;

 private:
  /// Diameter() cache; kDiameterUnknown until first computed. Relaxed
  /// atomics keep concurrent first calls benign (same value both times).
  static constexpr Distance kDiameterUnknown =
      std::numeric_limits<Distance>::max();
  mutable std::atomic<Distance> diameter_cache_{kDiameterUnknown};
};

/// Uniform model: every pair of distinct shards at distance 1.
class UniformMetric final : public ShardMetric {
 public:
  explicit UniformMetric(ShardId shards);
  ShardId shard_count() const override { return shards_; }
  Distance distance(ShardId a, ShardId b) const override;

 protected:
  Distance ComputeDiameter() const override { return shards_ == 1 ? 0 : 1; }

 private:
  ShardId shards_;
};

/// Line topology (paper Section 7, Figure 3): distance(i, j) = |i - j|,
/// adjacent shards at distance 1, diameter s - 1. A neighborhood is the
/// interval [center - radius, center + radius] clipped to the line, and a
/// subset's diameter is its max - min.
class LineMetric final : public ShardMetric {
 public:
  explicit LineMetric(ShardId shards);
  ShardId shard_count() const override { return shards_; }
  Distance distance(ShardId a, ShardId b) const override;
  std::vector<ShardId> Neighborhood(ShardId center,
                                    Distance radius) const override;
  Distance SubsetDiameter(const std::vector<ShardId>& shards) const override;

 protected:
  Distance ComputeDiameter() const override { return shards_ - 1; }

 private:
  ShardId shards_;
};

/// Ring topology: distance(i, j) = min(|i-j|, s - |i-j|), diameter floor(s/2).
class RingMetric final : public ShardMetric {
 public:
  explicit RingMetric(ShardId shards);
  ShardId shard_count() const override { return shards_; }
  Distance distance(ShardId a, ShardId b) const override;

 protected:
  Distance ComputeDiameter() const override { return shards_ / 2; }

 private:
  ShardId shards_;
};

/// 2D grid (L1 distance): shard i at (i % width, i / width).
class GridMetric final : public ShardMetric {
 public:
  GridMetric(ShardId width, ShardId height);
  ShardId shard_count() const override { return width_ * height_; }
  Distance distance(ShardId a, ShardId b) const override;
  ShardId width() const { return width_; }
  ShardId height() const { return height_; }

 protected:
  Distance ComputeDiameter() const override {
    return (width_ - 1) + (height_ - 1);
  }

 private:
  ShardId width_;
  ShardId height_;
};

/// Arbitrary metric backed by an explicit symmetric matrix. Validates the
/// metric axioms on construction (positivity, symmetry, triangle
/// inequality) so that cluster decomposition preconditions hold.
class MatrixMetric final : public ShardMetric {
 public:
  /// `matrix` is row-major s*s; diagonal must be 0, off-diagonal >= 1.
  MatrixMetric(ShardId shards, std::vector<Distance> matrix);

  ShardId shard_count() const override { return shards_; }
  Distance distance(ShardId a, ShardId b) const override;

 private:
  ShardId shards_;
  std::vector<Distance> matrix_;
};

/// Random geometric metric: shards placed uniformly in a square of side
/// `side`, distance = max(1, round(euclidean)). Always a valid metric after
/// shortest-path closure (applied internally).
std::unique_ptr<MatrixMetric> MakeRandomGeometricMetric(ShardId shards,
                                                        Distance side,
                                                        Rng& rng);

}  // namespace stableshard::net
