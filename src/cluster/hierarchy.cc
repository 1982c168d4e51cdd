#include "cluster/hierarchy.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "common/math_util.h"

namespace stableshard::cluster {

namespace {

/// All shards qualifying as leader of a layer-l cluster: a shard qualifies
/// iff its (2^l - 1)-neighborhood is contained in the cluster
/// (Section 6.1). Returned in ascending shard order.
std::vector<ShardId> LeaderCandidates(const net::ShardMetric& metric,
                                      const Cluster& cluster,
                                      std::uint32_t layer) {
  const Distance radius =
      layer >= 31 ? std::numeric_limits<Distance>::max() / 2
                  : static_cast<Distance>((1u << layer) - 1);
  std::vector<ShardId> candidates;
  for (const ShardId candidate : cluster.shards) {
    bool contained = true;
    for (const ShardId other : metric.Neighborhood(candidate, radius)) {
      if (!cluster.Contains(other)) {
        contained = false;
        break;
      }
    }
    if (contained) candidates.push_back(candidate);
  }
  return candidates;
}

/// Deterministic spread over the candidate list: a cluster-id-keyed
/// starting index (Fibonacci-hash stride, so consecutive ids land far
/// apart) advanced cyclically past candidates that already lead another
/// cluster of the same layer. The old policy took the *first* candidate,
/// which stacked same-layer colorings of adjacent clusters onto one shard
/// — serializing their Phase-2 work even before the top-layer pathology.
/// A shard leads two clusters of one layer only when every candidate of
/// the later cluster is already taken (pigeonhole-unavoidable), which the
/// cluster_test regression mirrors exactly.
ShardId SpreadLeader(const std::vector<ShardId>& candidates,
                     std::uint32_t cluster_id,
                     const std::vector<std::uint8_t>& taken_in_layer) {
  if (candidates.empty()) return kInvalidShard;
  const std::size_t n = candidates.size();
  const std::size_t start =
      static_cast<std::size_t>(cluster_id * 2654435761u) % n;
  for (std::size_t step = 0; step < n; ++step) {
    const ShardId candidate = candidates[(start + step) % n];
    if (!taken_in_layer[candidate]) return candidate;
  }
  return candidates[start];  // every candidate taken: unavoidable reuse
}

}  // namespace

Hierarchy::Hierarchy(const net::ShardMetric& metric)
    : metric_(&metric), containing_(metric.shard_count()) {}

void Hierarchy::AddCluster(std::uint32_t layer, std::uint32_t sublayer,
                           std::vector<ShardId> shards) {
  SSHARD_CHECK(!shards.empty());
  Cluster cluster;
  cluster.id = static_cast<std::uint32_t>(clusters_.size());
  cluster.layer = layer;
  cluster.sublayer = sublayer;
  cluster.member.assign(metric_->shard_count(), false);
  std::sort(shards.begin(), shards.end());
  shards.erase(std::unique(shards.begin(), shards.end()), shards.end());
  for (const ShardId shard : shards) {
    SSHARD_CHECK(shard < metric_->shard_count());
    cluster.member[shard] = true;
  }
  cluster.shards = std::move(shards);
  cluster.diameter = metric_->SubsetDiameter(cluster.shards);
  if (leads_in_layer_.size() <= layer) leads_in_layer_.resize(layer + 1);
  std::vector<std::uint8_t>& taken = leads_in_layer_[layer];
  if (taken.empty()) taken.assign(metric_->shard_count(), 0);
  cluster.leader =
      SpreadLeader(LeaderCandidates(*metric_, cluster, layer), cluster.id,
                   taken);
  if (cluster.HasLeader()) taken[cluster.leader] = 1;
  for (const ShardId shard : cluster.shards) {
    containing_[shard].push_back(cluster.id);
  }
  clusters_.push_back(std::move(cluster));
}

void Hierarchy::Finalize(std::uint32_t top_roots) {
  SSHARD_CHECK(top_roots >= 1 && "hierarchy needs at least one top root");
  // Guarantee a full-membership, leadered cluster exists so FindHomeCluster
  // always succeeds (the top of the hierarchy).
  const ShardId s = metric_->shard_count();
  constexpr auto kNoCluster = std::numeric_limits<std::uint32_t>::max();
  std::uint32_t root0 = kNoCluster;
  for (const Cluster& cluster : clusters_) {
    if (cluster.HasLeader() && cluster.size() == s) {
      root0 = cluster.id;
      break;
    }
  }
  if (root0 == kNoCluster) {
    std::vector<ShardId> all(s);
    for (ShardId i = 0; i < s; ++i) all[i] = i;
    AddCluster(layer_count_, 0, std::move(all));
    // The whole graph trivially contains any neighborhood, but the leader
    // radius is 2^layer - 1; with the full set every shard qualifies, so a
    // leader was found.
    SSHARD_CHECK(clusters_.back().HasLeader());
    root0 = clusters_.back().id;
    ++layer_count_;
  }
  // Split the top cover into `top_roots` interchangeable full-membership
  // roots (clamped to s — more roots than shards cannot have distinct
  // leaders). Each extra root sits alone in a fresh sublayer of the same
  // layer, so sublayer partitioning is preserved; the same-layer leader
  // spread in AddCluster gives the roots pairwise-distinct leaders
  // whenever untaken shards remain at that layer.
  const auto roots = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(top_roots, s));
  clusters_[root0].top_root = true;
  top_roots_.assign(1, root0);
  const std::uint32_t root_layer = clusters_[root0].layer;
  for (std::uint32_t j = 1; j < roots; ++j) {
    std::vector<ShardId> all(s);
    for (ShardId i = 0; i < s; ++i) all[i] = i;
    AddCluster(root_layer, sublayer_count_ + j - 1, std::move(all));
    SSHARD_CHECK(clusters_.back().HasLeader());
    clusters_.back().top_root = true;
    top_roots_.push_back(clusters_.back().id);
  }
  sublayer_count_ += roots - 1;
  leads_in_layer_.clear();  // construction-time scratch
  // Per-shard cluster lists ordered by (layer, sublayer, id) so the home
  // cluster scan visits lowest levels first.
  for (auto& list : containing_) {
    std::sort(list.begin(), list.end(), [this](std::uint32_t a,
                                               std::uint32_t b) {
      const Cluster& ca = clusters_[a];
      const Cluster& cb = clusters_[b];
      if (ca.layer != cb.layer) return ca.layer < cb.layer;
      if (ca.sublayer != cb.sublayer) return ca.sublayer < cb.sublayer;
      return ca.id < cb.id;
    });
  }
}

Hierarchy Hierarchy::BuildLineShifted(const net::ShardMetric& metric,
                                      std::uint32_t top_roots) {
  SSHARD_CHECK(top_roots >= 1 && "top_roots must be positive");
  Hierarchy h(metric);
  const ShardId s = metric.shard_count();
  // Layers 0..H1-1 with cluster size min(s, 2^{l+1}); the top layer is the
  // first whose clusters span every shard.
  std::uint32_t layers = 1;
  while ((std::uint64_t{2} << (layers - 1)) < s) ++layers;  // 2^layers >= s
  h.layer_count_ = layers;
  h.sublayer_count_ = 2;
  for (std::uint32_t l = 0; l < layers; ++l) {
    const std::uint64_t size = std::min<std::uint64_t>(s, 2ull << l);
    // Sub-layer 0: aligned intervals [m*size, (m+1)*size).
    for (std::uint64_t start = 0; start < s; start += size) {
      std::vector<ShardId> shards;
      for (std::uint64_t i = start; i < std::min<std::uint64_t>(s, start + size);
           ++i) {
        shards.push_back(static_cast<ShardId>(i));
      }
      h.AddCluster(l, 0, std::move(shards));
    }
    // Sub-layer 1: shifted right by half a cluster (paper Section 7). Only
    // meaningful when the shift is non-trivial and clusters don't already
    // cover everything in one piece.
    const std::uint64_t half = size / 2;
    if (half >= 1 && size < s) {
      for (std::uint64_t start = 0; start < s;
           start = (start == 0 ? half : start + size)) {
        std::vector<ShardId> shards;
        const std::uint64_t end =
            std::min<std::uint64_t>(s, start == 0 ? half : start + size);
        for (std::uint64_t i = start; i < end; ++i) {
          shards.push_back(static_cast<ShardId>(i));
        }
        h.AddCluster(l, 1, std::move(shards));
      }
    }
  }
  h.Finalize(top_roots);
  return h;
}

Hierarchy Hierarchy::BuildSparseCover(const net::ShardMetric& metric,
                                      std::uint32_t top_roots) {
  SSHARD_CHECK(top_roots >= 1 && "top_roots must be positive");
  Hierarchy h(metric);
  const ShardId s = metric.shard_count();
  const Distance diameter = metric.Diameter();
  const std::uint32_t layers =
      diameter == 0 ? 1 : CeilLog2(std::uint64_t{diameter} + 1) + 1;
  h.layer_count_ = layers;
  h.sublayer_count_ = std::max<std::uint32_t>(1, CeilLog2(s) + 1);

  for (std::uint32_t l = 0; l < layers; ++l) {
    const Distance net_radius = static_cast<Distance>(1u << l);  // 2^l
    const Distance ball_radius =
        static_cast<Distance>((2u << l) - 1);  // 2^{l+1} - 1
    // Greedy 2^l-net: centers pairwise more than 2^l apart; every shard is
    // within 2^l of some center.
    std::vector<ShardId> centers;
    for (ShardId candidate = 0; candidate < s; ++candidate) {
      bool covered = false;
      for (const ShardId center : centers) {
        if (metric.distance(candidate, center) <= net_radius) {
          covered = true;
          break;
        }
      }
      if (!covered) centers.push_back(candidate);
    }
    // One ball cluster per center; sub-layer by center rank. The center's
    // (2^l - 1)-neighborhood is inside the ball, so it is a valid leader.
    for (std::size_t rank = 0; rank < centers.size(); ++rank) {
      const std::uint32_t sublayer =
          static_cast<std::uint32_t>(rank % h.sublayer_count_);
      h.AddCluster(l, sublayer,
                   metric.Neighborhood(centers[rank], ball_radius));
      SSHARD_CHECK(h.clusters_.back().HasLeader());
    }
  }
  h.Finalize(top_roots);
  return h;
}

Distance Hierarchy::layer_diameter(std::uint32_t layer) const {
  Distance max_diameter = 1;
  for (const Cluster& cluster : clusters_) {
    if (cluster.layer == layer) {
      max_diameter = std::max(max_diameter, cluster.diameter);
    }
  }
  return max_diameter;
}

const std::vector<std::uint32_t>& Hierarchy::clusters_containing(
    ShardId shard) const {
  SSHARD_CHECK(shard < containing_.size());
  return containing_[shard];
}

const Cluster& Hierarchy::ScanHomeCluster(ShardId home, Distance x) const {
  SSHARD_CHECK(home < metric_->shard_count());
  const std::vector<ShardId> neighborhood = metric_->Neighborhood(home, x);
  for (const std::uint32_t id : containing_[home]) {
    const Cluster& cluster = clusters_[id];
    if (!cluster.HasLeader()) continue;
    bool contains_all = true;
    for (const ShardId shard : neighborhood) {
      if (!cluster.Contains(shard)) {
        contains_all = false;
        break;
      }
    }
    if (contains_all) return cluster;
  }
  SSHARD_CHECK(false && "no home cluster found (missing top cluster?)");
  return clusters_.front();
}

const Cluster& Hierarchy::SaltRoot(const Cluster& cluster, ShardId home,
                                   std::uint64_t salt) const {
  // Top-layer roots are interchangeable full-membership copies: hash the
  // assignment across them so diameter-spanning load spreads instead of
  // piling onto the first root the scan happens to reach.
  if (cluster.top_root && top_roots_.size() > 1) {
    const std::uint64_t pick =
        (static_cast<std::uint64_t>(home) + salt) % top_roots_.size();
    return clusters_[top_roots_[pick]];
  }
  return cluster;
}

const Cluster& HomeClusterCache::Find(ShardId home, Distance x,
                                      std::uint64_t salt) {
  if (by_home_.empty()) by_home_.resize(hierarchy_->metric().shard_count());
  SSHARD_CHECK(home < by_home_.size());
  std::vector<std::uint32_t>& row = by_home_[home];
  if (row.size() <= x) row.resize(static_cast<std::size_t>(x) + 1, kUnknown);
  if (row[x] == kUnknown) row[x] = hierarchy_->ScanHomeCluster(home, x).id;
  return hierarchy_->SaltRoot(hierarchy_->clusters()[row[x]], home, salt);
}

std::uint32_t Hierarchy::MaxMembership(std::uint32_t layer) const {
  std::uint32_t max_membership = 0;
  for (ShardId shard = 0; shard < metric_->shard_count(); ++shard) {
    std::uint32_t count = 0;
    for (const std::uint32_t id : containing_[shard]) {
      if (clusters_[id].layer == layer) ++count;
    }
    max_membership = std::max(max_membership, count);
  }
  return max_membership;
}

}  // namespace stableshard::cluster
