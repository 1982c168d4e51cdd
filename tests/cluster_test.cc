// Tests for the hierarchical cluster decomposition (Section 6.1): leader
// validity, diameter bounds, coverage (property iii), bounded membership
// (property ii), and home-cluster lookup across topologies.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cluster/hierarchy.h"
#include "common/math_util.h"
#include "common/rng.h"
#include "net/metric.h"
#include "net/topology_factory.h"

namespace stableshard::cluster {
namespace {

void ExpectLeadersValid(const Hierarchy& hierarchy,
                        const net::ShardMetric& metric) {
  for (const Cluster& cluster : hierarchy.clusters()) {
    if (!cluster.HasLeader()) continue;
    EXPECT_TRUE(cluster.Contains(cluster.leader));
    const Distance radius =
        cluster.layer >= 31 ? metric.Diameter()
                            : static_cast<Distance>((1u << cluster.layer) - 1);
    for (const ShardId shard : metric.Neighborhood(cluster.leader, radius)) {
      EXPECT_TRUE(cluster.Contains(shard))
          << "leader " << cluster.leader << " neighborhood escapes cluster "
          << cluster.id << " (layer " << cluster.layer << ")";
    }
  }
}

void ExpectHomeClusterSound(const Hierarchy& hierarchy,
                            const net::ShardMetric& metric) {
  // For every (home, x) the returned cluster must contain the whole
  // x-neighborhood and have a leader.
  for (ShardId home = 0; home < metric.shard_count(); ++home) {
    for (Distance x = 0; x <= metric.Diameter(); ++x) {
      const Cluster& cluster = hierarchy.FindHomeCluster(home, x);
      EXPECT_TRUE(cluster.HasLeader());
      for (const ShardId shard : metric.Neighborhood(home, x)) {
        EXPECT_TRUE(cluster.Contains(shard));
      }
    }
  }
}

TEST(LineShifted, PaperConstructionOn64Shards) {
  net::LineMetric metric(64);
  const auto hierarchy = Hierarchy::BuildLineShifted(metric);
  // Layer 0 clusters contain two shards each (paper Section 7).
  std::size_t layer0_full = 0;
  for (const Cluster& cluster : hierarchy.clusters()) {
    if (cluster.layer == 0 && cluster.sublayer == 0) {
      EXPECT_EQ(cluster.size(), 2u);
      ++layer0_full;
    }
  }
  EXPECT_EQ(layer0_full, 32u);
  // The top layer has a cluster spanning all shards.
  bool top_found = false;
  for (const Cluster& cluster : hierarchy.clusters()) {
    if (cluster.size() == 64) top_found = true;
  }
  EXPECT_TRUE(top_found);
  ExpectLeadersValid(hierarchy, metric);
  ExpectHomeClusterSound(hierarchy, metric);
}

TEST(LineShifted, SublayersArePartitions) {
  net::LineMetric metric(32);
  const auto hierarchy = Hierarchy::BuildLineShifted(metric);
  for (std::uint32_t layer = 0; layer < hierarchy.layer_count(); ++layer) {
    for (std::uint32_t sub = 0; sub < hierarchy.sublayer_count(); ++sub) {
      std::vector<int> coverage(32, 0);
      bool sublayer_exists = false;
      for (const Cluster& cluster : hierarchy.clusters()) {
        if (cluster.layer != layer || cluster.sublayer != sub) continue;
        sublayer_exists = true;
        for (const ShardId shard : cluster.shards) ++coverage[shard];
      }
      if (!sublayer_exists) continue;
      for (ShardId shard = 0; shard < 32; ++shard) {
        EXPECT_LE(coverage[shard], 1)
            << "shard " << shard << " in two clusters of sublayer (" << layer
            << "," << sub << ")";
      }
    }
  }
}

TEST(LineShifted, DiametersGrowGeometrically) {
  net::LineMetric metric(64);
  const auto hierarchy = Hierarchy::BuildLineShifted(metric);
  for (std::uint32_t layer = 0; layer < hierarchy.layer_count(); ++layer) {
    // Layer-l clusters are intervals of <= 2^{l+1} shards: diameter < 2^{l+1}.
    EXPECT_LT(hierarchy.layer_diameter(layer),
              (std::uint64_t{2} << layer) + 1);
  }
}

TEST(LineShifted, SingleShardDegenerate) {
  net::LineMetric metric(1);
  const auto hierarchy = Hierarchy::BuildLineShifted(metric);
  const Cluster& cluster = hierarchy.FindHomeCluster(0, 0);
  EXPECT_TRUE(cluster.HasLeader());
  EXPECT_EQ(cluster.size(), 1u);
}

// LineMetric's closed-form Neighborhood and SubsetDiameter must equal the
// generic ShardMetric definitions (called non-virtually) everywhere.
TEST(LineMetricClosedForm, MatchesGenericDefinitions) {
  Rng rng(11);
  for (ShardId s = 1; s <= 64; ++s) {
    const net::LineMetric metric(s);
    const net::ShardMetric& base = metric;
    for (ShardId center = 0; center < s; ++center) {
      for (Distance radius = 0; radius <= s + 1; ++radius) {
        const std::vector<ShardId> closed = base.Neighborhood(center, radius);
        ASSERT_EQ(closed, base.ShardMetric::Neighborhood(center, radius))
            << "s " << s << " center " << center << " radius " << radius;
        ASSERT_EQ(base.SubsetDiameter(closed),
                  base.ShardMetric::SubsetDiameter(closed));
      }
      const Distance huge = std::numeric_limits<Distance>::max() / 2;
      ASSERT_EQ(base.Neighborhood(center, huge),
                base.ShardMetric::Neighborhood(center, huge));
    }
    // Arbitrary (unsorted, gapped) subsets, the empty one included.
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<ShardId> subset;
      const std::uint64_t count = rng.NextBounded(s + 1);
      for (std::uint64_t i = 0; i < count; ++i) {
        subset.push_back(static_cast<ShardId>(rng.NextBounded(s)));
      }
      ASSERT_EQ(base.SubsetDiameter(subset),
                base.ShardMetric::SubsetDiameter(subset));
    }
  }
}

// The shifted-line hierarchy built over the closed-form LineMetric equals
// the one built over an explicit matrix of the same distances, which takes
// the generic paths: same clusters, diameters, leaders, layers, sublayers.
TEST(LineMetricClosedForm, HierarchyMatchesMatrixMetric) {
  for (const ShardId s : {1u, 2u, 3u, 7u, 64u, 100u}) {
    SCOPED_TRACE("s = " + std::to_string(s));
    const net::LineMetric line(s);
    std::vector<Distance> matrix(static_cast<std::size_t>(s) * s);
    for (ShardId a = 0; a < s; ++a) {
      for (ShardId b = 0; b < s; ++b) {
        matrix[static_cast<std::size_t>(a) * s + b] = line.distance(a, b);
      }
    }
    const net::MatrixMetric generic(s, std::move(matrix));
    const Hierarchy closed = Hierarchy::BuildLineShifted(line);
    const Hierarchy reference = Hierarchy::BuildLineShifted(generic);
    ASSERT_EQ(closed.clusters().size(), reference.clusters().size());
    EXPECT_EQ(closed.layer_count(), reference.layer_count());
    for (std::size_t i = 0; i < closed.clusters().size(); ++i) {
      const Cluster& a = closed.clusters()[i];
      const Cluster& b = reference.clusters()[i];
      EXPECT_EQ(a.shards, b.shards) << "cluster " << i;
      EXPECT_EQ(a.diameter, b.diameter) << "cluster " << i;
      EXPECT_EQ(a.leader, b.leader) << "cluster " << i;
      EXPECT_EQ(a.layer, b.layer) << "cluster " << i;
      EXPECT_EQ(a.sublayer, b.sublayer) << "cluster " << i;
    }
  }
}

struct CoverCase {
  net::TopologyKind topology;
  ShardId shards;
};

class SparseCoverProperty : public ::testing::TestWithParam<CoverCase> {};

TEST_P(SparseCoverProperty, AllSectionSixOneProperties) {
  const auto param = GetParam();
  Rng rng(99);
  const auto metric = net::MakeMetric(param.topology, param.shards, &rng);
  const auto hierarchy = Hierarchy::BuildSparseCover(*metric);

  ExpectLeadersValid(hierarchy, *metric);
  ExpectHomeClusterSound(hierarchy, *metric);

  // Property (i): layer-l diameter O(2^l) — balls of radius 2^{l+1}-1 have
  // diameter at most 2*(2^{l+1}-1).
  for (std::uint32_t layer = 0; layer < hierarchy.layer_count(); ++layer) {
    EXPECT_LE(hierarchy.layer_diameter(layer),
              2 * ((std::uint64_t{2} << layer) - 1));
  }

  // Property (iii) holds *per layer* for the net construction: every
  // shard's (2^l - 1)-neighborhood is inside some layer-l cluster.
  for (std::uint32_t layer = 0; layer < hierarchy.layer_count(); ++layer) {
    const Distance radius = static_cast<Distance>((1u << layer) - 1);
    for (ShardId shard = 0; shard < param.shards; ++shard) {
      const auto neighborhood = metric->Neighborhood(shard, radius);
      bool covered = false;
      for (const std::uint32_t id : hierarchy.clusters_containing(shard)) {
        const Cluster& cluster = hierarchy.clusters()[id];
        if (cluster.layer != layer) continue;
        bool all = true;
        for (const ShardId other : neighborhood) {
          if (!cluster.Contains(other)) {
            all = false;
            break;
          }
        }
        if (all) {
          covered = true;
          break;
        }
      }
      EXPECT_TRUE(covered) << "layer " << layer << " shard " << shard;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, SparseCoverProperty,
    ::testing::Values(CoverCase{net::TopologyKind::kLine, 64},
                      CoverCase{net::TopologyKind::kLine, 17},
                      CoverCase{net::TopologyKind::kRing, 32},
                      CoverCase{net::TopologyKind::kGrid, 16},
                      CoverCase{net::TopologyKind::kRandomGeometric, 24},
                      CoverCase{net::TopologyKind::kUniform, 16}),
    [](const ::testing::TestParamInfo<CoverCase>& info) {
      return net::TopologyName(info.param.topology) + "_s" +
             std::to_string(info.param.shards);
    });

TEST(SparseCover, MembershipBoundedOnLine) {
  // Property (ii): each shard in O(log s) clusters per layer. For the
  // 1-dimensional net construction the overlap per layer is a small
  // constant; assert a generous bound.
  net::LineMetric metric(64);
  const auto hierarchy = Hierarchy::BuildSparseCover(metric);
  for (std::uint32_t layer = 0; layer < hierarchy.layer_count(); ++layer) {
    EXPECT_LE(hierarchy.MaxMembership(layer), 8u) << "layer " << layer;
  }
}

TEST(HomeCluster, PrefersLowestLayer) {
  net::LineMetric metric(64);
  const auto hierarchy = Hierarchy::BuildLineShifted(metric);
  // x = 0: the home shard alone; the lowest layer that contains shard 0
  // with a leader must be layer 0.
  const Cluster& tight = hierarchy.FindHomeCluster(0, 0);
  EXPECT_EQ(tight.layer, 0u);
  // x = diameter: must use a full cluster.
  const Cluster& wide = hierarchy.FindHomeCluster(0, 63);
  EXPECT_EQ(wide.size(), 64u);
}

TEST(HomeCluster, MonotoneInRadius) {
  net::LineMetric metric(32);
  const auto hierarchy = Hierarchy::BuildLineShifted(metric);
  for (ShardId home = 0; home < 32; home += 5) {
    std::uint32_t last_layer = 0;
    for (Distance x = 0; x < 32; ++x) {
      const Cluster& cluster = hierarchy.FindHomeCluster(home, x);
      EXPECT_GE(cluster.layer + 1, last_layer)
          << "layer decreased as radius grew";
      last_layer = std::max(last_layer, cluster.layer);
    }
  }
}

// FDS's memoized lookup must return exactly what the O(s) scan returns,
// for every (home, x), salt included, on every topology the cover is built
// for and on a multi-root hierarchy. Each (home, x) is asked twice, so the
// second answer comes from the cache.
TEST(HomeClusterCache, MatchesTheScanEverywhere) {
  struct CacheCase {
    net::TopologyKind topology;
    ShardId shards;
    std::uint32_t top_roots;
  };
  const CacheCase cases[] = {{net::TopologyKind::kLine, 64, 1},
                             {net::TopologyKind::kRing, 32, 1},
                             {net::TopologyKind::kGrid, 36, 1},
                             {net::TopologyKind::kRandomGeometric, 24, 1},
                             {net::TopologyKind::kLine, 48, 3}};
  for (const CacheCase& c : cases) {
    SCOPED_TRACE(net::TopologyName(c.topology) + "_s" +
                 std::to_string(c.shards) + "_roots" +
                 std::to_string(c.top_roots));
    Rng rng(3);
    const auto metric = net::MakeMetric(c.topology, c.shards, &rng);
    for (const bool line_shifted : {true, false}) {
      if (line_shifted && c.topology != net::TopologyKind::kLine) continue;
      const Hierarchy hierarchy =
          line_shifted ? Hierarchy::BuildLineShifted(*metric, c.top_roots)
                       : Hierarchy::BuildSparseCover(*metric, c.top_roots);
      HomeClusterCache cache(hierarchy);
      for (int pass = 0; pass < 2; ++pass) {
        for (ShardId home = 0; home < c.shards; ++home) {
          for (Distance x = 0; x <= metric->Diameter(); ++x) {
            const std::uint64_t salt = std::uint64_t{home} * 7 + x + pass;
            ASSERT_EQ(&cache.Find(home, x, salt),
                      &hierarchy.FindHomeCluster(home, x, salt))
                << "home " << home << " x " << x << " pass " << pass;
          }
        }
      }
    }
  }
}

TEST(Hierarchy, ClustersContainingSortedByLevel) {
  net::LineMetric metric(16);
  const auto hierarchy = Hierarchy::BuildLineShifted(metric);
  for (ShardId shard = 0; shard < 16; ++shard) {
    const auto& ids = hierarchy.clusters_containing(shard);
    for (std::size_t i = 1; i < ids.size(); ++i) {
      const Cluster& prev = hierarchy.clusters()[ids[i - 1]];
      const Cluster& next = hierarchy.clusters()[ids[i]];
      EXPECT_LE(std::tuple(prev.layer, prev.sublayer, prev.id),
                std::tuple(next.layer, next.sublayer, next.id));
    }
  }
}

TEST(MultiRoot, DefaultIsSingleRoot) {
  net::LineMetric metric(32);
  const auto hierarchy = Hierarchy::BuildLineShifted(metric);
  ASSERT_EQ(hierarchy.top_roots().size(), 1u);
  const Cluster& root = hierarchy.clusters()[hierarchy.top_roots()[0]];
  EXPECT_TRUE(root.top_root);
  EXPECT_EQ(root.size(), 32u);
  EXPECT_TRUE(root.HasLeader());
}

TEST(MultiRoot, RootsAreFullLeaderedAndPairwiseDistinctlyLed) {
  for (const bool shifted : {true, false}) {
    net::LineMetric metric(64);
    const auto hierarchy = shifted
                               ? Hierarchy::BuildLineShifted(metric, 4)
                               : Hierarchy::BuildSparseCover(metric, 4);
    ASSERT_EQ(hierarchy.top_roots().size(), 4u);
    std::vector<ShardId> leaders;
    for (const std::uint32_t id : hierarchy.top_roots()) {
      const Cluster& root = hierarchy.clusters()[id];
      EXPECT_TRUE(root.top_root);
      EXPECT_EQ(root.size(), 64u) << "roots must be full-membership copies";
      ASSERT_TRUE(root.HasLeader());
      leaders.push_back(root.leader);
    }
    // A full top-layer cluster qualifies every shard as leader, so with
    // roots <= shards the spread must give pairwise-distinct leaders —
    // colocated root leaders would recreate the very serialization the
    // multi-root split removes.
    std::sort(leaders.begin(), leaders.end());
    EXPECT_TRUE(std::adjacent_find(leaders.begin(), leaders.end()) ==
                leaders.end());
    // Extra roots never break the Section-6.1 properties.
    ExpectLeadersValid(hierarchy, metric);
    ExpectHomeClusterSound(hierarchy, metric);
  }
}

TEST(MultiRoot, RootCountClampedToShardCount) {
  net::LineMetric metric(4);
  const auto hierarchy = Hierarchy::BuildLineShifted(metric, 100);
  EXPECT_EQ(hierarchy.top_roots().size(), 4u);
}

TEST(MultiRoot, SingleRootMatchesClassicShape) {
  // top_roots = 1 must be the exact classic construction: same clusters,
  // same leaders, cluster by cluster.
  net::LineMetric metric(32);
  const auto classic = Hierarchy::BuildLineShifted(metric);
  const auto one_root = Hierarchy::BuildLineShifted(metric, 1);
  ASSERT_EQ(classic.clusters().size(), one_root.clusters().size());
  for (std::size_t i = 0; i < classic.clusters().size(); ++i) {
    const Cluster& a = classic.clusters()[i];
    const Cluster& b = one_root.clusters()[i];
    EXPECT_EQ(a.layer, b.layer);
    EXPECT_EQ(a.sublayer, b.sublayer);
    EXPECT_EQ(a.shards, b.shards);
    EXPECT_EQ(a.leader, b.leader);
    EXPECT_EQ(a.top_root, b.top_root);
  }
}

TEST(MultiRoot, SaltSpreadsDiameterSpanningLookupsAcrossRoots) {
  net::LineMetric metric(32);
  const auto hierarchy = Hierarchy::BuildLineShifted(metric, 4);
  const Distance diameter = metric.Diameter();
  std::vector<int> hits(hierarchy.clusters().size(), 0);
  for (std::uint64_t salt = 0; salt < 16; ++salt) {
    const Cluster& cluster = hierarchy.FindHomeCluster(0, diameter, salt);
    EXPECT_TRUE(cluster.top_root);
    EXPECT_TRUE(cluster.HasLeader());
    EXPECT_EQ(cluster.size(), 32u);
    ++hits[cluster.id];
    // Deterministic: the same (home, x, salt) always lands on the same
    // root.
    EXPECT_EQ(&cluster, &hierarchy.FindHomeCluster(0, diameter, salt));
  }
  // 16 consecutive salts over 4 roots: every root gets hit.
  for (const std::uint32_t id : hierarchy.top_roots()) {
    EXPECT_EQ(hits[id], 4) << "root " << id;
  }
  // Lookups that resolve below the top layer ignore the salt entirely.
  EXPECT_EQ(&hierarchy.FindHomeCluster(5, 0, 0),
            &hierarchy.FindHomeCluster(5, 0, 99));
}

// Mirror of LeaderCandidates in hierarchy.cc: a shard qualifies as leader
// of a layer-l cluster iff its (2^l - 1)-neighborhood stays inside the
// cluster.
std::vector<ShardId> QualifyingLeaders(const net::ShardMetric& metric,
                                       const Cluster& cluster) {
  const Distance radius =
      cluster.layer >= 31
          ? metric.Diameter()
          : static_cast<Distance>((1u << cluster.layer) - 1);
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

// Regression for the leader-placement audit: replay the construction in
// cluster-id order (== AddCluster order) and assert a shard leads two
// clusters of one layer only when every candidate of the later cluster
// was already taken — the pigeonhole case (e.g. the 32-shard line's
// layer 0 has 33 clusters), where reuse is unavoidable.
void ExpectLeadersSpreadWithinLayers(const Hierarchy& hierarchy,
                                     const net::ShardMetric& metric) {
  std::vector<std::vector<std::uint8_t>> taken;
  for (const Cluster& cluster : hierarchy.clusters()) {
    if (!cluster.HasLeader()) continue;
    if (taken.size() <= cluster.layer) taken.resize(cluster.layer + 1);
    std::vector<std::uint8_t>& layer_taken = taken[cluster.layer];
    if (layer_taken.empty()) layer_taken.assign(metric.shard_count(), 0);
    if (layer_taken[cluster.leader]) {
      for (const ShardId candidate : QualifyingLeaders(metric, cluster)) {
        EXPECT_TRUE(layer_taken[candidate])
            << "cluster " << cluster.id << " (layer " << cluster.layer
            << ") reused leader " << cluster.leader << " although candidate "
            << candidate << " was free";
      }
    }
    layer_taken[cluster.leader] = 1;
  }
}

TEST(LeaderSpread, NoAvoidableSameLayerColocationLineShifted) {
  for (const ShardId s : {16u, 32u, 64u}) {
    SCOPED_TRACE("s = " + std::to_string(s));
    net::LineMetric metric(s);
    ExpectLeadersSpreadWithinLayers(Hierarchy::BuildLineShifted(metric, 4),
                                    metric);
  }
}

TEST(LeaderSpread, NoAvoidableSameLayerColocationSparseCover) {
  Rng rng(7);
  const struct {
    net::TopologyKind topology;
    ShardId shards;  // grid needs a square count
  } cases[] = {{net::TopologyKind::kRing, 32}, {net::TopologyKind::kGrid, 36}};
  for (const auto& c : cases) {
    SCOPED_TRACE(net::TopologyName(c.topology));
    const auto metric = net::MakeMetric(c.topology, c.shards, &rng);
    ExpectLeadersSpreadWithinLayers(Hierarchy::BuildSparseCover(*metric, 3),
                                    *metric);
  }
}

}  // namespace
}  // namespace stableshard::cluster
