// Tests for core/cluster2.hpp — Algorithm CLUSTER2(G, τ): coverage, the
// iteration-budget property, radius bound R_CL2 ≤ ⌈log₂ n⌉ · 2·R_CL,
// determinism, and comparison with the bootstrap CLUSTER run.

#include <gtest/gtest.h>

#include <cmath>

#include "core/cluster2.hpp"
#include "gen/basic.hpp"
#include "gen/weights.hpp"
#include "graph/builder.hpp"
#include "test_helpers.hpp"

namespace gdiam::core {
namespace {

using test::Family;

Cluster2Options opts_with_tau(std::uint32_t tau, std::uint64_t seed = 1) {
  Cluster2Options o;
  o.base.tau = tau;
  o.base.seed = seed;
  return o;
}

TEST(Cluster2, EmptyGraph) {
  const Cluster2Result r = cluster2(Graph{}, opts_with_tau(2));
  EXPECT_EQ(r.clustering.num_clusters(), 0u);
}

TEST(Cluster2, SingleNode) {
  const Graph g = build_graph(1, {});
  const Cluster2Result r = cluster2(g, opts_with_tau(1));
  EXPECT_TRUE(r.clustering.validate(g));
  EXPECT_DOUBLE_EQ(r.clustering.radius, 0.0);
}

class Cluster2Invariants
    : public testing::TestWithParam<std::tuple<Family, std::uint64_t>> {};

TEST_P(Cluster2Invariants, CoverageRadiusAndDistanceBounds) {
  const auto [family, seed] = GetParam();
  const Graph g = test::make_family(family, 220, seed);
  const Cluster2Result r = cluster2(g, opts_with_tau(4, seed));
  const Clustering& c = r.clustering;

  ASSERT_TRUE(c.validate(g));

  // Radius bound of Lemma 2's mechanics: every cluster's growth is capped by
  // its per-iteration budget, which never exceeds iterations · 2·R_CL.
  const double iterations =
      std::max(1.0, std::ceil(std::log2(static_cast<double>(g.num_nodes()))));
  const Weight quantum = c.delta_end;  // 2·R_CL (or fallback) by construction
  EXPECT_LE(c.radius, iterations * quantum * (1.0 + 1e-6));

  test::expect_distance_upper_bounds(g, c);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Cluster2Invariants,
    testing::Combine(testing::ValuesIn(test::all_families()),
                     testing::Values(3u, 77u)),
    [](const auto& param_info) {
      return std::string(test::family_name(std::get<0>(param_info.param))) +
             "_s" + std::to_string(std::get<1>(param_info.param));
    });

TEST(Cluster2, DeterministicForFixedSeed) {
  const Graph g = test::make_family(Family::kGnmUniform, 300, 5);
  const Cluster2Result a = cluster2(g, opts_with_tau(4, 55));
  const Cluster2Result b = cluster2(g, opts_with_tau(4, 55));
  EXPECT_EQ(a.clustering.center_of, b.clustering.center_of);
  EXPECT_EQ(a.clustering.dist_to_center, b.clustering.dist_to_center);
  EXPECT_EQ(a.clustering.stats, b.clustering.stats);
}

TEST(Cluster2, ReportsBootstrapRadius) {
  const Graph g = test::make_family(Family::kMeshUniform, 400, 7);
  const Cluster2Result r = cluster2(g, opts_with_tau(4, 5));
  EXPECT_GT(r.radius_cluster1, 0.0);
  EXPECT_DOUBLE_EQ(r.clustering.delta_end, 2.0 * r.radius_cluster1);
}

TEST(Cluster2, StatsIncludeBootstrap) {
  const Graph g = test::make_family(Family::kTreePlusChords, 250, 9);
  const Cluster2Result r = cluster2(g, opts_with_tau(2, 7));
  EXPECT_GE(r.clustering.stats.relaxation_rounds,
            r.bootstrap_stats.relaxation_rounds);
  EXPECT_GE(r.clustering.stats.messages, r.bootstrap_stats.messages);
  EXPECT_GT(r.clustering.stages, 0u);
}

TEST(Cluster2, ClusterCountGrowsWithTau) {
  // Larger τ shrinks the bootstrap radius R_CL, hence the growth quantum
  // 2·R_CL, so more CLUSTER2 clusters are needed to cover the graph.
  const Graph g = test::make_family(Family::kMeshUniform, 900, 11);
  const Cluster2Result coarse = cluster2(g, opts_with_tau(1, 13));
  const Cluster2Result fine = cluster2(g, opts_with_tau(32, 13));
  EXPECT_LT(coarse.clustering.radius, kInfiniteWeight);
  EXPECT_GT(fine.clustering.num_clusters(),
            coarse.clustering.num_clusters());
}

TEST(Cluster2, StepCapStillCovers) {
  const Graph g = test::make_family(Family::kMeshUniform, 400, 15);
  Cluster2Options o = opts_with_tau(2, 3);
  o.max_steps_per_growth = 2;
  const Cluster2Result r = cluster2(g, o);
  EXPECT_TRUE(r.clustering.validate(g));
}

TEST(Cluster2, StepCappedRmatDistancesBoundDijkstra) {
  const Graph g = test::make_family(Family::kRmatGiant, 1024, 5);
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Cluster2Options o = opts_with_tau(4, seed);
    o.base.max_steps_per_growth = 2;
    o.max_steps_per_growth = 2;
    const Cluster2Result r = cluster2(g, o);
    ASSERT_TRUE(r.clustering.validate(g));
    test::expect_distance_upper_bounds(g, r.clustering);
  }
}

TEST(Cluster2, DisconnectedGraphCovered) {
  GraphBuilder b(60);
  for (NodeId u = 0; u + 1 < 30; ++u) b.add_edge(u, u + 1, 1.0);
  for (NodeId u = 30; u + 1 < 60; ++u) b.add_edge(u, u + 1, 2.0);
  const Graph g = b.build();
  const Cluster2Result r = cluster2(g, opts_with_tau(2, 21));
  ASSERT_TRUE(r.clustering.validate(g));
  for (NodeId u = 0; u < 60; ++u) {
    EXPECT_EQ(r.clustering.center_of[u] < 30, u < 30);
  }
}

}  // namespace
}  // namespace gdiam::core
