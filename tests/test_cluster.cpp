// Tests for core/cluster.hpp — Algorithm CLUSTER(G, τ): coverage, center
// structure, distance upper bounds, parity with the serial reference of
// tests/test_helpers.hpp, determinism, options, degenerate inputs.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/cluster.hpp"
#include "gen/basic.hpp"
#include "gen/mesh.hpp"
#include "gen/weights.hpp"
#include "graph/builder.hpp"
#include "test_helpers.hpp"

namespace gdiam::core {
namespace {

using test::Family;

ClusterOptions opts_with_tau(std::uint32_t tau, std::uint64_t seed = 1) {
  ClusterOptions o;
  o.tau = tau;
  o.seed = seed;
  return o;
}

TEST(Cluster, EmptyGraph) {
  const Clustering c = cluster(Graph{}, opts_with_tau(4));
  EXPECT_EQ(c.num_clusters(), 0u);
  EXPECT_TRUE(c.validate(Graph{}));
}

TEST(Cluster, SingleNode) {
  const Graph g = build_graph(1, {});
  const Clustering c = cluster(g, opts_with_tau(1));
  EXPECT_TRUE(c.validate(g));
  EXPECT_EQ(c.num_clusters(), 1u);
  EXPECT_DOUBLE_EQ(c.radius, 0.0);
}

TEST(Cluster, HugeTauMakesAllSingletons) {
  // With τ ≥ n the stop threshold exceeds n: zero stages, all singletons.
  const Graph g = gen::path(50);
  const Clustering c = cluster(g, opts_with_tau(50));
  EXPECT_TRUE(c.validate(g));
  EXPECT_EQ(c.num_clusters(), 50u);
  EXPECT_DOUBLE_EQ(c.radius, 0.0);
  EXPECT_EQ(c.stages, 0u);
}

TEST(Cluster, InvalidTauThrows) {
  EXPECT_THROW((void)cluster(gen::path(4), opts_with_tau(0)),
               std::invalid_argument);
}

TEST(Cluster, CoversDisconnectedGraphs) {
  GraphBuilder b(40);
  for (NodeId u = 0; u + 1 < 20; ++u) b.add_edge(u, u + 1, 1.0);
  for (NodeId u = 20; u + 1 < 40; ++u) b.add_edge(u, u + 1, 1.0);
  const Graph g = b.build();
  const Clustering c = cluster(g, opts_with_tau(1, 5));
  EXPECT_TRUE(c.validate(g));
  // No cluster may span both components.
  for (NodeId u = 0; u < 40; ++u) {
    EXPECT_EQ(c.center_of[u] < 20, u < 20) << "node " << u;
  }
}

// ---------------------------------------------------------------------------
// Property sweep: structural invariants on every family × τ × seed.

class ClusterInvariants
    : public testing::TestWithParam<
          std::tuple<Family, std::uint32_t, std::uint64_t>> {};

TEST_P(ClusterInvariants, ValidCoverRadiusAndDistanceBounds) {
  const auto [family, tau, seed] = GetParam();
  const Graph g = test::make_family(family, 250, seed);
  const Clustering c = cluster(g, opts_with_tau(tau, seed));

  ASSERT_TRUE(c.validate(g));
  EXPECT_GE(c.num_clusters(), 1u);
  EXPECT_LE(c.num_clusters(), g.num_nodes());

  // radius is the max distance bound.
  Weight max_d = 0.0;
  for (const Weight d : c.dist_to_center) max_d = std::max(max_d, d);
  EXPECT_DOUBLE_EQ(c.radius, max_d);

  test::expect_distance_upper_bounds(g, c);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ClusterInvariants,
    testing::Combine(testing::ValuesIn(test::all_families()),
                     testing::Values(2u, 8u),
                     testing::Values(1u, 42u)),
    [](const auto& param_info) {
      return std::string(test::family_name(std::get<0>(param_info.param))) +
             "_t" + std::to_string(std::get<1>(param_info.param)) + "_s" +
             std::to_string(std::get<2>(param_info.param));
    });

TEST(Cluster, StepCappedRmatDistancesBoundDijkstra) {
  // A growth stopped mid-wave — by the step cap or by the coverage target
  // firing while labels are still in flux — leaves labels whose
  // relaxation-forest parent has moved to another cluster, so contraction
  // takes the label_chain_bound fallback; its distances must still bound
  // Dijkstra's from above.
  const Graph g = test::make_family(Family::kRmatGiant, 1024, 5);
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    ClusterOptions o = opts_with_tau(2, seed);
    o.max_steps_per_growth = 2;
    const Clustering c = cluster(g, o);
    ASSERT_TRUE(c.validate(g));
    EXPECT_GT(test::reference_cluster(g, o).fallbacks, 0u);
    test::expect_distance_upper_bounds(g, c);
  }
}

// ---------------------------------------------------------------------------
// Parity: the parallel stage loop (parallel rebuilds, per-cluster
// contraction walks, parallel finalize) against the serial reference, bit
// for bit, under every growing policy.

struct PolicyCase {
  const char* name;
  GrowingPolicy policy;
  std::uint32_t partitions;
};

const PolicyCase kPolicyCases[] = {
    {"push", GrowingPolicy::kPush, 1},
    {"pull", GrowingPolicy::kPull, 1},
    {"partitioned_k1", GrowingPolicy::kPartitioned, 1},
    {"partitioned_k3", GrowingPolicy::kPartitioned, 3},
};

/// cluster() under every policy against reference_cluster; returns the
/// reference's fallback count.
std::uint64_t expect_policies_match_reference(const Graph& g,
                                              ClusterOptions o) {
  std::uint64_t fallbacks = 0;
  for (const PolicyCase& pc : kPolicyCases) {
    SCOPED_TRACE(pc.name);
    o.policy = pc.policy;
    o.partition.num_partitions = pc.partitions;
    const auto shards =
        pc.policy == GrowingPolicy::kPartitioned
            ? test::shards_for(g, o.partition)
            : nullptr;
    const test::ClusterReference want =
        test::reference_cluster(g, o, shards.get());
    const Clustering got = cluster(g, o);
    test::expect_cluster_matches(got, want.clustering);
    fallbacks = want.fallbacks;
  }
  return fallbacks;
}

class ClusterParity
    : public testing::TestWithParam<
          std::tuple<Family, std::uint32_t, std::uint64_t>> {};

TEST_P(ClusterParity, MatchesSerialReference) {
  const auto [family, tau, seed] = GetParam();
  const Graph g = test::make_family(family, 250, seed);
  expect_policies_match_reference(g, opts_with_tau(tau, seed));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ClusterParity,
    testing::Combine(testing::ValuesIn(test::all_families()),
                     testing::Values(2u, 8u),
                     testing::Values(1u, 42u)),
    [](const auto& param_info) {
      return std::string(test::family_name(std::get<0>(param_info.param))) +
             "_t" + std::to_string(std::get<1>(param_info.param)) + "_s" +
             std::to_string(std::get<2>(param_info.param));
    });

TEST(ClusterParity, StepCappedMatchesSerialReference) {
  // A capped growth stops mid-wave, so the contraction fallback fires on
  // R-MAT: pin that path too.
  for (const Family f : {Family::kRmatGiant, Family::kMeshUniform}) {
    SCOPED_TRACE(test::family_name(f));
    const Graph g = test::make_family(f, 1024, 5);
    ClusterOptions o = opts_with_tau(2, 1);
    o.max_steps_per_growth = 2;
    const std::uint64_t fallbacks = expect_policies_match_reference(g, o);
    if (f == Family::kRmatGiant) EXPECT_GT(fallbacks, 0u);
  }
}

TEST(Cluster, DeterministicForFixedSeed) {
  const Graph g = test::make_family(Family::kMeshUniform, 400, 7);
  const Clustering a = cluster(g, opts_with_tau(4, 123));
  const Clustering b = cluster(g, opts_with_tau(4, 123));
  EXPECT_EQ(a.center_of, b.center_of);
  EXPECT_EQ(a.dist_to_center, b.dist_to_center);
  EXPECT_EQ(a.stats, b.stats);
}

TEST(Cluster, DifferentSeedsGiveDifferentDecompositions) {
  const Graph g = test::make_family(Family::kMeshUniform, 400, 7);
  const Clustering a = cluster(g, opts_with_tau(4, 1));
  const Clustering b = cluster(g, opts_with_tau(4, 2));
  EXPECT_NE(a.centers, b.centers);
}

TEST(Cluster, PushAndPullPoliciesAgree) {
  const Graph g = test::make_family(Family::kGnmUniform, 300, 11);
  ClusterOptions o = opts_with_tau(4, 9);
  o.policy = GrowingPolicy::kPush;
  const Clustering push = cluster(g, o);
  o.policy = GrowingPolicy::kPull;
  const Clustering pull = cluster(g, o);
  EXPECT_EQ(push.center_of, pull.center_of);
  EXPECT_EQ(push.dist_to_center, pull.dist_to_center);
  EXPECT_EQ(push.stats.relaxation_rounds, pull.stats.relaxation_rounds);
  EXPECT_EQ(push.stats.messages, pull.stats.messages);
}

TEST(Cluster, DeltaInitMinStartsAtMinWeight) {
  const Graph g = test::make_family(Family::kMeshUniform, 200, 13);
  ClusterOptions o = opts_with_tau(2, 3);
  o.delta_init = DeltaInit::kMinWeight;
  const Clustering c = cluster(g, o);
  EXPECT_TRUE(c.validate(g));
  // Δ only ever doubles, so Δ_end is min_weight · 2^k.
  const double ratio = c.delta_end / g.min_weight();
  EXPECT_NEAR(std::log2(ratio), std::round(std::log2(ratio)), 1e-9);
}

TEST(Cluster, DeltaInitFixedValidation) {
  const Graph g = gen::path(60);
  ClusterOptions o = opts_with_tau(2);
  o.delta_init = DeltaInit::kFixed;
  o.delta_fixed = 0.0;
  EXPECT_THROW((void)cluster(g, o), std::invalid_argument);
  o.delta_fixed = 4.0;
  EXPECT_TRUE(cluster(g, o).validate(g));
}

TEST(Cluster, OversizedInitialDeltaBloatsRadiusOnBimodalMesh) {
  // The paper's Section 5 Δ-initialization study: on a mesh whose edges are
  // weight 1 with probability 0.1 and 10⁻⁶ otherwise, a self-tuned Δ keeps
  // clusters inside the light percolation cluster (tiny radius), while
  // Δ₀ ≈ diameter happily swallows weight-1 edges and blows the radius up.
  const Graph g = gen::bimodal_weights(gen::mesh(24), 1.0, 1e-6, 0.1, 7);
  ClusterOptions tuned = opts_with_tau(2, 3);
  tuned.delta_init = DeltaInit::kMinWeight;
  ClusterOptions oversized = tuned;
  oversized.delta_init = DeltaInit::kFixed;
  oversized.delta_fixed = 2.0;  // ≈ the weighted diameter
  const Clustering small_c = cluster(g, tuned);
  const Clustering big_c = cluster(g, oversized);
  EXPECT_TRUE(small_c.validate(g));
  EXPECT_TRUE(big_c.validate(g));
  EXPECT_GT(big_c.radius, 10.0 * small_c.radius);
  EXPECT_LT(small_c.radius, 0.1);
}

TEST(Cluster, StepCapStillProducesValidClustering) {
  const Graph g = test::make_family(Family::kMeshUniform, 400, 17);
  ClusterOptions o = opts_with_tau(2, 5);
  o.max_steps_per_growth = 3;
  const Clustering c = cluster(g, o);
  EXPECT_TRUE(c.validate(g));
}

TEST(Cluster, StepCapReducesRelaxationRoundsOnSkewedTopology) {
  // The Section 4 cap targets high-l_Delta inputs: on a long weighted path
  // uncapped PartialGrowth runs hop-deep relaxation sequences, so a tight
  // cap must cut the total relaxation rounds.
  const Graph g = gen::uniform_weights(gen::path(8000), 19);
  ClusterOptions uncapped = opts_with_tau(2, 7);
  ClusterOptions capped = uncapped;
  capped.max_steps_per_growth = 8;
  const Clustering cu = cluster(g, uncapped);
  const Clustering cc = cluster(g, capped);
  EXPECT_TRUE(cc.validate(g));
  EXPECT_LT(cc.stats.relaxation_rounds, cu.stats.relaxation_rounds);
}

TEST(Cluster, StatsPopulated) {
  const Graph g = test::make_family(Family::kTreePlusChords, 300, 23);
  const Clustering c = cluster(g, opts_with_tau(2, 11));
  EXPECT_GT(c.stats.relaxation_rounds, 0u);
  EXPECT_GT(c.stats.auxiliary_rounds, 0u);
  EXPECT_GT(c.stats.messages, 0u);
  EXPECT_GT(c.stats.node_updates, 0u);
  EXPECT_GT(c.stages, 0u);
}

TEST(Cluster, FewerClustersWithSmallerTau) {
  const Graph g = test::make_family(Family::kMeshUniform, 900, 29);
  const Clustering few = cluster(g, opts_with_tau(1, 3));
  const Clustering many = cluster(g, opts_with_tau(16, 3));
  EXPECT_LT(few.num_clusters(), many.num_clusters());
}

TEST(Cluster, UnweightedPathRadiusReasonable) {
  // On a unit path with τ=1, stages halve the uncovered set; the radius must
  // stay well below the diameter (otherwise the decomposition is useless).
  const Graph g = gen::path(512);
  const Clustering c = cluster(g, opts_with_tau(1, 13));
  EXPECT_TRUE(c.validate(g));
  EXPECT_LT(c.radius, 511.0 / 2.0);
}

TEST(TauForClusterTarget, BasicShape) {
  EXPECT_GE(tau_for_cluster_target(0, 100), 1u);
  EXPECT_GE(tau_for_cluster_target(1u << 20, 0), 1u);
  EXPECT_GE(tau_for_cluster_target(1u << 20, 100000),
            tau_for_cluster_target(1u << 20, 1000));
  EXPECT_GE(tau_for_cluster_target(1u << 20, 120000), 100u);
}

TEST(TauForClusterTarget, KeepsClusterCountNearTarget) {
  const Graph g = test::make_family(Family::kMeshUniform, 2500, 31);
  const NodeId target = 400;
  const auto tau = tau_for_cluster_target(g.num_nodes(), target);
  const Clustering c = cluster(g, opts_with_tau(tau, 3));
  EXPECT_LE(c.num_clusters(), 2u * target);
}

}  // namespace
}  // namespace gdiam::core
