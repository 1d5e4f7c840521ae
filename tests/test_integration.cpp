// Cross-module integration tests: full pipelines through the public
// umbrella API (generate → persist → reload → decompose → persist → reload
// → estimate), policy/variant equivalences at pipeline level, and the
// radius-aware vs classic estimator ordering across families.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "gdiam.hpp"
#include "test_helpers.hpp"
#include "util/parallel.hpp"

namespace gdiam {
namespace {

using test::Family;

TEST(Integration, GenerateSaveLoadEstimatePipeline) {
  // The CLI's workflow, via the library API.
  const Graph g = gen::uniform_weights(gen::mesh(40), 11);
  const std::string path = testing::TempDir() + "/pipeline_graph.gcsr";
  io::write_gcsr(g, path);
  const Graph loaded = io::load_graph(path);

  core::DiameterApproxOptions o;
  o.cluster.tau = 8;
  o.cluster.seed = 5;
  o.quotient.exact_threshold = 100000;
  const auto direct = core::approximate_diameter(g, o);
  const auto reloaded = core::approximate_diameter(loaded, o);
  EXPECT_DOUBLE_EQ(direct.estimate, reloaded.estimate);
  EXPECT_EQ(direct.stats, reloaded.stats);
}

TEST(Integration, ClusteringSerializationRoundTrip) {
  const Graph g = test::make_family(Family::kGnmUniform, 300, 7);
  core::ClusterOptions o;
  o.tau = 8;
  o.seed = 3;
  const core::Clustering c = core::cluster(g, o);

  std::stringstream s(std::ios::in | std::ios::out | std::ios::binary);
  core::write_clustering(c, s);
  const core::Clustering back = core::read_clustering(s);

  EXPECT_EQ(back.center_of, c.center_of);
  EXPECT_EQ(back.dist_to_center, c.dist_to_center);
  EXPECT_EQ(back.centers, c.centers);
  EXPECT_DOUBLE_EQ(back.radius, c.radius);
  EXPECT_DOUBLE_EQ(back.delta_end, c.delta_end);
  EXPECT_EQ(back.stages, c.stages);
  EXPECT_EQ(back.stats, c.stats);
  EXPECT_TRUE(back.validate(g));
}

TEST(Integration, ClusteringFileRoundTripAndQuotientReuse) {
  const Graph g = test::make_family(Family::kMeshUniform, 400, 9);
  core::ClusterOptions o;
  o.tau = 4;
  o.seed = 7;
  const core::Clustering c = core::cluster(g, o);
  const std::string path = testing::TempDir() + "/clustering.gdcl";
  core::write_clustering_file(c, path);
  const core::Clustering back = core::read_clustering_file(path);

  // The reloaded clustering builds the identical quotient.
  const core::QuotientGraph q1 = core::build_quotient(g, c);
  const core::QuotientGraph q2 = core::build_quotient(g, back);
  EXPECT_EQ(q1.graph.num_nodes(), q2.graph.num_nodes());
  EXPECT_EQ(q1.graph.num_edges(), q2.graph.num_edges());
  EXPECT_EQ(q1.cluster_radius, q2.cluster_radius);
}

TEST(Integration, ClusteringSerializationRejectsGarbage) {
  std::stringstream s(std::ios::in | std::ios::out | std::ios::binary);
  s << "not a clustering";
  EXPECT_THROW((void)core::read_clustering(s), std::runtime_error);
  EXPECT_THROW((void)core::read_clustering_file("/nonexistent/x.gdcl"),
               std::runtime_error);
}

TEST(Integration, PushPullIdenticalThroughWholePipeline) {
  for (const Family f : {Family::kMeshUniform, Family::kRmatGiant}) {
    const Graph g = test::make_family(f, 350, 13);
    core::DiameterApproxOptions o;
    o.cluster.tau = 8;
    o.cluster.seed = 11;
    o.quotient.exact_threshold = 100000;
    o.cluster.policy = core::GrowingPolicy::kPush;
    const auto push = core::approximate_diameter(g, o);
    o.cluster.policy = core::GrowingPolicy::kPull;
    const auto pull = core::approximate_diameter(g, o);
    EXPECT_DOUBLE_EQ(push.estimate, pull.estimate) << test::family_name(f);
    EXPECT_EQ(push.stats.messages, pull.stats.messages);
    EXPECT_EQ(push.stats.rounds(), pull.stats.rounds());
    EXPECT_EQ(push.num_clusters, pull.num_clusters);
  }
}

// Radius-aware vs classic estimator ordering, across families/taus/seeds:
// both conservative, refined never worse.
class EstimatorOrdering
    : public testing::TestWithParam<std::tuple<Family, std::uint32_t>> {};

TEST_P(EstimatorOrdering, RefinedIsConservativeAndTighter) {
  const auto [family, tau] = GetParam();
  const Graph g = test::make_family(family, 140, 19);
  const Weight diam = test::brute_force_diameter(g);

  core::DiameterApproxOptions o;
  o.cluster.tau = tau;
  o.cluster.seed = 19;
  o.quotient.exact_threshold = 100000;
  o.radius_aware = true;
  const auto refined = core::approximate_diameter(g, o);
  o.radius_aware = false;
  const auto classic = core::approximate_diameter(g, o);

  EXPECT_GE(refined.estimate * (1.0 + 1e-6), diam);
  EXPECT_GE(classic.estimate * (1.0 + 1e-6), diam);
  EXPECT_LE(refined.estimate, classic.estimate * (1.0 + 1e-12));
  EXPECT_DOUBLE_EQ(classic.estimate, refined.estimate_classic);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EstimatorOrdering,
    testing::Combine(testing::ValuesIn(test::all_families()),
                     testing::Values(2u, 8u)),
    [](const auto& param_info) {
      return std::string(test::family_name(std::get<0>(param_info.param))) +
             "_t" + std::to_string(std::get<1>(param_info.param));
    });

TEST(Integration, DiameterEstimateConsistentWithSsspBounds) {
  // The three estimators must be mutually consistent on the same graph:
  // sweep LB <= exact <= CL-DIAM estimate, and DS 2-approx >= exact.
  const Graph g = test::make_family(Family::kTreePlusChords, 130, 23);
  const Weight exact = test::brute_force_diameter(g);
  const Weight lb = sssp::diameter_lower_bound(g, 8, 3).lower_bound;
  core::DiameterApproxOptions o;
  o.cluster.tau = 4;
  o.quotient.exact_threshold = 100000;
  const auto cl = core::approximate_diameter(g, o);
  const auto ds = sssp::diameter_two_approx(g, 0);

  EXPECT_LE(lb, exact + 1e-9);
  EXPECT_GE(cl.estimate * (1.0 + 1e-6), exact);
  EXPECT_GE(ds.upper_bound + 1e-9, exact);
  EXPECT_LE(ds.eccentricity, exact + 1e-9);
}

TEST(Integration, HopAnalysisConsistentWithClusterRounds) {
  // Rounds of a τ=1 CLUSTER run cannot exceed a polylog multiple of the
  // hop diameter on a unit-weight graph (the Ω(Ψ) vs Õ(Ψ/τ^(1/b)) story).
  const Graph g = gen::mesh(32);
  const std::uint32_t psi = analysis::hop_diameter_lower_bound(g, 3, 5);
  core::ClusterOptions o;
  o.tau = 1;
  o.seed = 3;
  const core::Clustering c = core::cluster(g, o);
  EXPECT_GT(psi, 0u);
  EXPECT_LT(c.stats.relaxation_rounds,
            4ull * psi * static_cast<std::uint64_t>(
                             std::log2(double(g.num_nodes())) + 1));
}

TEST(Integration, ScaleEnvVariableRoundTrip) {
  ASSERT_EQ(setenv("GDIAM_SCALE", "small", 1), 0);
  EXPECT_EQ(util::scale_from_env(), util::Scale::kSmall);
  ASSERT_EQ(setenv("GDIAM_SCALE", "", 1), 0);
  EXPECT_EQ(util::scale_from_env(), util::Scale::kCi);
  unsetenv("GDIAM_SCALE");
}

TEST(Integration, DeterministicEndToEndAcrossThreadCounts) {
  // The determinism guarantee that matters operationally: the same seed
  // gives the same estimate regardless of the OpenMP thread count.
  const Graph g = test::make_family(Family::kRmatGiant, 400, 29);
  core::DiameterApproxOptions o;
  o.cluster.tau = 8;
  o.cluster.seed = 101;
  o.quotient.exact_threshold = 100000;

  const int prev = util::num_threads();
  util::set_num_threads(1);
  const auto single = core::approximate_diameter(g, o);
  util::set_num_threads(prev);
  const auto multi = core::approximate_diameter(g, o);
  EXPECT_DOUBLE_EQ(single.estimate, multi.estimate);
  EXPECT_EQ(single.stats, multi.stats);
  EXPECT_EQ(single.clustering.center_of, multi.clustering.center_of);
}

}  // namespace
}  // namespace gdiam
