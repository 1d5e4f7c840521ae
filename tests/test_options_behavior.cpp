// Behavior coverage for option knobs that the main suites exercise only at
// their defaults: command-line flag bookkeeping, Δ-stepping result details,
// generator parameter edges, and CLUSTER option semantics (gamma,
// stop_factor, delta_end evolution).

#include <gtest/gtest.h>

#include <cmath>

#include "core/cluster.hpp"
#include "gen/basic.hpp"
#include "gen/mesh.hpp"
#include "gen/rmat.hpp"
#include "gen/road.hpp"
#include "gen/weights.hpp"
#include "graph/builder.hpp"
#include "sssp/delta_stepping.hpp"
#include "test_helpers.hpp"
#include "util/options.hpp"

namespace gdiam {
namespace {

using test::Family;

TEST(DeltaSteppingDetails, ExplicitDeltaIsUsedVerbatim) {
  const Graph g = gen::path(50);
  sssp::DeltaSteppingOptions o;
  o.delta = 7.5;
  EXPECT_DOUBLE_EQ(sssp::delta_stepping(g, 0, o).delta_used, 7.5);
}

TEST(DeltaSteppingDetails, FarthestNodeOnPath) {
  const Graph g = gen::path(64);
  const auto r = sssp::delta_stepping(g, 0, {});
  EXPECT_EQ(r.farthest, 63u);
  EXPECT_DOUBLE_EQ(r.eccentricity, 63.0);
}

TEST(DeltaSteppingDetails, BucketCountTracksDiameterOverDelta) {
  const Graph g = gen::path(100);  // eccentricity 99 from node 0
  sssp::DeltaSteppingOptions o;
  o.delta = 10.0;
  const auto r = sssp::delta_stepping(g, 0, o);
  // Buckets 0..9 processed (bucket index = floor(dist/10)).
  EXPECT_EQ(r.buckets_processed, 10u);
}

TEST(DeltaSteppingDetails, DeltaLargerThanEccIsBellmanFordLike) {
  const Graph g = gen::path(40);
  sssp::DeltaSteppingOptions o;
  o.delta = 1000.0;
  const auto r = sssp::delta_stepping(g, 0, o);
  EXPECT_EQ(r.buckets_processed, 1u);
  EXPECT_DOUBLE_EQ(r.eccentricity, 39.0);
}

TEST(OptionsParsing, UnreadFlagsAreReported) {
  // `gdiam sssp g.gcsr --source 0 --partitons 4`: the command reads every
  // flag it takes; the misspelled one stays unread and is rejected.
  const char* argv[] = {"gdiam",       "sssp", "g.gcsr", "--source",
                        "0",           "--partitons", "4", "--no-adaptive"};
  const util::Options o(8, argv);
  EXPECT_EQ(o.get_int("source", 1), 0);
  EXPECT_EQ(o.get_uint32("partitions", 1), 1u);  // absent: the default
  EXPECT_FALSE(o.has("transport"));
  EXPECT_EQ(o.unread(),
            (std::vector<std::string>{"no-adaptive", "partitons"}));
  // has() counts as reading, like every get_*.
  EXPECT_TRUE(o.has("partitons"));
  EXPECT_TRUE(o.get_bool("no-adaptive", false));
  EXPECT_TRUE(o.unread().empty());
}

TEST(GenEdges, RmatZeroNoiseIsValid) {
  util::Xoshiro256 rng(3);
  gen::RmatParams p;
  p.noise = 0.0;
  const Graph g = gen::rmat(10, 8, rng, p);
  EXPECT_EQ(g.num_nodes(), 1024u);
  EXPECT_TRUE(g.validate());
}

TEST(GenEdges, RoadFullKeepProbabilityIsGridComplete) {
  util::Xoshiro256 rng(5);
  gen::RoadParams p;
  p.keep_probability = 1.0;
  p.diagonal_fraction = 0.0;
  const Graph g = gen::road_network(10, 12, rng, p);
  // Nothing dropped: full 10x12 grid survives as one component.
  EXPECT_EQ(g.num_nodes(), 120u);
  EXPECT_EQ(g.num_edges(), static_cast<EdgeIndex>(12 * 9 + 10 * 11));
}

TEST(GenEdges, RoadZeroJitterGivesSpacingWeights) {
  util::Xoshiro256 rng(7);
  gen::RoadParams p;
  p.keep_probability = 1.0;
  p.diagonal_fraction = 0.0;
  p.jitter = 0.0;
  p.spacing = 250.0;
  const Graph g = gen::road_network(5, 5, rng, p);
  for (const Weight w : g.edge_weights()) EXPECT_DOUBLE_EQ(w, 250.0);
}

TEST(ClusterOptions, LargerGammaSelectsMoreCentersPerStage) {
  const Graph g = test::make_family(Family::kMeshUniform, 900, 3);
  core::ClusterOptions few;
  few.tau = 2;
  few.seed = 7;
  few.gamma = 0.5;
  core::ClusterOptions many = few;
  many.gamma = 8.0;
  const auto c_few = core::cluster(g, few);
  const auto c_many = core::cluster(g, many);
  EXPECT_GT(c_many.num_clusters(), c_few.num_clusters());
  EXPECT_TRUE(c_few.validate(g));
  EXPECT_TRUE(c_many.validate(g));
}

TEST(ClusterOptions, LargerStopFactorStopsEarlierWithMoreSingletons) {
  const Graph g = gen::path(600);
  core::ClusterOptions late;
  late.tau = 2;
  late.seed = 9;
  late.stop_factor = 2.0;
  core::ClusterOptions early = late;
  early.stop_factor = 30.0;
  const auto c_late = core::cluster(g, late);
  const auto c_early = core::cluster(g, early);
  EXPECT_LE(c_early.stages, c_late.stages);
  EXPECT_TRUE(c_early.validate(g));
}

TEST(ClusterOptions, DeltaEndNeverShrinks) {
  // Δ only doubles: delta_end >= the initial guess for every init mode.
  const Graph g = test::make_family(Family::kGnmUniform, 400, 11);
  for (const auto init :
       {core::DeltaInit::kMinWeight, core::DeltaInit::kAverageWeight}) {
    core::ClusterOptions o;
    o.tau = 2;
    o.seed = 13;
    o.delta_init = init;
    const auto c = core::cluster(g, o);
    const Weight start = init == core::DeltaInit::kMinWeight
                             ? g.min_weight()
                             : g.avg_weight();
    EXPECT_GE(c.delta_end, start);
  }
}

TEST(ClusterOptions, EdgelessGraphAllSingletons) {
  const Graph g = build_graph(25, {});
  core::ClusterOptions o;
  o.tau = 2;
  const auto c = core::cluster(g, o);
  EXPECT_TRUE(c.validate(g));
  EXPECT_EQ(c.num_clusters(), 25u);
  EXPECT_DOUBLE_EQ(c.radius, 0.0);
}

TEST(ClusterOptions, SeedChangesCentersNotValidity) {
  const Graph g = test::make_family(Family::kRmatGiant, 300, 17);
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    core::ClusterOptions o;
    o.tau = 4;
    o.seed = seed;
    EXPECT_TRUE(core::cluster(g, o).validate(g)) << "seed " << seed;
  }
}

}  // namespace
}  // namespace gdiam
