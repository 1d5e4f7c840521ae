// Adaptive sparse/dense frontier engine (core/frontier.hpp): unit tests of
// the Frontier itself, plus the parity suite pinning the kernels built on it
// bit-for-bit against the serial references of test_helpers.hpp —
// distances, labels and every RoundStats counter — on all graph families,
// flat and partitioned (K ∈ {1, 2, 7}), at thresholds that force either
// representation, including disconnected graphs and the single-vertex
// frontiers that force sparse→dense→sparse representation transitions.

#include "core/frontier.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "core/cluster.hpp"
#include "core/growing.hpp"
#include "graph/builder.hpp"
#include "exec/context.hpp"
#include "sssp/delta_stepping.hpp"
#include "sssp/sweep.hpp"
#include "test_helpers.hpp"

namespace gdiam {
namespace {

using core::Frontier;
using core::FrontierMode;
using core::FrontierOptions;
using test::Family;

// ---------------------------------------------------------------------------
// Frontier unit tests.

TEST(Frontier, InsertDedupAdvanceMaterialize) {
  Frontier f(100);
  EXPECT_TRUE(f.empty());
  EXPECT_TRUE(f.insert(3));
  EXPECT_FALSE(f.insert(3));  // duplicate within the round
  EXPECT_TRUE(f.insert(7));
  EXPECT_TRUE(f.insert(99));
  EXPECT_FALSE(f.contains(3));  // not sealed yet
  f.advance();
  EXPECT_EQ(f.size(), 3u);
  EXPECT_TRUE(f.contains(3));
  EXPECT_TRUE(f.contains(7));
  EXPECT_TRUE(f.contains(99));
  EXPECT_FALSE(f.contains(4));
  std::vector<NodeId> got = f.nodes();
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<NodeId>{3, 7, 99}));
  // A sealed member is insertable again for the next round.
  EXPECT_TRUE(f.insert(3));
  f.advance();
  EXPECT_EQ(f.size(), 1u);
  EXPECT_TRUE(f.contains(3));
  EXPECT_FALSE(f.contains(7));
}

TEST(Frontier, LocalQueueOverflowFlushesBlocks) {
  FrontierOptions o;
  o.local_queue_capacity = 4;  // force many block flushes
  Frontier f(1000, o);
  for (NodeId v = 0; v < 1000; v += 2) EXPECT_TRUE(f.insert(v));
  f.advance();
  EXPECT_EQ(f.size(), 500u);
  std::vector<NodeId> got = f.nodes();
  std::sort(got.begin(), got.end());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], static_cast<NodeId>(2 * i));
  }
}

TEST(Frontier, AdaptiveSwitchesSparseDenseSparse) {
  FrontierOptions o;
  o.dense_fraction = 0.1;  // threshold: 10 of 100
  Frontier f(100, o);
  EXPECT_EQ(f.collect_mode(), FrontierMode::kSparse);
  for (NodeId v = 0; v < 50; ++v) f.insert(v);
  f.advance();  // sealed 50 > 10 → next collection dense
  EXPECT_EQ(f.current_mode(), FrontierMode::kSparse);
  EXPECT_EQ(f.collect_mode(), FrontierMode::kDense);
  for (NodeId v = 40; v < 60; ++v) EXPECT_TRUE(f.insert(v));
  for (NodeId v = 40; v < 60; ++v) EXPECT_FALSE(f.insert(v));  // bitmap dedup
  f.advance();  // sealed 20 > 10 → dense again; dense lists ascending
  EXPECT_EQ(f.current_mode(), FrontierMode::kDense);
  const auto& nodes = f.nodes();
  ASSERT_EQ(nodes.size(), 20u);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_EQ(nodes[i], static_cast<NodeId>(40 + i));
  }
  EXPECT_TRUE(f.contains(40));  // dense advance rewrote the stamps
  f.insert(5);
  f.advance();  // sealed 1 ≤ 10 → back to sparse
  EXPECT_EQ(f.collect_mode(), FrontierMode::kSparse);
  EXPECT_TRUE(f.contains(5));
  EXPECT_FALSE(f.contains(40));
}

TEST(Frontier, HysteresisKeepsDenseInsideTheBand) {
  FrontierOptions o;
  o.dense_fraction = 0.2;    // up at >20 of 100
  o.sparse_fraction = 0.05;  // down at <=5 of 100
  Frontier f(100, o);
  for (NodeId v = 0; v < 30; ++v) f.insert(v);
  f.advance();  // sealed 30 > 20 → dense
  EXPECT_EQ(f.collect_mode(), FrontierMode::kDense);
  for (NodeId v = 0; v < 10; ++v) f.insert(v);
  f.advance();  // sealed 10: inside the (5, 20] band → stays dense
  EXPECT_EQ(f.collect_mode(), FrontierMode::kDense);
  for (NodeId v = 0; v < 10; ++v) f.insert(v);
  f.advance();  // still inside the band: no thrash back and forth
  EXPECT_EQ(f.collect_mode(), FrontierMode::kDense);
  for (NodeId v = 0; v < 4; ++v) f.insert(v);
  f.advance();  // sealed 4 <= 5 → back to sparse
  EXPECT_EQ(f.collect_mode(), FrontierMode::kSparse);
  for (NodeId v = 0; v < 10; ++v) f.insert(v);
  f.advance();  // sealed 10 ≤ 20: sparse side of the band keeps sparse
  EXPECT_EQ(f.collect_mode(), FrontierMode::kSparse);
}

TEST(Frontier, HysteresisBandNeverInverts) {
  FrontierOptions o;
  o.dense_fraction = 0.1;
  o.sparse_fraction = 0.5;  // misconfigured: down above up
  Frontier f(100, o);
  // sparse_threshold() clamps to dense_threshold(): the switch degenerates
  // to the single-threshold policy instead of oscillating.
  EXPECT_EQ(f.sparse_threshold(), f.dense_threshold());
  for (NodeId v = 0; v < 50; ++v) f.insert(v);
  f.advance();
  EXPECT_EQ(f.collect_mode(), FrontierMode::kDense);
  f.insert(0);
  f.advance();  // sealed 1 <= clamped threshold → sparse
  EXPECT_EQ(f.collect_mode(), FrontierMode::kSparse);
}

TEST(Frontier, ContainsStableWhileDenseRoundCollects) {
  FrontierOptions o;
  o.dense_fraction = 0.01;
  Frontier f(64, o);
  for (NodeId v = 0; v < 32; ++v) f.insert(v);
  f.advance();
  ASSERT_EQ(f.collect_mode(), FrontierMode::kDense);
  // Fused scan+collect rounds (dense pull) insert while reading membership:
  // dense inserts must not disturb contains() of the current frontier.
  EXPECT_TRUE(f.insert(10));  // 10 is also a current member
  EXPECT_TRUE(f.contains(10));
  EXPECT_FALSE(f.contains(40));
  EXPECT_TRUE(f.insert(40));
  EXPECT_FALSE(f.contains(40));  // member of the next round, not this one
}

TEST(Frontier, AdaptiveOffStaysSparse) {
  // dense_fraction = 1.0 is how a candidate set pins the sparse
  // representation: a sealed set of all n nodes does not exceed n.
  FrontierOptions o;
  o.dense_fraction = 1.0;
  Frontier f(50, o);
  for (int round = 0; round < 3; ++round) {
    for (NodeId v = 0; v < 50; ++v) f.insert(v);
    f.advance();
    EXPECT_EQ(f.size(), 50u);
    EXPECT_EQ(f.current_mode(), FrontierMode::kSparse);
    EXPECT_EQ(f.collect_mode(), FrontierMode::kSparse);
  }
}

TEST(Frontier, ClearForgetsCurrentAndPartialRounds) {
  Frontier f(32);
  f.insert(1);
  f.advance();
  f.insert(2);  // partially collected round
  f.clear();
  EXPECT_TRUE(f.empty());
  EXPECT_FALSE(f.contains(1));
  EXPECT_TRUE(f.insert(2));  // the abandoned insert was forgotten
  f.advance();
  EXPECT_TRUE(f.contains(2));
}

TEST(Frontier, ResetKeepsNothingAcrossRuns) {
  Frontier f(16);
  f.insert(3);
  f.advance();
  f.reset(16);
  EXPECT_TRUE(f.empty());
  EXPECT_FALSE(f.contains(3));
  f.reset(8);  // shrink
  EXPECT_EQ(f.num_nodes(), 8u);
}

// ---------------------------------------------------------------------------
// Δ-stepping parity: the kernel against the serial reference
// (test::reference_delta_stepping) on distances, buckets and every model
// counter, for the flat kernel and all shard counts, at the default
// sparse/dense threshold and at an aggressive one that forces dense rounds.


void expect_delta_parity(const Graph& g, NodeId source,
                         sssp::DeltaSteppingOptions opts,
                         double dense_fraction = 1.0 / 16.0) {
  opts.frontier.dense_fraction = dense_fraction;
  const auto part = test::shards_for(g, opts.partition);
  const test::DeltaReference ref =
      test::reference_delta_stepping(g, source, opts.delta, part.get());
  const auto r = sssp::delta_stepping(g, source, opts);
  test::expect_delta_matches(r, ref);
  // Every phase is classified by exactly one representation.
  EXPECT_EQ(r.stats.sparse_rounds + r.stats.dense_rounds,
            r.stats.relaxation_rounds);
}

class DeltaFrontierParity
    : public testing::TestWithParam<std::tuple<Family, std::uint32_t>> {};

TEST_P(DeltaFrontierParity, MatchesSerialReference) {
  const auto [family, k] = GetParam();
  const Graph g = test::make_family(family, 200, 29);
  for (const double mult : {0.5, 1.0, 8.0}) {
    sssp::DeltaSteppingOptions opts;
    opts.delta = mult * g.avg_weight();
    opts.partition = {.num_partitions = k,
                      .strategy = mr::PartitionStrategy::kHash};
    SCOPED_TRACE(testing::Message() << "mult=" << mult << " k=" << k);
    expect_delta_parity(g, 3, opts);
    expect_delta_parity(g, 3, opts, 0.005);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamiliesAllShards, DeltaFrontierParity,
    testing::Combine(testing::ValuesIn(test::all_families()),
                     testing::Values(1u, 2u, 7u)),
    [](const auto& info) {
      return std::string(test::family_name(std::get<0>(info.param))) + "_k" +
             std::to_string(std::get<1>(info.param));
    });

TEST(DeltaFrontierParity, DisconnectedGraph) {
  GraphBuilder b(90);
  for (NodeId u = 0; u + 1 < 40; ++u) b.add_edge(u, u + 1, 1.0);
  for (NodeId u = 41; u + 1 < 90; ++u) b.add_edge(u, u + 1, 2.0);
  const Graph g = b.build();  // node 40 is isolated
  for (const NodeId source : {NodeId{0}, NodeId{40}, NodeId{50}}) {
    for (const std::uint32_t k : {1u, 3u}) {
      sssp::DeltaSteppingOptions opts;
      opts.partition.num_partitions = k;
      SCOPED_TRACE(testing::Message() << "source=" << source << " k=" << k);
      expect_delta_parity(g, source, opts, 0.05);
    }
  }
}

/// Path with a leafy hub in the middle: frontier sizes run 1,1,…,big,1 — a
/// single-vertex frontier right after a dense burst, forcing the
/// sparse→dense→sparse representation transitions.
Graph hub_path_graph(NodeId path_len, NodeId leaves) {
  GraphBuilder b(path_len + leaves);
  for (NodeId u = 0; u + 1 < path_len; ++u) b.add_edge(u, u + 1, 1.0);
  const NodeId hub = path_len / 2;
  for (NodeId l = 0; l < leaves; ++l) b.add_edge(hub, path_len + l, 1.0);
  return b.build();
}

TEST(DeltaFrontierParity, HubPathForcesModeTransitions) {
  const Graph g = hub_path_graph(9, 120);
  sssp::DeltaSteppingOptions opts;
  opts.delta = 1000.0;  // one bucket: light phases are BFS waves
  opts.frontier.dense_fraction = 0.1;
  const auto r = sssp::delta_stepping(g, 0, opts);
  EXPECT_GT(r.stats.sparse_rounds, 0u) << mr::to_string(r.stats);
  EXPECT_GT(r.stats.dense_rounds, 0u) << mr::to_string(r.stats);
  expect_delta_parity(g, 0, opts, 0.1);
}

TEST(DeltaFrontierParity, SingleVertexAndEdgelessGraphs) {
  expect_delta_parity(build_graph(1, {}), 0, {});
  expect_delta_parity(build_graph(5, {}), 2, {});
}

// ---------------------------------------------------------------------------
// Context reuse: pooled RoundBuffers and cached SplitCsr across runs must
// not leak state between sources, graphs, deltas or shard counts.

TEST(ExecContextPooling, ReuseAcrossSourcesAndGraphsMatchesFresh) {
  const Graph g1 = test::make_family(Family::kGnmUniform, 150, 7);
  const Graph g2 = test::make_family(Family::kMeshUniform, 150, 9);
  exec::Context ctx;
  sssp::DeltaSteppingOptions opts;
  for (const Graph* g : {&g1, &g2, &g1}) {
    for (const NodeId source : {NodeId{0}, NodeId{5}, NodeId{17}}) {
      const auto pooled = sssp::delta_stepping(*g, source, opts, &ctx);
      const auto fresh = sssp::delta_stepping(*g, source, opts);
      EXPECT_EQ(pooled.dist, fresh.dist);
      EXPECT_EQ(pooled.stats, fresh.stats);
      EXPECT_EQ(pooled.farthest, fresh.farthest);
    }
  }
}

TEST(ExecContextPooling, ReuseAcrossDeltasAndPartitions) {
  const Graph g = test::make_family(Family::kRmatGiant, 200, 11);
  exec::Context ctx;
  for (const double mult : {1.0, 4.0, 1.0}) {
    for (const std::uint32_t k : {1u, 3u}) {
      sssp::DeltaSteppingOptions opts;
      opts.delta = mult * g.avg_weight();
      opts.partition.num_partitions = k;
      const auto pooled = sssp::delta_stepping(g, 2, opts, &ctx);
      const auto fresh = sssp::delta_stepping(g, 2, opts);
      EXPECT_EQ(pooled.dist, fresh.dist) << "mult=" << mult << " k=" << k;
      EXPECT_EQ(pooled.stats, fresh.stats) << "mult=" << mult << " k=" << k;
    }
  }
}

// ---------------------------------------------------------------------------
// Sweep kernels: Δ-stepping sweeps (one shared context, one SplitCsr) visit
// the same sources and return the same bound as the Dijkstra methodology.

TEST(SweepKernels, DeltaSteppingSweepMatchesDijkstra) {
  for (const Family f : {Family::kMeshUniform, Family::kGnmUniform}) {
    const Graph g = test::make_family(f, 180, 3);
    sssp::SweepOptions opts;
    opts.max_sweeps = 6;
    opts.seed = 17;
    const auto dij = sssp::diameter_lower_bound(g, opts);
    opts.use_delta_stepping = true;
    const auto ds = sssp::diameter_lower_bound(g, opts);
    EXPECT_EQ(dij.sources, ds.sources) << test::family_name(f);
    EXPECT_EQ(dij.eccentricities, ds.eccentricities);
    EXPECT_DOUBLE_EQ(dij.lower_bound, ds.lower_bound);
    // The Δ-stepping kernel reports MR cost; Dijkstra is outside the model.
    EXPECT_GT(ds.stats.rounds(), 0u);
    EXPECT_EQ(dij.stats.rounds(), 0u);
  }
}

TEST(SweepKernels, LegacyOverloadUnchanged) {
  const Graph g = test::make_family(Family::kTreePlusChords, 120, 5);
  const auto a = sssp::diameter_lower_bound(g, 4, 23);
  sssp::SweepOptions opts;
  opts.max_sweeps = 4;
  opts.seed = 23;
  const auto b = sssp::diameter_lower_bound(g, opts);
  EXPECT_EQ(a.sources, b.sources);
  EXPECT_DOUBLE_EQ(a.lower_bound, b.lower_bound);
}

// ---------------------------------------------------------------------------
// Δ-growing parity: per-step labels and counters of each policy against the
// serial reference (test::reference_growing_step).

core::GrowingStepParams uniform_params(Weight delta) {
  core::GrowingStepParams p;
  p.light_threshold = delta;
  p.uniform_budget = delta;
  return p;
}

void run_growing_parity(const Graph& g, core::GrowingPolicy policy,
                        std::uint32_t k, const core::GrowingStepParams& p,
                        double dense_fraction,
                        const std::vector<Weight>* center_budget = nullptr) {
  core::GrowingStepParams params = p;
  params.center_budget = center_budget;
  core::GrowingEngine engine(
      g, policy,
      {.num_partitions = k, .strategy = mr::PartitionStrategy::kHash});
  core::FrontierOptions fo;
  fo.dense_fraction = dense_fraction;
  engine.set_frontier_options(fo);
  test::GrowingReference ref(g.num_nodes());
  auto seed = [&](auto& e) {
    e.set_source(0, 0);
    e.set_source(g.num_nodes() / 3, g.num_nodes() / 3);
    e.block(2);
    e.set_source(2, 2);
    e.rebuild_frontier(params);
  };
  seed(engine);
  seed(ref);
  const core::GrowingStepResult total =
      test::step_against_reference(g, engine, ref, params, 64);
  EXPECT_GT(total.sparse_rounds + total.dense_rounds, 0u);
}

class GrowingFrontierParity
    : public testing::TestWithParam<
          std::tuple<core::GrowingPolicy, Family, std::uint32_t>> {};

TEST_P(GrowingFrontierParity, StepsMatchSerialReference) {
  const auto [policy, family, k] = GetParam();
  const Graph g = test::make_family(family, 200, 55);
  const core::GrowingStepParams p = uniform_params(2.0 * g.avg_weight());
  run_growing_parity(g, policy, k, p, 1.0 / 16.0);
  run_growing_parity(g, policy, k, p, 0.01);  // force dense rounds early
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesFamiliesShards, GrowingFrontierParity,
    testing::Combine(testing::Values(core::GrowingPolicy::kPush,
                                     core::GrowingPolicy::kPull,
                                     core::GrowingPolicy::kPartitioned),
                     testing::ValuesIn(test::all_families()),
                     testing::Values(1u, 2u, 7u)),
    [](const auto& info) {
      const auto policy = std::get<0>(info.param);
      const char* pname = policy == core::GrowingPolicy::kPush     ? "push"
                          : policy == core::GrowingPolicy::kPull   ? "pull"
                                                                   : "bsp";
      return std::string(pname) + "_" +
             test::family_name(std::get<1>(info.param)) + "_k" +
             std::to_string(std::get<2>(info.param));
    });

constexpr core::GrowingPolicy kAllPolicies[] = {
    core::GrowingPolicy::kPush, core::GrowingPolicy::kPull,
    core::GrowingPolicy::kPartitioned};

TEST(GrowingFrontierParity, DisconnectedGraphAllPolicies) {
  GraphBuilder b(120);
  for (NodeId u = 0; u + 1 < 60; ++u) b.add_edge(u, u + 1, 1.0);
  for (NodeId u = 61; u + 1 < 120; ++u) b.add_edge(u, u + 1, 1.0);
  const Graph g = b.build();
  for (const auto policy : kAllPolicies) {
    run_growing_parity(g, policy, 3, uniform_params(500.0), 0.05);
  }
}

TEST(GrowingFrontierParity, PerCenterBudgetsAllPolicies) {
  const Graph g = test::make_family(Family::kGnmUniform, 150, 21);
  std::vector<Weight> budgets(g.num_nodes(), 0.0);
  budgets[0] = 3.0 * g.avg_weight();
  budgets[g.num_nodes() / 3] = 6.0 * g.avg_weight();
  budgets[2] = 2.0 * g.avg_weight();
  core::GrowingStepParams p;
  p.light_threshold = 4.0 * g.avg_weight();
  for (const auto policy : kAllPolicies) {
    run_growing_parity(g, policy, 2, p, 0.02, &budgets);
  }
}

TEST(GrowingFrontierParity, HubPathForcesModeTransitions) {
  // Single-vertex frontiers right before and after the hub burst: the
  // engine must cross sparse→dense→sparse and stay in lockstep.
  const Graph g = hub_path_graph(9, 120);
  for (const auto policy : kAllPolicies) {
    core::GrowingEngine engine(g, policy, {.num_partitions = 2});
    core::FrontierOptions fo;
    fo.dense_fraction = 0.1;
    engine.set_frontier_options(fo);
    test::GrowingReference ref(g.num_nodes());
    const core::GrowingStepParams p = uniform_params(1000.0);
    engine.set_source(0, 0);
    engine.rebuild_frontier(p);
    ref.set_source(0, 0);
    ref.rebuild_frontier();
    const core::GrowingStepResult total =
        test::step_against_reference(g, engine, ref, p, 32);
    EXPECT_GT(total.sparse_rounds, 0u) << "policy " << static_cast<int>(policy);
    EXPECT_GT(total.dense_rounds, 0u) << "policy " << static_cast<int>(policy);
  }
}

// Raising the budget mid-run (a CLUSTER stage bump) rebuilds the frontier
// from the labels; the engine must stay in lockstep through it.
TEST(GrowingFrontierParity, ThresholdBumpRebuild) {
  const Graph g = test::make_family(Family::kGnmUniform, 150, 13);
  for (const auto policy : kAllPolicies) {
    core::GrowingEngine engine(g, policy, {.num_partitions = 3});
    test::GrowingReference ref(g.num_nodes());
    engine.set_source(0, 0);
    ref.set_source(0, 0);
    for (const double mult : {1.0, 2.0, 4.0}) {
      SCOPED_TRACE(testing::Message() << "mult " << mult);
      const core::GrowingStepParams p = uniform_params(mult * g.avg_weight());
      engine.rebuild_frontier(p);
      ref.rebuild_frontier();
      test::step_against_reference(g, engine, ref, p, 32);
    }
  }
}

// Whole-algorithm parity: CLUSTER decomposes identically, with identical
// work counters, on every policy (the per-step suites above pin each one
// against the reference; this pins the stage driver around them).
TEST(GrowingFrontierParity, ClusterWholeAlgorithmAgreesAcrossPolicies) {
  const Graph g = test::make_family(Family::kMeshUniform, 300, 3);
  core::ClusterOptions opts;
  opts.tau = 4;
  opts.seed = 17;
  opts.policy = core::GrowingPolicy::kPush;
  const core::Clustering push = core::cluster(g, opts);
  EXPECT_TRUE(push.validate(g));
  EXPECT_EQ(push.stats.sparse_rounds + push.stats.dense_rounds,
            push.stats.relaxation_rounds);
  for (const auto policy :
       {core::GrowingPolicy::kPull, core::GrowingPolicy::kPartitioned}) {
    opts.policy = policy;
    opts.partition.num_partitions = 3;
    const core::Clustering other = core::cluster(g, opts);
    EXPECT_EQ(other.center_of, push.center_of);
    EXPECT_EQ(other.dist_to_center, push.dist_to_center);
    EXPECT_EQ(other.stats.relaxation_rounds, push.stats.relaxation_rounds);
    EXPECT_EQ(other.stats.auxiliary_rounds, push.stats.auxiliary_rounds);
    EXPECT_EQ(other.stats.messages, push.stats.messages);
    EXPECT_EQ(other.stats.node_updates, push.stats.node_updates);
  }
}

}  // namespace
}  // namespace gdiam
