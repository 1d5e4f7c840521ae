// Split-CSR layout (graph/split_csr.hpp): structural invariants of the
// light-first reorder, and bit-exact parity of the presplit kernels against
// the serial branch-filter references of test_helpers.hpp — distances,
// labels and every RoundStats counter, on every graph family, flat and
// partitioned (K ∈ {1, 2, 7}).

#include "graph/split_csr.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "core/cluster.hpp"
#include "core/growing.hpp"
#include "mr/partition.hpp"
#include "sssp/delta_stepping.hpp"
#include "test_helpers.hpp"

namespace gdiam {
namespace {

using test::Family;

// ---------------------------------------------------------------------------
// Structural invariants of the reorder itself.

class SplitInvariants : public testing::TestWithParam<Family> {};

TEST_P(SplitInvariants, SegmentsPartitionAdjacency) {
  const Graph g = test::make_family(GetParam(), 180, 42);
  for (const Weight delta :
       {0.0, g.min_weight(), g.avg_weight(), g.max_weight(),
        2.0 * g.max_weight()}) {
    const SplitCsr split(g, delta);
    ASSERT_TRUE(split.validate()) << "delta=" << delta;
    EXPECT_EQ(split.delta(), delta);

    EdgeIndex light_total = 0;
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      // Split offset stays inside the node's segment; since offsets are
      // nondecreasing this also makes the split array monotone.
      EXPECT_GE(split.split_at(u), g.offsets()[u]);
      EXPECT_LE(split.split_at(u), g.offsets()[u + 1]);
      if (u > 0) {
        EXPECT_GE(split.split_at(u), split.split_at(u - 1));
      }
      EXPECT_EQ(split.light_degree(u) + split.heavy_degree(u), g.degree(u));

      // Class purity and consistent (target, weight) pairing: each light
      // weight is ≤ delta, each heavy one > delta, and the segments together
      // are a permutation of the original adjacency (validate() checks the
      // stable order; here we re-check the multiset by sorted compare).
      const auto lw = split.light_weights(u);
      for (const Weight w : lw) EXPECT_LE(w, delta);
      const auto hw = split.heavy_weights(u);
      for (const Weight w : hw) EXPECT_GT(w, delta);
      light_total += split.light_degree(u);

      std::vector<std::pair<NodeId, Weight>> original, permuted;
      const auto nbr = g.neighbors(u);
      const auto wts = g.weights(u);
      for (std::size_t i = 0; i < nbr.size(); ++i) {
        original.emplace_back(nbr[i], wts[i]);
      }
      const auto ln = split.light_neighbors(u);
      const auto hn = split.heavy_neighbors(u);
      for (std::size_t i = 0; i < ln.size(); ++i) {
        permuted.emplace_back(ln[i], lw[i]);
      }
      for (std::size_t i = 0; i < hn.size(); ++i) {
        permuted.emplace_back(hn[i], hw[i]);
      }
      std::sort(original.begin(), original.end());
      std::sort(permuted.begin(), permuted.end());
      EXPECT_EQ(original, permuted) << "node " << u << " delta " << delta;
    }
    // Extreme deltas degenerate to "everything heavy" / "everything light".
    if (delta == 0.0) {
      EXPECT_EQ(light_total, 0u);
    }
    if (delta >= g.max_weight()) {
      EXPECT_EQ(light_total, g.num_directed_edges());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, SplitInvariants,
                         testing::ValuesIn(test::all_families()),
                         [](const auto& info) {
                           return test::family_name(info.param);
                         });

TEST(SplitCsrBasics, EmptyAndEdgelessGraphs) {
  const SplitCsr empty;
  EXPECT_TRUE(empty.empty());

  const Graph g = build_graph(5, {});  // nodes, no edges
  const SplitCsr split(g, 1.0);
  EXPECT_FALSE(split.empty());
  EXPECT_TRUE(split.validate());
  for (NodeId u = 0; u < 5; ++u) {
    EXPECT_EQ(split.light_degree(u), 0u);
    EXPECT_EQ(split.heavy_degree(u), 0u);
  }
}

TEST(SplitCsrBasics, PresplitCsrMatchesShardArrays) {
  // presplit_csr applied to a Partition shard keeps the same per-node
  // segment boundaries (the shard's offsets) and only permutes within them.
  const Graph g = test::make_family(Family::kGnmUniform, 120, 7);
  const mr::Partition part(
      g, {.num_partitions = 3, .strategy = mr::PartitionStrategy::kHash});
  const Weight delta = g.avg_weight();
  for (const mr::Shard& sh : part.shards()) {
    const CsrSplit ss = presplit_csr(sh.offsets, sh.targets, sh.weights, delta);
    ASSERT_EQ(ss.split.size(), sh.num_owned);
    ASSERT_EQ(ss.targets.size(), sh.targets.size());
    for (NodeId l = 0; l < sh.num_owned; ++l) {
      EXPECT_GE(ss.split[l], sh.offsets[l]);
      EXPECT_LE(ss.split[l], sh.offsets[l + 1]);
      for (EdgeIndex i = sh.offsets[l]; i < sh.offsets[l + 1]; ++i) {
        EXPECT_EQ(ss.weights[i] <= delta, i < ss.split[l]);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Δ-stepping parity: the presplit kernels against the serial reference
// (test::reference_delta_stepping), which branch-filters the full adjacency —
// distances and every model counter, flat and partitioned. The Δ values
// include one equal to an edge weight, where w ≤ Δ must count as light.


class DeltaSteppingSplitParity
    : public testing::TestWithParam<std::tuple<Family, std::uint32_t>> {};

TEST_P(DeltaSteppingSplitParity, MatchesBranchFilterReference) {
  const auto [family, k] = GetParam();
  const Graph g = test::make_family(family, 200, 23);
  const mr::PartitionOptions popts{.num_partitions = k,
                                   .strategy = mr::PartitionStrategy::kHash};
  const auto part = test::shards_for(g, popts);
  for (const Weight delta : {0.5 * g.avg_weight(), g.avg_weight(),
                             8.0 * g.avg_weight(), g.weights(0)[0]}) {
    SCOPED_TRACE(testing::Message() << "delta=" << delta << " k=" << k);
    sssp::DeltaSteppingOptions opts;
    opts.delta = delta;
    opts.partition = popts;
    test::expect_delta_matches(
        sssp::delta_stepping(g, 3, opts),
        test::reference_delta_stepping(g, 3, delta, part.get()));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamiliesAllShards, DeltaSteppingSplitParity,
    testing::Combine(testing::ValuesIn(test::all_families()),
                     testing::Values(1u, 2u, 7u)),
    [](const auto& info) {
      return std::string(test::family_name(std::get<0>(info.param))) + "_k" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Δ-growing parity: per-step labels and counters of each policy against the
// serial reference (test::reference_growing_step).

core::GrowingStepParams uniform_params(Weight delta) {
  core::GrowingStepParams p;
  p.light_threshold = delta;
  p.uniform_budget = delta;
  return p;
}

class GrowingSplitParity
    : public testing::TestWithParam<std::tuple<Family, std::uint32_t>> {};

TEST_P(GrowingSplitParity, StepsMatchBranchFilterReference) {
  const auto [family, k] = GetParam();
  const Graph g = test::make_family(family, 200, 55);
  const core::GrowingStepParams p = uniform_params(2.0 * g.avg_weight());

  const mr::PartitionOptions popts{.num_partitions = k,
                                   .strategy = mr::PartitionStrategy::kHash};
  // One engine per policy; K only matters for kPartitioned.
  for (const auto policy :
       {core::GrowingPolicy::kPush, core::GrowingPolicy::kPull,
        core::GrowingPolicy::kPartitioned}) {
    core::GrowingEngine engine(g, policy, popts);
    test::GrowingReference ref(g.num_nodes());
    auto seed = [&](auto& e) {
      e.set_source(0, 0);
      e.set_source(g.num_nodes() / 3, g.num_nodes() / 3);
      e.block(2);
      e.set_source(2, 2);
    };
    seed(engine);
    seed(ref);
    engine.rebuild_frontier(p);
    ref.rebuild_frontier();
    test::step_against_reference(g, engine, ref, p, 64);
  }
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesAndShards, GrowingSplitParity,
    testing::Combine(testing::ValuesIn(test::all_families()),
                     testing::Values(1u, 2u, 7u)),
    [](const auto& info) {
      return std::string(test::family_name(std::get<0>(info.param))) + "_k" +
             std::to_string(std::get<1>(info.param));
    });

// Raising the threshold mid-run (a CLUSTER stage bump) must rebuild the
// cached split and stay in lockstep with the reference.
TEST(GrowingSplitCache, ThresholdChangeRebuildsSplit) {
  const Graph g = test::make_family(Family::kGnmUniform, 150, 13);
  core::GrowingEngine engine(g, core::GrowingPolicy::kPush);
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

// Whole-algorithm sanity: CLUSTER with the default presplit engines ends in
// a valid clustering (the step-level parity above covers the counters).
TEST(GrowingSplitCache, ClusterRunsOnPresplitEngines) {
  const Graph g = test::make_family(Family::kMeshUniform, 250, 3);
  core::ClusterOptions opts;
  opts.tau = 4;
  opts.seed = 17;
  opts.stop_factor = 2.0;
  const core::Clustering c = core::cluster(g, opts);
  EXPECT_TRUE(c.validate(g));
}

}  // namespace
}  // namespace gdiam
