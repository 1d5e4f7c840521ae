// The unified execution runtime (exec/context.hpp): cache identity and
// pooling unit tests, plus the reuse parity suite — CL-DIAM, CLUSTER and
// CLUSTER2 results must be bit-identical between a fresh context per call
// and one context reused across calls, on every graph family, flat and
// partitioned (K ∈ {1, 2, 7}). This is the contract the context-reuse A/B in
// bench/micro_kernels rests on: reuse may only move wall time, never a
// distance, label, estimate or counter.

#include "exec/context.hpp"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "core/cluster.hpp"
#include "core/cluster2.hpp"
#include "core/diameter.hpp"
#include "core/quotient.hpp"
#include "sssp/sweep.hpp"
#include "test_helpers.hpp"

namespace gdiam {
namespace {

using test::Family;

// ---------------------------------------------------------------------------
// Cache identity and pooling.

TEST(ExecContext, SplitCacheHitsOnEqualKeyAndMissesAcrossDeltas) {
  const Graph g = test::make_family(Family::kGnmUniform, 120, 3);
  exec::Context ctx;
  const SplitCsr& a = ctx.split_for(g, 1.0);
  const SplitCsr& b = ctx.split_for(g, 1.0);
  EXPECT_EQ(&a, &b);  // same key -> same cached object
  const SplitCsr& c = ctx.split_for(g, 2.0);
  EXPECT_NE(&a, &c);
  EXPECT_TRUE(c.validate());
  // The first entry survives an unrelated lookup and still validates.
  EXPECT_EQ(&ctx.split_for(g, 1.0), &a);
  EXPECT_TRUE(ctx.split_for(g, 1.0).validate());
}

TEST(ExecContext, SplitCacheEvictionRebuildsCorrectEntries) {
  const Graph g = test::make_family(Family::kMeshUniform, 100, 5);
  exec::Context ctx;
  // Push far past the LRU cap; every returned split must still be the right
  // one for its Δ (an evicted entry is rebuilt, never aliased).
  for (int round = 0; round < 2; ++round) {
    for (int i = 1; i <= 40; ++i) {
      const Weight delta = 0.05 * static_cast<double>(i);
      const SplitCsr& s = ctx.split_for(g, delta);
      ASSERT_EQ(s.delta(), delta);
      ASSERT_TRUE(s.validate());
    }
  }
}

TEST(ExecContext, PartitionCacheKeyedByOptionsAndDiscoverable) {
  const Graph g = test::make_family(Family::kGnmUniform, 150, 7);
  exec::Context ctx;
  EXPECT_EQ(ctx.find_partition(g), nullptr);
  mr::PartitionOptions two{.num_partitions = 2};
  mr::PartitionOptions three{.num_partitions = 3};
  const mr::Partition& p2 = ctx.partition_for(g, two);
  EXPECT_EQ(&ctx.partition_for(g, two), &p2);
  const mr::Partition& p3 = ctx.partition_for(g, three);
  EXPECT_NE(&p2, &p3);
  EXPECT_TRUE(p2.validate(g));
  EXPECT_TRUE(p3.validate(g));
  // find_partition is a pure lookup returning the MRU layout for g.
  EXPECT_EQ(ctx.find_partition(g), &p3);
  const Graph other = test::make_family(Family::kMeshUniform, 100, 9);
  EXPECT_EQ(ctx.find_partition(other), nullptr);
}

TEST(ExecContext, GrowingEnginesArePooledPerKey) {
  const Graph g = test::make_family(Family::kGnmUniform, 120, 11);
  exec::Context ctx;
  core::GrowingEngine& push =
      ctx.growing_engine(g, core::GrowingPolicy::kPush, {});
  EXPECT_EQ(&ctx.growing_engine(g, core::GrowingPolicy::kPush, {}), &push);
  core::GrowingEngine& pull =
      ctx.growing_engine(g, core::GrowingPolicy::kPull, {});
  EXPECT_NE(&push, &pull);
  mr::PartitionOptions two{.num_partitions = 2};
  core::GrowingEngine& bsp =
      ctx.growing_engine(g, core::GrowingPolicy::kPartitioned, two);
  // The pooled partitioned engine borrows the context's cached layout.
  EXPECT_EQ(bsp.partition(), &ctx.partition_for(g, two));
}

TEST(ExecContext, StatsSinkAccumulatesPerPhaseAndRollsUp) {
  exec::StatsSink sink;
  EXPECT_EQ(sink.find("decompose"), nullptr);
  sink.phase("decompose").messages = 10;
  sink.phase("decompose").node_updates = 4;
  sink.phase("quotient").auxiliary_rounds = 1;
  sink.phase("diameter").auxiliary_rounds = 1;
  ASSERT_EQ(sink.phases().size(), 3u);
  EXPECT_EQ(sink.phases()[0].first, "decompose");  // first-use order
  EXPECT_EQ(sink.find("decompose")->messages, 10u);
  const mr::RoundStats total = sink.total();
  EXPECT_EQ(total.messages, 10u);
  EXPECT_EQ(total.node_updates, 4u);
  EXPECT_EQ(total.auxiliary_rounds, 2u);
  sink.clear();
  EXPECT_TRUE(sink.phases().empty());
}

// ---------------------------------------------------------------------------
// Reuse parity: fresh context per call vs one context reused across calls.

void expect_same_clustering(const core::Clustering& a,
                            const core::Clustering& b) {
  EXPECT_EQ(a.center_of, b.center_of);
  EXPECT_EQ(a.dist_to_center, b.dist_to_center);
  EXPECT_EQ(a.centers, b.centers);
  EXPECT_EQ(a.radius, b.radius);
  EXPECT_EQ(a.delta_end, b.delta_end);
  EXPECT_EQ(a.stages, b.stages);
  EXPECT_EQ(a.stats, b.stats);  // every RoundStats counter, ==-default
}

void expect_same_diameter_result(const core::DiameterApproxResult& a,
                                 const core::DiameterApproxResult& b) {
  EXPECT_EQ(a.estimate, b.estimate);
  EXPECT_EQ(a.estimate_classic, b.estimate_classic);
  EXPECT_EQ(a.quotient_diam, b.quotient_diam);
  EXPECT_EQ(a.quotient_exact, b.quotient_exact);
  EXPECT_EQ(a.radius, b.radius);
  EXPECT_EQ(a.num_clusters, b.num_clusters);
  EXPECT_EQ(a.quotient_edges, b.quotient_edges);
  EXPECT_EQ(a.stats, b.stats);
  expect_same_clustering(a.clustering, b.clustering);
}

core::ClusterOptions cluster_opts_for(std::uint32_t k) {
  core::ClusterOptions o;
  o.tau = 4;
  o.seed = 17;
  if (k > 1) {
    o.policy = core::GrowingPolicy::kPartitioned;
    o.partition = {.num_partitions = k,
                   .strategy = mr::PartitionStrategy::kHash};
  }
  return o;
}

class ContextReuseParity
    : public testing::TestWithParam<std::tuple<Family, std::uint32_t>> {};

TEST_P(ContextReuseParity, DiameterBitIdenticalFreshVsReused) {
  const auto [family, k] = GetParam();
  const Graph g = test::make_family(family, 200, 29);
  core::DiameterApproxOptions opts;
  opts.cluster = cluster_opts_for(k);

  const core::DiameterApproxResult fresh = core::approximate_diameter(g, opts);
  exec::Context ctx;
  // Two reused runs: the first fills the caches, the second runs fully warm
  // (pooled engine, cached partition and every doubling-search presplit).
  const core::DiameterApproxResult cold =
      core::approximate_diameter(g, opts, &ctx);
  const core::DiameterApproxResult warm =
      core::approximate_diameter(g, opts, &ctx);
  expect_same_diameter_result(fresh, cold);
  expect_same_diameter_result(fresh, warm);
}

TEST_P(ContextReuseParity, ClusterAndCluster2BitIdenticalFreshVsReused) {
  const auto [family, k] = GetParam();
  const Graph g = test::make_family(family, 200, 31);
  const core::ClusterOptions opts = cluster_opts_for(k);

  exec::Context ctx;
  const core::Clustering fresh = core::cluster(g, opts);
  const core::Clustering cold = core::cluster(g, opts, &ctx);
  const core::Clustering warm = core::cluster(g, opts, &ctx);
  EXPECT_TRUE(fresh.validate(g));
  expect_same_clustering(fresh, cold);
  expect_same_clustering(fresh, warm);

  // CLUSTER2 shares the same pooled engine as the CLUSTER runs above — the
  // shared PartialGrowth driver must fully re-initialize it between runs.
  core::Cluster2Options o2;
  o2.base = opts;
  const core::Cluster2Result fresh2 = core::cluster2(g, o2);
  const core::Cluster2Result warm2 = core::cluster2(g, o2, &ctx);
  EXPECT_TRUE(fresh2.clustering.validate(g));
  expect_same_clustering(fresh2.clustering, warm2.clustering);
  EXPECT_EQ(fresh2.radius_cluster1, warm2.radius_cluster1);
  EXPECT_EQ(fresh2.bootstrap_stats, warm2.bootstrap_stats);
}

INSTANTIATE_TEST_SUITE_P(
    AllFamiliesAllShards, ContextReuseParity,
    testing::Combine(testing::ValuesIn(test::all_families()),
                     testing::Values(1u, 2u, 7u)),
    [](const auto& info) {
      return std::string(test::family_name(std::get<0>(info.param))) + "_k" +
             std::to_string(std::get<1>(info.param));
    });

// A pooled engine's borrowed split view must survive LRU eviction by other
// consumers of the same context: after 32+ distinct-Δ Δ-stepping runs evict
// the engine's (graph, threshold) entry, stepping again at the *same*
// threshold without a reset() must re-resolve (and rebuild) rather than
// dereference the destroyed entry (the ASan CI job watches this one).
TEST(ExecContext, PooledEngineSurvivesSplitEvictionAtSameThreshold) {
  const Graph g = test::make_family(Family::kGnmUniform, 150, 51);
  exec::Context ctx;
  core::GrowingEngine& engine =
      ctx.growing_engine(g, core::GrowingPolicy::kPush, {});
  engine.reset();
  engine.set_source(0, 0);
  core::GrowingStepParams params;
  params.light_threshold = params.uniform_budget = 2.0 * g.avg_weight();
  engine.rebuild_frontier(params);
  const auto first = engine.step(params);

  // Flood the split cache far past its LRU cap with unrelated deltas.
  for (int i = 1; i <= 40; ++i) {
    sssp::DeltaSteppingOptions opts;
    opts.delta = 0.01 * static_cast<double>(i) * g.avg_weight();
    (void)sssp::delta_stepping(g, 0, opts, &ctx);
  }

  // Same threshold, no reset: the engine must not trust its stale view.
  const auto second = engine.step(params);
  (void)first;
  (void)second;
  core::GrowingEngine fresh(g, core::GrowingPolicy::kPush);
  fresh.set_source(0, 0);
  fresh.rebuild_frontier(params);
  (void)fresh.step(params);
  const auto fresh_second = fresh.step(params);
  EXPECT_EQ(second.messages, fresh_second.messages);
  EXPECT_EQ(second.updates, fresh_second.updates);
  EXPECT_EQ(engine.labels(), fresh.labels());
}

// Interleaving kernels on one context (the CL-DIAM shape: decompositions,
// quotient work and Δ-stepping sweeps back to back) must not leak state
// between consumers of the shared pools.
TEST(ExecContext, InterleavedKernelsStayIndependent) {
  const Graph g = test::make_family(Family::kMeshUniform, 200, 41);
  exec::Context ctx;

  const core::ClusterOptions copts = cluster_opts_for(2);
  const core::Clustering c_fresh = core::cluster(g, copts);

  sssp::SweepOptions sopts;
  sopts.max_sweeps = 4;
  sopts.seed = 9;
  sopts.use_delta_stepping = true;
  const sssp::SweepResult s_fresh = sssp::diameter_lower_bound(g, sopts);

  for (int round = 0; round < 2; ++round) {
    const core::Clustering c = core::cluster(g, copts, &ctx);
    expect_same_clustering(c_fresh, c);
    const sssp::SweepResult s = sssp::diameter_lower_bound(g, sopts, &ctx);
    EXPECT_EQ(s_fresh.sources, s.sources);
    EXPECT_EQ(s_fresh.eccentricities, s.eccentricities);
    EXPECT_EQ(s_fresh.stats, s.stats);
  }
}

// A context holding a cached shard layout must not change the quotient:
// build_quotient with and without it is bit-identical.
TEST(ExecContext, QuotientShardScanMatchesFlatScan) {
  for (const std::uint32_t k : {2u, 7u}) {
    const Graph g = test::make_family(Family::kGnmUniform, 200, 43);
    const core::ClusterOptions copts = cluster_opts_for(k);
    exec::Context ctx;
    const core::Clustering c = core::cluster(g, copts, &ctx);
    ASSERT_NE(ctx.find_partition(g), nullptr);

    const core::QuotientGraph flat = core::build_quotient(g, c);
    const core::QuotientGraph sharded = core::build_quotient(g, c, &ctx);
    EXPECT_EQ(flat.graph.num_nodes(), sharded.graph.num_nodes());
    EXPECT_EQ(flat.graph.num_edges(), sharded.graph.num_edges());
    EXPECT_EQ(test::vec(flat.graph.offsets()),
              test::vec(sharded.graph.offsets()));
    EXPECT_EQ(test::vec(flat.graph.targets()),
              test::vec(sharded.graph.targets()));
    EXPECT_EQ(test::vec(flat.graph.edge_weights()),
              test::vec(sharded.graph.edge_weights()));
    EXPECT_EQ(flat.cluster_of_node, sharded.cluster_of_node);
    EXPECT_EQ(flat.cluster_radius, sharded.cluster_radius);
    EXPECT_EQ(flat.center_of_cluster, sharded.center_of_cluster);
  }
}

// The CL-DIAM driver files its cost into the context's StatsSink per phase;
// the decompose phase carries exactly the clustering's stats and the
// roll-up includes the quotient/diameter auxiliary rounds.
TEST(ExecContext, DiameterFilesPhaseStats) {
  const Graph g = test::make_family(Family::kMeshUniform, 150, 47);
  core::DiameterApproxOptions opts;
  opts.cluster = cluster_opts_for(1);
  exec::Context ctx;
  const core::DiameterApproxResult r =
      core::approximate_diameter(g, opts, &ctx);

  const mr::RoundStats* decompose = ctx.stats().find("decompose");
  ASSERT_NE(decompose, nullptr);
  EXPECT_EQ(*decompose, r.clustering.stats);
  ASSERT_NE(ctx.stats().find("quotient"), nullptr);
  ASSERT_NE(ctx.stats().find("diameter"), nullptr);
  EXPECT_EQ(ctx.stats().find("quotient")->auxiliary_rounds, 1u);
  EXPECT_EQ(ctx.stats().find("diameter")->auxiliary_rounds, 1u);
  EXPECT_EQ(ctx.stats().total().rounds(), r.stats.rounds());

  // A second run on the same context accumulates (observability is
  // cumulative; results stay per-run).
  (void)core::approximate_diameter(g, opts, &ctx);
  EXPECT_EQ(ctx.stats().find("decompose")->messages,
            2 * r.clustering.stats.messages);

  ctx.clear();
  EXPECT_EQ(ctx.stats().find("decompose"), nullptr);
  EXPECT_EQ(ctx.find_partition(g), nullptr);
}

}  // namespace
}  // namespace gdiam
