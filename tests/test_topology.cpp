// Tests for the NUMA topology/placement layer (util/topology.hpp,
// mr/placement.hpp, DESIGN.md §13): GDIAM_TOPOLOGY spec parsing (malformed
// specs rejected, never silently fallen back from), plan determinism and the
// strategy shapes, the Launcher's placement-ordered grouping, the Exchange's
// cross-node traffic classification, the exec::Context placement-keyed
// layout caches — and the load-bearing part: bit-identical results and
// model-level counters across placements for every graph family,
// K ∈ {1, 2, 7} and every transport, on emulated single- and two-node
// machines. Placement moves memory and threads, never answers.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "exec/context.hpp"
#include "mr/exchange.hpp"
#include "mr/placement.hpp"
#include "mr/transport.hpp"
#include "sssp/delta_stepping.hpp"
#include "util/topology.hpp"
#include "test_helpers.hpp"

namespace gdiam {
namespace {

using test::Family;
namespace topo = util::topo;

/// Sets GDIAM_TOPOLOGY for one scope; restores the unset default on exit so
/// tests can't leak an emulated machine into each other.
struct ScopedTopology {
  explicit ScopedTopology(const char* spec) {
    EXPECT_EQ(::setenv("GDIAM_TOPOLOGY", spec, 1), 0);
  }
  ~ScopedTopology() { ::unsetenv("GDIAM_TOPOLOGY"); }
};

mr::PlacementOptions rr() {
  return {.strategy = mr::PlacementStrategy::kRoundRobin};
}
mr::PlacementOptions cap() {
  return {.strategy = mr::PlacementStrategy::kCapacity};
}

// ---------------------------------------------------------------------------
// Spec parsing

TEST(Topology, ParsesSpecShapes) {
  const topo::Topology two = topo::parse_spec("0-3;4-7");
  ASSERT_EQ(two.num_nodes(), 2u);
  EXPECT_EQ(two.cpus(0), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(two.cpus(1), (std::vector<int>{4, 5, 6, 7}));
  EXPECT_EQ(two.total_cpus(), 8u);
  EXPECT_FALSE(two.single_node());

  const topo::Topology interleaved = topo::parse_spec("0,2,4-6;1,3,7");
  ASSERT_EQ(interleaved.num_nodes(), 2u);
  EXPECT_EQ(interleaved.cpus(0), (std::vector<int>{0, 2, 4, 5, 6}));
  EXPECT_EQ(interleaved.cpus(1), (std::vector<int>{1, 3, 7}));

  const topo::Topology one = topo::parse_spec("0");
  EXPECT_TRUE(one.single_node());
  EXPECT_EQ(one.total_cpus(), 1u);
}

TEST(Topology, RejectsMalformedSpecs) {
  // Empty spec/node, junk, inverted ranges, duplicates (within a node and
  // across nodes): every one throws rather than silently serving a plan for
  // a machine the operator didn't describe.
  for (const char* bad : {"", ";", "0;", ";1", "0;;1", "a", "0-", "-3", "3-1",
                          "0,0", "0-2;2", "1;1", "0, 1", "0-1-2"}) {
    EXPECT_THROW(topo::parse_spec(bad), std::invalid_argument)
        << "spec: \"" << bad << "\"";
  }
}

TEST(Topology, DiscoverHonorsEnvOverrideAndSystemFallback) {
  {
    const ScopedTopology t("0;1");
    const topo::Topology d = topo::discover();
    EXPECT_EQ(d.num_nodes(), 2u);
  }
  // Without the override: whatever the machine really is — at least one
  // node with at least one CPU.
  const topo::Topology sys = topo::discover();
  EXPECT_GE(sys.num_nodes(), 1u);
  EXPECT_GE(sys.total_cpus(), 1u);
}

TEST(Topology, MalformedEnvSpecThrowsInsteadOfFallingBack) {
  const ScopedTopology t("not a topology");
  EXPECT_THROW(topo::discover(), std::invalid_argument);
}

TEST(Topology, FingerprintIsStructural) {
  const auto fp = [](const char* s) { return topo::parse_spec(s).fingerprint(); };
  EXPECT_EQ(fp("0-3;4-7"), fp("0,1,2,3;4-7"));  // same structure, same hash
  EXPECT_NE(fp("0-3;4-7"), fp("0-7"));          // node split matters
  EXPECT_NE(fp("0;1"), fp("1;0"));              // per-node membership matters
  EXPECT_NE(fp("0"), 0u);                       // never the inactive sentinel
}

TEST(Topology, BindAndFirstTouchAreBestEffort) {
  // Emulated CPUs that don't exist on this machine: the bind must degrade to
  // a no-op (false), never throw or fail the run.
  EXPECT_FALSE(topo::bind_current_thread({4096, 4097}));
  EXPECT_FALSE(topo::bind_current_thread({}));
  {
    const topo::ScopedAffinity a(std::vector<int>{4096});
    EXPECT_FALSE(a.bound());
  }
  std::vector<std::byte> page(1 << 16);
  topo::first_touch(page.data(), page.size());  // must not crash
  topo::first_touch(nullptr, 0);
}

// ---------------------------------------------------------------------------
// PlacementPlan

TEST(Placement, ParseStrategyNames) {
  EXPECT_EQ(mr::parse_placement_strategy("none"),
            mr::PlacementStrategy::kNone);
  EXPECT_EQ(mr::parse_placement_strategy("round-robin"),
            mr::PlacementStrategy::kRoundRobin);
  EXPECT_EQ(mr::parse_placement_strategy("capacity"),
            mr::PlacementStrategy::kCapacity);
  EXPECT_FALSE(mr::parse_placement_strategy("numa").has_value());
}

TEST(Placement, NoneAndDefaultPlansAreInactive) {
  const mr::PlacementPlan none;
  EXPECT_FALSE(none.active());
  EXPECT_EQ(none.fingerprint(), 0u);
  EXPECT_EQ(none.node_of(3), 0u);
  EXPECT_TRUE(none.cpus_of_node(0).empty());

  const mr::PlacementPlan off = mr::PlacementPlan::make(
      topo::parse_spec("0;1"), 4, mr::PlacementStrategy::kNone);
  EXPECT_FALSE(off.active());
  EXPECT_EQ(off.fingerprint(), 0u);
}

TEST(Placement, RoundRobinInterleavesAndIsDeterministic) {
  const topo::Topology t = topo::parse_spec("0-1;2-3");
  const auto plan =
      mr::PlacementPlan::make(t, 7, mr::PlacementStrategy::kRoundRobin);
  ASSERT_TRUE(plan.active());
  EXPECT_EQ(plan.num_nodes(), 2u);
  for (mr::ShardId s = 0; s < 7; ++s) EXPECT_EQ(plan.node_of(s), s % 2);
  // Pure function of (topology, K, strategy): rebuilt plans are equal.
  const auto again =
      mr::PlacementPlan::make(t, 7, mr::PlacementStrategy::kRoundRobin);
  EXPECT_EQ(plan, again);
  EXPECT_NE(plan.fingerprint(), 0u);
  EXPECT_EQ(plan.fingerprint(), again.fingerprint());
  // K and strategy both feed the fingerprint.
  EXPECT_NE(plan.fingerprint(),
            mr::PlacementPlan::make(t, 6, mr::PlacementStrategy::kRoundRobin)
                .fingerprint());
  EXPECT_NE(plan.fingerprint(),
            mr::PlacementPlan::make(t, 7, mr::PlacementStrategy::kCapacity)
                .fingerprint());
}

TEST(Placement, CapacityBalancesByCpuCount) {
  // Node 0 has 1 CPU, node 1 has 3: of 8 shards, capacity gives node 1
  // three times the load (2 vs 6), where round-robin would split 4/4.
  const topo::Topology t = topo::parse_spec("0;1-3");
  const auto plan =
      mr::PlacementPlan::make(t, 8, mr::PlacementStrategy::kCapacity);
  std::uint32_t on0 = 0, on1 = 0;
  for (mr::ShardId s = 0; s < 8; ++s) {
    (plan.node_of(s) == 0 ? on0 : on1)++;
  }
  EXPECT_EQ(on0, 2u);
  EXPECT_EQ(on1, 6u);
}

TEST(Placement, ResolveShortCircuitsNoneWithoutDiscovery) {
  // A malformed env spec would throw on discovery; kNone must not discover.
  const ScopedTopology t("garbage");
  const mr::PlacementPlan plan = mr::resolve_placement({}, 4);
  EXPECT_FALSE(plan.active());
  EXPECT_EQ(mr::placement_fingerprint({}), 0u);
  EXPECT_THROW(mr::resolve_placement(rr(), 4), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Launcher: placement-ordered grouping (the cheap local path)

TEST(Placement, LauncherGroupsSameNodeShardsTogether) {
  const ScopedTopology t("0;1");
  // Round-robin K=4 on 2 nodes: node 0 owns {0,2}, node 1 owns {1,3}. With
  // P=2 the groups must align with the nodes, not with shard-id ranges.
  const mr::PlacementPlan plan = mr::resolve_placement(rr(), 4);
  const mr::Launcher l(4, 2, plan);
  const auto g0 = l.shards_of(0);
  const auto g1 = l.shards_of(1);
  EXPECT_EQ(std::vector<mr::ShardId>(g0.begin(), g0.end()),
            (std::vector<mr::ShardId>{0, 2}));
  EXPECT_EQ(std::vector<mr::ShardId>(g1.begin(), g1.end()),
            (std::vector<mr::ShardId>{1, 3}));
  EXPECT_EQ(l.node_of_group(0), 0);
  EXPECT_EQ(l.node_of_group(1), 1);
  EXPECT_EQ(l.process_of(0), 0u);
  EXPECT_EQ(l.process_of(2), 0u);
  EXPECT_EQ(l.process_of(1), 1u);
  EXPECT_EQ(l.process_of(3), 1u);
  EXPECT_EQ(l.cpus_of_group(0), (std::vector<int>{0}));
  EXPECT_EQ(l.cpus_of_group(1), (std::vector<int>{1}));
}

TEST(Placement, LauncherWithoutPlanKeepsIdentityOrder) {
  const mr::Launcher l(5, 2);
  const auto g0 = l.shards_of(0);
  EXPECT_EQ(std::vector<mr::ShardId>(g0.begin(), g0.end()),
            (std::vector<mr::ShardId>{0, 1, 2}));
  EXPECT_EQ(l.node_of_group(0), -1);
  EXPECT_TRUE(l.cpus_of_group(0).empty());
}

TEST(Placement, LauncherMixedNodeGroupReportsUnion) {
  const ScopedTopology t("0;1");
  // K=3 shards on 2 nodes with P=1: the single group straddles both nodes.
  const mr::Launcher l(3, 1, mr::resolve_placement(rr(), 3));
  EXPECT_EQ(l.node_of_group(0), -1);
  EXPECT_EQ(l.cpus_of_group(0), (std::vector<int>{0, 1}));
}

// ---------------------------------------------------------------------------
// Exchange: cross-node classification

TEST(Placement, ExchangeClassifiesCrossNodeTraffic) {
  mr::Exchange<int> ex(3);
  ex.set_node_map({0, 1, 0});  // shards 0 and 2 on node 0, shard 1 on node 1
  ex.send(0, 2, 1);            // cross-shard, same node
  ex.send(0, 1, 2);            // cross-shard, cross-node
  ex.send(1, 1, 3);            // shard-internal: never cross anything
  const mr::ExchangeCounters c = ex.seal();
  EXPECT_EQ(c.cross_messages, 2u);
  EXPECT_EQ(c.cross_node_messages, 1u);
  EXPECT_EQ(c.cross_node_bytes, sizeof(int));

  // Without a map (the pre-placement default) the counters stay zero.
  mr::Exchange<int> plain(3);
  plain.send(0, 1, 2);
  EXPECT_EQ(plain.seal().cross_node_messages, 0u);

  // resize() drops a stale map rather than misindexing the new shards.
  ex.clear();
  ex.resize(2);
  ex.send(0, 1, 4);
  EXPECT_EQ(ex.seal().cross_node_messages, 0u);
}

// ---------------------------------------------------------------------------
// exec::Context: placement participates in every layout-cache key

TEST(Placement, ContextCachesKeyOnPlacement) {
  const Graph g = test::make_family(Family::kGnmUniform, 120, 7);
  const mr::PartitionOptions popts{.num_partitions = 4,
                                   .strategy = mr::PartitionStrategy::kHash};
  const ScopedTopology t("0;1");
  exec::Context ctx;

  const SplitCsr* flat_none = &ctx.split_for(g, 1.0);
  const std::vector<CsrSplit>* shards_none =
      &ctx.shard_splits_for(g, popts, 1.0);

  // Turning placement on must miss: the cached arrays were first-touched
  // under the old (absent) plan.
  ctx.options().placement = rr();
  const SplitCsr* flat_rr = &ctx.split_for(g, 1.0);
  const std::vector<CsrSplit>* shards_rr =
      &ctx.shard_splits_for(g, popts, 1.0);
  EXPECT_NE(flat_rr, flat_none);
  EXPECT_NE(shards_rr, shards_none);

  // Same placement again: hit (the entries are keyed, not invalidated).
  EXPECT_EQ(&ctx.split_for(g, 1.0), flat_rr);
  EXPECT_EQ(&ctx.shard_splits_for(g, popts, 1.0), shards_rr);

  // And switching back recovers the original entries.
  ctx.options().placement = {};
  EXPECT_EQ(&ctx.split_for(g, 1.0), flat_none);
  EXPECT_EQ(&ctx.shard_splits_for(g, popts, 1.0), shards_none);
}

TEST(Placement, ContextCachesKeyOnTopologyChange) {
  // Same strategy, different emulated machine: GDIAM_TOPOLOGY feeds the
  // fingerprint, so the one-node and two-node layouts never alias.
  const Graph g = test::make_family(Family::kGnmUniform, 120, 7);
  exec::Context ctx;
  ctx.options().placement = rr();
  const SplitCsr* one;
  {
    const ScopedTopology t("0");
    one = &ctx.split_for(g, 1.0);
  }
  {
    const ScopedTopology t("0;1");
    EXPECT_NE(&ctx.split_for(g, 1.0), one);
  }
}

// ---------------------------------------------------------------------------
// Bit-identity across placements: the tentpole's correctness contract

/// The placement-invariant view of a RoundStats: wire counters are
/// transport-dependent and cross_node counters placement-dependent by
/// design; everything else must match bit-for-bit.
mr::RoundStats invariant(mr::RoundStats s) {
  s.wire_messages = 0;
  s.wire_bytes = 0;
  s.cross_node_messages = 0;
  s.cross_node_bytes = 0;
  return s;
}

class PlacementParity : public testing::TestWithParam<Family> {};

TEST_P(PlacementParity, SsspBitIdenticalAcrossPlacementsAndTransports) {
  const Graph g = test::make_family(GetParam(), 150, 42);

  for (const std::uint32_t k : {1u, 2u, 7u}) {
    sssp::DeltaSteppingOptions opts;
    opts.partition.num_partitions = k;
    const sssp::DeltaSteppingResult base = sssp::delta_stepping(g, 0, opts);
    EXPECT_EQ(base.stats.cross_node_messages, 0u);  // placement off

    const ScopedTopology t("0;1");
    for (const mr::PlacementOptions& pl : {rr(), cap()}) {
      opts.placement = pl;
      // The pool transport only exists behind K > 1 (the flat kernel
      // ignores transport and placement alike).
      std::vector<mr::TransportOptions> transports = {{}};
      if (k > 1) {
        transports.push_back(
            {.kind = mr::TransportKind::kPool, .processes = 2});
      }
      for (const mr::TransportOptions& tr : transports) {
        opts.transport = tr;
        const sssp::DeltaSteppingResult run = sssp::delta_stepping(g, 0, opts);
        const std::string label =
            std::string(test::family_name(GetParam())) + " k=" +
            std::to_string(k) + " placement=" + to_string(pl.strategy);
        EXPECT_EQ(run.dist, base.dist) << label;
        EXPECT_EQ(run.eccentricity, base.eccentricity) << label;
        EXPECT_EQ(run.farthest, base.farthest) << label;
        EXPECT_EQ(run.buckets_processed, base.buckets_processed) << label;
        EXPECT_EQ(invariant(run.stats), invariant(base.stats)) << label;
        // The placement-derived view: bounded by the cross counters, and
        // actually populated once ≥ 2 shards interleave over the 2 nodes.
        EXPECT_LE(run.stats.cross_node_messages, run.stats.cross_messages);
        EXPECT_LE(run.stats.cross_node_bytes, run.stats.cross_bytes);
        if (k > 1 && run.stats.cross_messages > 0) {
          EXPECT_GT(run.stats.cross_node_messages, 0u) << label;
        }
      }
    }
  }
}

TEST_P(PlacementParity, SingleNodeEmulationIsTodayVerbatim) {
  // On a 1-node machine an *active* plan must change nothing observable:
  // same distances, same stats, cross_node identically zero.
  const Graph g = test::make_family(GetParam(), 150, 42);
  sssp::DeltaSteppingOptions opts;
  opts.partition.num_partitions = 4;
  const sssp::DeltaSteppingResult base = sssp::delta_stepping(g, 0, opts);

  const ScopedTopology t("0-3");
  opts.placement = rr();
  const sssp::DeltaSteppingResult run = sssp::delta_stepping(g, 0, opts);
  EXPECT_EQ(run.dist, base.dist);
  EXPECT_EQ(run.stats, base.stats);  // full struct: cross_node stays 0 too
}

INSTANTIATE_TEST_SUITE_P(Families, PlacementParity,
                         testing::ValuesIn(test::all_families()),
                         [](const auto& info) {
                           return std::string(test::family_name(info.param));
                         });

TEST(Placement, ClusterPipelineBitIdenticalUnderPlacement) {
  const Graph g = test::make_family(Family::kGnmUniform, 150, 42);
  core::ClusterOptions opts;
  opts.tau = 2;
  opts.stop_factor = 1.0;
  opts.policy = core::GrowingPolicy::kPartitioned;
  opts.partition.num_partitions = 7;
  const core::Clustering base = core::cluster(g, opts);

  const ScopedTopology t("0;1");
  opts.placement = cap();
  opts.transport = {.kind = mr::TransportKind::kPool, .processes = 2};
  const core::Clustering run = core::cluster(g, opts);
  EXPECT_EQ(run.center_of, base.center_of);
  EXPECT_EQ(run.dist_to_center, base.dist_to_center);
  EXPECT_EQ(run.centers, base.centers);
  EXPECT_EQ(run.radius, base.radius);
  EXPECT_EQ(invariant(run.stats), invariant(base.stats));
  // The placed run on an emulated two-node machine must *observe* its
  // cross-node traffic: the growth supersteps route real cross-shard
  // messages, and the plan homes K=7 shards on two nodes.
  EXPECT_GT(run.stats.cross_node_messages, 0u);
  EXPECT_LE(run.stats.cross_node_messages, run.stats.cross_messages);
  EXPECT_EQ(base.stats.cross_node_messages, 0u);  // no plan, no map
}

}  // namespace
}  // namespace gdiam
