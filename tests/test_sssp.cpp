// Tests for the SSSP substrate: Dijkstra against brute-force APSP, parallel
// Δ-stepping and Bellman–Ford against Dijkstra (parameterized sweeps over
// graph families, seeds, Δ choices and shard counts), eccentricities, sweep
// lower bounds.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "exec/context.hpp"
#include "gen/basic.hpp"
#include "gen/mesh.hpp"
#include "gen/weights.hpp"
#include "graph/builder.hpp"
#include "sssp/bellman_ford.hpp"
#include "sssp/delta_stepping.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/sweep.hpp"
#include "test_helpers.hpp"

namespace gdiam::sssp {
namespace {

using test::Family;

TEST(Dijkstra, PathDistancesExact) {
  const Graph g = gen::path(10);
  const auto d = dijkstra_distances(g, 0);
  for (NodeId u = 0; u < 10; ++u) EXPECT_DOUBLE_EQ(d[u], u);
}

TEST(Dijkstra, UnreachableIsInfinite) {
  GraphBuilder b(4);
  b.add_edge(0, 1, 1.0);
  b.add_edge(2, 3, 1.0);
  const auto d = dijkstra_distances(b.build(), 0);
  EXPECT_EQ(d[2], kInfiniteWeight);
  EXPECT_EQ(d[3], kInfiniteWeight);
  EXPECT_DOUBLE_EQ(d[1], 1.0);
}

TEST(Dijkstra, ParentsFormShortestPathTree) {
  const Graph g = test::make_family(Family::kGnmUniform, 60, 1);
  const SsspResult r = dijkstra(g, 0);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (u == 0 || r.dist[u] == kInfiniteWeight) continue;
    const NodeId p = r.parent[u];
    ASSERT_NE(p, kInvalidNode);
    // Parent edge closes the distance exactly.
    bool found = false;
    const auto nbr = g.neighbors(p);
    const auto wts = g.weights(p);
    for (std::size_t i = 0; i < nbr.size(); ++i) {
      if (nbr[i] == u &&
          std::abs(r.dist[p] + wts[i] - r.dist[u]) < 1e-12) {
        found = true;
      }
    }
    EXPECT_TRUE(found) << "node " << u;
  }
}

TEST(Dijkstra, FarthestMatchesEccentricity) {
  const Graph g = test::make_family(Family::kMeshUniform, 100, 2);
  const SsspResult r = dijkstra(g, 5);
  EXPECT_DOUBLE_EQ(r.dist[r.farthest], r.eccentricity);
  EXPECT_DOUBLE_EQ(eccentricity(g, 5), r.eccentricity);
}

TEST(Dijkstra, ExactDiameterMatchesBruteForce) {
  for (const Family f : test::all_families()) {
    const Graph g = test::make_family(f, 40, 3);
    EXPECT_NEAR(exact_diameter(g), test::brute_force_diameter(g), 1e-9)
        << test::family_name(f);
  }
}

// ---------------------------------------------------------------------------
// Parameterized: Dijkstra vs brute force across families and seeds.

class DijkstraVsBrute
    : public testing::TestWithParam<std::tuple<Family, std::uint64_t>> {};

TEST_P(DijkstraVsBrute, AllSourcesMatch) {
  const auto [family, seed] = GetParam();
  const Graph g = test::make_family(family, 36, seed);
  const auto apsp = test::brute_force_apsp(g);
  for (NodeId s = 0; s < g.num_nodes(); s += 7) {
    const auto d = dijkstra_distances(g, s);
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      if (apsp[s][u] == kInfiniteWeight) {
        EXPECT_EQ(d[u], kInfiniteWeight);
      } else {
        // Relative tolerance: Floyd–Warshall and Dijkstra may sum the same
        // path weights in different orders.
        EXPECT_NEAR(d[u], apsp[s][u], 1e-12 * (1.0 + apsp[s][u]));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, DijkstraVsBrute,
    testing::Combine(testing::ValuesIn(test::all_families()),
                     testing::Values(1u, 2u, 3u)),
    [](const auto& param_info) {
      return std::string(test::family_name(std::get<0>(param_info.param))) +
             "_s" + std::to_string(std::get<1>(param_info.param));
    });

// ---------------------------------------------------------------------------
// Parameterized: Δ-stepping distances equal Dijkstra for every family and a
// sweep of Δ values spanning Dijkstra-like to Bellman–Ford-like behaviour.

class DeltaSteppingMatchesDijkstra
    : public testing::TestWithParam<std::tuple<Family, double>> {};

TEST_P(DeltaSteppingMatchesDijkstra, DistancesEqual) {
  const auto [family, delta_factor] = GetParam();
  const Graph g = test::make_family(family, 300, 17);
  const NodeId source = g.num_nodes() / 3;
  const auto ref = dijkstra_distances(g, source);

  DeltaSteppingOptions opts;
  opts.delta = delta_factor > 0.0 ? delta_factor * g.avg_weight() : 0.0;
  const DeltaSteppingResult r = delta_stepping(g, source, opts);
  ASSERT_EQ(r.dist.size(), ref.size());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (ref[u] == kInfiniteWeight) {
      EXPECT_EQ(r.dist[u], kInfiniteWeight);
    } else {
      EXPECT_NEAR(r.dist[u], ref[u], 1e-9 * (1.0 + ref[u])) << "node " << u;
    }
  }
  // Bit-exact against the serial reference, model counters included.
  test::expect_delta_matches(
      r, test::reference_delta_stepping(g, source, opts.delta));
  EXPECT_NEAR(r.eccentricity, *std::max_element(
      ref.begin(), ref.end(),
      [](Weight a, Weight b) {
        return (a == kInfiniteWeight ? -1.0 : a) <
               (b == kInfiniteWeight ? -1.0 : b);
      }),
      1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesTimesDelta, DeltaSteppingMatchesDijkstra,
    testing::Combine(testing::ValuesIn(test::all_families()),
                     testing::Values(0.0, 0.1, 1.0, 10.0, 1000.0)),
    [](const auto& param_info) {
      const int pct = static_cast<int>(std::get<1>(param_info.param) * 10.0);
      return std::string(test::family_name(std::get<0>(param_info.param))) +
             "_d" + std::to_string(pct);
    });

TEST(DeltaStepping, AutoDeltaUsesAverageWeight) {
  const Graph g = test::make_family(Family::kGnmUniform, 100, 19);
  const DeltaSteppingResult r = delta_stepping(g, 0, {});
  EXPECT_DOUBLE_EQ(r.delta_used, g.avg_weight());
}

TEST(DeltaStepping, BadSourceThrows) {
  const Graph g = gen::path(4);
  EXPECT_THROW((void)delta_stepping(g, 4, {}), std::out_of_range);
}

TEST(DeltaStepping, SingleNodeGraph) {
  const Graph g = build_graph(1, {});
  const DeltaSteppingResult r = delta_stepping(g, 0, {});
  EXPECT_DOUBLE_EQ(r.dist[0], 0.0);
  EXPECT_DOUBLE_EQ(r.eccentricity, 0.0);
}

TEST(DeltaStepping, LargerDeltaFewerBuckets) {
  const Graph g = test::make_family(Family::kMeshUniform, 400, 23);
  DeltaSteppingOptions small_d{.delta = 0.2 * g.avg_weight()};
  DeltaSteppingOptions large_d{.delta = 20.0 * g.avg_weight()};
  const auto rs = delta_stepping(g, 0, small_d);
  const auto rl = delta_stepping(g, 0, large_d);
  EXPECT_GT(rs.buckets_processed, rl.buckets_processed);
  EXPECT_GT(rs.stats.rounds(), rl.stats.rounds());
}

TEST(DeltaStepping, StatsAreConsistent) {
  const Graph g = test::make_family(Family::kTreePlusChords, 200, 29);
  const DeltaSteppingResult r = delta_stepping(g, 0, {});
  EXPECT_GT(r.stats.relaxation_rounds, 0u);
  EXPECT_GT(r.stats.messages, 0u);
  EXPECT_GT(r.stats.node_updates, 0u);
  // Every reachable non-source node was updated at least once.
  EXPECT_GE(r.stats.node_updates, g.num_nodes() - 1);
  EXPECT_GE(r.stats.messages, r.stats.node_updates);
  EXPECT_EQ(r.stats.work(), r.stats.messages + r.stats.node_updates);
}

TEST(DeltaStepping, PhaseCapStillExact) {
  // A tiny per-bucket phase cap forces buckets to be revisited; distances
  // must still converge to the Dijkstra fixpoint.
  for (const Family f : {Family::kPathHeavyTail, Family::kMeshUniform}) {
    const Graph g = test::make_family(f, 250, 53);
    const auto ref = dijkstra_distances(g, 1);
    DeltaSteppingOptions o;
    o.max_phases_per_bucket = 1;
    const DeltaSteppingResult r = delta_stepping(g, 1, o);
    test::expect_delta_matches(
        r, test::reference_delta_stepping(g, 1, 0.0, nullptr,
                                          o.max_phases_per_bucket));
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      if (ref[u] == kInfiniteWeight) {
        EXPECT_EQ(r.dist[u], kInfiniteWeight);
      } else {
        EXPECT_NEAR(r.dist[u], ref[u], 1e-9 * (1.0 + ref[u]))
            << test::family_name(f) << " node " << u;
      }
    }
  }
}

TEST(DeltaStepping, PhaseCapAddsRoundsNotErrors) {
  const Graph g = test::make_family(Family::kMeshUniform, 300, 59);
  DeltaSteppingOptions capped;
  capped.max_phases_per_bucket = 1;
  const auto free_run = delta_stepping(g, 0, {});
  const auto capped_run = delta_stepping(g, 0, capped);
  EXPECT_EQ(free_run.dist, capped_run.dist);
  EXPECT_GE(capped_run.stats.auxiliary_rounds,
            free_run.stats.auxiliary_rounds);
}

TEST(DeltaStepping, DeterministicAcrossRuns) {
  const Graph g = test::make_family(Family::kRmatGiant, 500, 31);
  const auto a = delta_stepping(g, 1, {});
  const auto b = delta_stepping(g, 1, {});
  EXPECT_EQ(a.dist, b.dist);
  EXPECT_EQ(a.stats.messages, b.stats.messages);
  EXPECT_EQ(a.stats.rounds(), b.stats.rounds());
}

TEST(BellmanFord, MatchesDijkstraOnFamilies) {
  for (const Family f : test::all_families()) {
    const Graph g = test::make_family(f, 150, 37);
    const auto ref = dijkstra_distances(g, 2);
    const BellmanFordResult r = bellman_ford(g, 2);
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      if (ref[u] == kInfiniteWeight) {
        EXPECT_EQ(r.dist[u], kInfiniteWeight);
      } else {
        EXPECT_NEAR(r.dist[u], ref[u], 1e-9 * (1.0 + ref[u]))
            << test::family_name(f) << " node " << u;
      }
    }
  }
}

TEST(BellmanFord, PhasesAreHopEccentricityPlusOne) {
  // 63 phases reach node 63; one final phase discovers the fixpoint.
  const Graph g = gen::path(64);
  const BellmanFordResult r = bellman_ford(g, 0);
  EXPECT_EQ(r.phases, 64u);
}

TEST(BellmanFord, PhasesCanExceedHopsWithWeights) {
  // Heavy direct edge, light long way around: relaxations revisit nodes.
  GraphBuilder b(4);
  b.add_edge(0, 3, 10.0);
  b.add_edge(0, 1, 1.0);
  b.add_edge(1, 2, 1.0);
  b.add_edge(2, 3, 1.0);
  const BellmanFordResult r = bellman_ford(b.build(), 0);
  EXPECT_DOUBLE_EQ(r.dist[3], 3.0);
}

TEST(Sweep, LowerBoundNeverExceedsDiameter) {
  for (const Family f : test::all_families()) {
    const Graph g = test::make_family(f, 64, 41);
    const Weight diam = test::brute_force_diameter(g);
    const SweepResult s = diameter_lower_bound(g, 8, 41);
    EXPECT_LE(s.lower_bound, diam + 1e-9) << test::family_name(f);
    EXPECT_GT(s.lower_bound, 0.0);
  }
}

TEST(Sweep, FindsExactDiameterOfPath) {
  const SweepResult s = diameter_lower_bound(gen::path(100), 3, 7);
  EXPECT_DOUBLE_EQ(s.lower_bound, 99.0);
}

TEST(Sweep, RespectsSeedNode) {
  const Graph g = gen::path(50);
  const SweepResult s = diameter_lower_bound(g, 1, 0, /*seed_node=*/0);
  ASSERT_EQ(s.sources.size(), 1u);
  EXPECT_EQ(s.sources[0], 0u);
  EXPECT_DOUBLE_EQ(s.lower_bound, 49.0);
}

TEST(Sweep, StopsOnFarthestPairCycle) {
  // On a path, sweeps bounce between the two endpoints: at most 3 runs.
  const SweepResult s = diameter_lower_bound(gen::path(64), 100, 13);
  EXPECT_LE(s.sources.size(), 3u);
}

TEST(Sweep, EccentricitiesRecordedPerSource) {
  const Graph g = test::make_family(Family::kMeshUniform, 100, 43);
  const SweepResult s = diameter_lower_bound(g, 5, 43);
  ASSERT_EQ(s.sources.size(), s.eccentricities.size());
  Weight best = 0.0;
  for (const Weight e : s.eccentricities) best = std::max(best, e);
  EXPECT_DOUBLE_EQ(best, s.lower_bound);
}

TEST(Sweep, EmptyAndZeroBudget) {
  EXPECT_DOUBLE_EQ(diameter_lower_bound(Graph{}, 4).lower_bound, 0.0);
  EXPECT_DOUBLE_EQ(diameter_lower_bound(gen::path(5), 0).lower_bound, 0.0);
}

TEST(Sweep, DeltaKernelOnSharedContextMatchesDijkstra) {
  // A Δ-stepping sweep runs every source on one exec::Context (one
  // Δ-presplit, one RoundBuffers pool). Its distances are exact, so it
  // visits the same sources and returns the same bound as the Dijkstra
  // sweep, and a second sweep on the now-warm context agrees too.
  const Graph g = test::make_family(Family::kMeshUniform, 300, 43);
  const SweepResult ref = diameter_lower_bound(g, 4, 43);

  exec::Context ctx;
  SweepOptions so;
  so.max_sweeps = 4;
  so.seed = 43;
  so.use_delta_stepping = true;
  const SweepResult ds = diameter_lower_bound(g, so, &ctx);
  const SweepResult warm = diameter_lower_bound(g, so, &ctx);

  EXPECT_DOUBLE_EQ(ds.lower_bound, ref.lower_bound);
  EXPECT_EQ(ds.sources, ref.sources);
  EXPECT_GT(ds.stats.rounds(), 0u);
  EXPECT_EQ(warm.sources, ds.sources);
  EXPECT_EQ(warm.eccentricities, ds.eccentricities);
}

TEST(TwoApprox, BoundsSandwichTheDiameter) {
  for (const Family f : test::all_families()) {
    const Graph g = test::make_family(f, 80, 47);
    const Weight diam = test::brute_force_diameter(g);
    const SsspDiameterApprox a = diameter_two_approx(g, 0);
    EXPECT_LE(a.eccentricity, diam + 1e-9) << test::family_name(f);
    EXPECT_GE(a.upper_bound + 1e-9, diam) << test::family_name(f);
    EXPECT_DOUBLE_EQ(a.upper_bound, 2.0 * a.eccentricity);
  }
}

}  // namespace
}  // namespace gdiam::sssp
