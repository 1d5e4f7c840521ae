// Tests for core/quotient.hpp: quotient construction rules, the
// conservativeness property Φ(G_C) + 2R ≥ Φ(G), and quotient diameter
// computation (exact vs sweep paths).

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/cluster.hpp"
#include "core/quotient.hpp"
#include "gen/basic.hpp"
#include "gen/weights.hpp"
#include "graph/builder.hpp"
#include "graph/ops.hpp"
#include "sssp/dijkstra.hpp"
#include "test_helpers.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace gdiam::core {
namespace {

using test::Family;

/// Every node its own cluster: the quotient must equal the original graph.
Clustering identity_clustering(const Graph& g) {
  Clustering c;
  const NodeId n = g.num_nodes();
  c.center_of.resize(n);
  std::iota(c.center_of.begin(), c.center_of.end(), NodeId{0});
  c.dist_to_center.assign(n, 0.0);
  c.centers = c.center_of;
  c.radius = 0.0;
  return c;
}

TEST(Quotient, IdentityClusteringReproducesGraph) {
  const Graph g = test::make_family(Family::kGnmUniform, 60, 3);
  const QuotientGraph q = build_quotient(g, identity_clustering(g));
  EXPECT_EQ(q.graph.num_nodes(), g.num_nodes());
  EXPECT_EQ(q.graph.num_edges(), g.num_edges());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(q.cluster_of_node[u], u);
    const auto gw = g.weights(u), qw = q.graph.weights(u);
    for (std::size_t i = 0; i < gw.size(); ++i) {
      EXPECT_DOUBLE_EQ(gw[i], qw[i]);
    }
  }
}

TEST(Quotient, TwoClusterPath) {
  // Path 0-1-2-3 (unit); clusters {0,1} centered 0 and {2,3} centered 3.
  const Graph g = gen::path(4);
  Clustering c;
  c.center_of = {0, 0, 3, 3};
  c.dist_to_center = {0.0, 1.0, 1.0, 0.0};
  c.centers = {0, 3};
  c.radius = 1.0;
  const QuotientGraph q = build_quotient(g, c);
  EXPECT_EQ(q.graph.num_nodes(), 2u);
  EXPECT_EQ(q.graph.num_edges(), 1u);
  // Edge (1,2): w + d_1 + d_2 = 1 + 1 + 1 = 3.
  EXPECT_DOUBLE_EQ(edge_weight(q.graph, 0, 1), 3.0);
  EXPECT_EQ(q.center_of_cluster[0], 0u);
  EXPECT_EQ(q.center_of_cluster[1], 3u);
}

TEST(Quotient, ParallelInterClusterEdgesKeepMinimum) {
  // Two parallel connections between the clusters with different d-sums.
  GraphBuilder b(4);
  b.add_edge(0, 2, 10.0);
  b.add_edge(1, 3, 1.0);
  b.add_edge(0, 1, 1.0);
  b.add_edge(2, 3, 1.0);
  const Graph g = b.build();
  Clustering c;
  c.center_of = {0, 0, 2, 2};
  c.dist_to_center = {0.0, 1.0, 0.0, 1.0};
  c.centers = {0, 2};
  c.radius = 1.0;
  const QuotientGraph q = build_quotient(g, c);
  EXPECT_EQ(q.graph.num_edges(), 1u);
  // min(10 + 0 + 0, 1 + 1 + 1) = 3.
  EXPECT_DOUBLE_EQ(edge_weight(q.graph, 0, 1), 3.0);
}

TEST(Quotient, MismatchedClusteringThrows) {
  const Graph g = gen::path(5);
  Clustering c = identity_clustering(gen::path(4));
  EXPECT_THROW((void)build_quotient(g, c), std::invalid_argument);
}

TEST(Quotient, IntraClusterEdgesVanish) {
  const Graph g = gen::complete(6);
  Clustering c;
  c.center_of = {0, 0, 0, 0, 0, 0};
  c.dist_to_center = {0.0, 1.0, 1.0, 1.0, 1.0, 1.0};
  c.centers = {0};
  c.radius = 1.0;
  const QuotientGraph q = build_quotient(g, c);
  EXPECT_EQ(q.graph.num_nodes(), 1u);
  EXPECT_EQ(q.graph.num_edges(), 0u);
}

// ---------------------------------------------------------------------------
// The cluster-major construction (counting sort by cluster, per-cluster rows
// in parallel) must reproduce the straightforward serial build bit-for-bit:
// identical quotient CSR arrays, membership and radii, at any thread count.

QuotientGraph serial_reference_quotient(const Graph& g, const Clustering& c) {
  QuotientGraph out;
  out.center_of_cluster = c.centers;
  const auto k = static_cast<NodeId>(c.centers.size());
  std::vector<NodeId> index_of_center(g.num_nodes(), kInvalidNode);
  for (NodeId i = 0; i < k; ++i) index_of_center[c.centers[i]] = i;
  out.cluster_of_node.resize(g.num_nodes());
  out.cluster_radius.assign(k, 0.0);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const NodeId cu = index_of_center[c.center_of[u]];
    out.cluster_of_node[u] = cu;
    out.cluster_radius[cu] =
        std::max(out.cluster_radius[cu], c.dist_to_center[u]);
  }
  GraphBuilder b(k);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto nbr = g.neighbors(u);
    const auto wts = g.weights(u);
    for (std::size_t i = 0; i < nbr.size(); ++i) {
      if (u >= nbr[i]) continue;
      const NodeId cu = out.cluster_of_node[u];
      const NodeId cv = out.cluster_of_node[nbr[i]];
      if (cu == cv) continue;
      b.add_edge(cu, cv,
                 wts[i] + c.dist_to_center[u] + c.dist_to_center[nbr[i]]);
    }
  }
  out.graph = b.build();
  return out;
}

/// Thread counts every parity test runs at: one, and at least four so the
/// dynamic schedules interleave even on a small machine.
std::vector<int> parity_thread_counts() {
  return {1, std::max(4, util::num_threads())};
}

/// build_quotient at every parity thread count against the serial reference.
void expect_matches_reference(const Graph& g, const Clustering& c,
                              const std::string& what) {
  const QuotientGraph ref = serial_reference_quotient(g, c);
  const int prev = util::num_threads();
  for (const int threads : parity_thread_counts()) {
    util::set_num_threads(threads);
    const QuotientGraph got = build_quotient(g, c);
    const std::string where = what + " threads=" + std::to_string(threads);
    EXPECT_EQ(ref.cluster_of_node, got.cluster_of_node) << where;
    EXPECT_EQ(ref.cluster_radius, got.cluster_radius) << where;  // exact
    EXPECT_EQ(ref.center_of_cluster, got.center_of_cluster) << where;
    EXPECT_EQ(test::vec(ref.graph.offsets()), test::vec(got.graph.offsets()))
        << where;
    EXPECT_EQ(test::vec(ref.graph.targets()), test::vec(got.graph.targets()))
        << where;
    EXPECT_EQ(test::vec(ref.graph.edge_weights()),
              test::vec(got.graph.edge_weights()))
        << where;
  }
  util::set_num_threads(prev);
}

Clustering single_cluster(const Graph& g) {
  Clustering c;
  c.center_of.assign(g.num_nodes(), 0);
  c.dist_to_center.resize(g.num_nodes());
  const auto dist = sssp::dijkstra_distances(g, 0);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    c.dist_to_center[u] = dist[u] == kInfiniteWeight ? 0.0 : dist[u];
  }
  c.centers = {0};
  return c;
}

/// Two family graphs side by side plus an isolated node.
Graph disconnected_graph(std::uint64_t seed) {
  const Graph a = test::make_family(Family::kMeshUniform, 120, seed);
  const Graph b = test::make_family(Family::kRmatGiant, 150, seed + 1);
  const NodeId shift = a.num_nodes();
  GraphBuilder builder(shift + b.num_nodes() + 1);
  builder.add_edges(to_edge_list(a));
  for (const Edge& e : to_edge_list(b)) {
    builder.add_edge(e.u + shift, e.v + shift, e.w);
  }
  return builder.build();
}

TEST(QuotientParallel, BitIdenticalToSerialReferenceOnAllFamilies) {
  for (const Family family : test::all_families()) {
    const Graph g = test::make_family(family, 220, 19);
    const std::string name = test::family_name(family);
    for (const std::uint32_t tau : {1u, 4u, 16u}) {
      ClusterOptions opts;
      opts.tau = tau;
      opts.seed = 29;
      opts.stop_factor = 2.0;
      expect_matches_reference(g, cluster(g, opts),
                               name + " tau=" + std::to_string(tau));
    }
    expect_matches_reference(g, identity_clustering(g), name + " identity");
    expect_matches_reference(g, single_cluster(g), name + " single");
  }
  const Graph g = disconnected_graph(7);
  for (const std::uint32_t tau : {1u, 4u, 16u}) {
    ClusterOptions opts;
    opts.tau = tau;
    opts.seed = 3;
    expect_matches_reference(g, cluster(g, opts),
                             "disconnected tau=" + std::to_string(tau));
  }
  expect_matches_reference(g, identity_clustering(g), "disconnected identity");
}

TEST(QuotientParallel, ManyCutEdgesPerClusterPairKeepTheMinimum) {
  // Six clusters over 300 nodes and ~50k random edges: every cluster pair
  // is hit by thousands of cut edges, many with equal weights. Weights and
  // center distances are multiples of 0.1 and 0.01 (not exact in binary),
  // so w + d_u + d_v rounds differently depending on the summation order —
  // the build must pick the same minimum, with the same rounding, as the
  // sort+dedup reference.
  constexpr NodeId n = 300;
  constexpr NodeId k = 6;
  util::Xoshiro256 rng(101);
  GraphBuilder b(n);
  for (int i = 0; i < 50000; ++i) {
    const auto u = static_cast<NodeId>(rng.next_bounded(n));
    const auto v = static_cast<NodeId>(rng.next_bounded(n));
    if (u == v) continue;
    b.add_edge(u, v, 0.1 * static_cast<Weight>(1 + rng.next_bounded(8)));
  }
  const Graph g = b.build();
  Clustering c;
  c.center_of.resize(n);
  c.dist_to_center.resize(n);
  for (NodeId u = 0; u < n; ++u) {
    c.center_of[u] = u % k;
    c.dist_to_center[u] =
        u < k ? 0.0 : 0.01 * static_cast<Weight>(1 + rng.next_bounded(97));
  }
  for (NodeId i = 0; i < k; ++i) c.centers.push_back(i);
  expect_matches_reference(g, c, "adversarial");

  const QuotientGraph q = build_quotient(g, c);
  EXPECT_EQ(q.graph.num_edges(), k * (k - 1) / 2);  // complete: all pairs hit
  EXPECT_TRUE(q.graph.is_symmetric());
}

TEST(QuotientParallel, RejectsInvalidClusterings) {
  const Graph g = gen::path(4);
  Clustering c = identity_clustering(g);
  c.center_of[2] = kInvalidNode;  // node outside every cluster
  EXPECT_THROW((void)build_quotient(g, c), std::invalid_argument);
  c = identity_clustering(g);
  c.dist_to_center[1] = kInfiniteWeight;  // cut weight not finite
  EXPECT_THROW((void)build_quotient(g, c), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// The headline property: Φ(G_C) + 2R is a conservative diameter estimate.

class QuotientConservative
    : public testing::TestWithParam<
          std::tuple<Family, std::uint32_t, std::uint64_t>> {};

TEST_P(QuotientConservative, EstimateAtLeastTrueDiameter) {
  const auto [family, tau, seed] = GetParam();
  const Graph g = test::make_family(family, 120, seed);
  const Weight diam = test::brute_force_diameter(g);

  ClusterOptions o;
  o.tau = tau;
  o.seed = seed;
  const Clustering c = cluster(g, o);
  const QuotientGraph q = build_quotient(g, c);
  const Weight phi_qc = sssp::exact_diameter(q.graph);
  const Weight estimate = phi_qc + 2.0 * c.radius;
  EXPECT_GE(estimate * (1.0 + 1e-6), diam)
      << test::family_name(family) << " tau=" << tau << " seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, QuotientConservative,
    testing::Combine(testing::ValuesIn(test::all_families()),
                     testing::Values(1u, 4u, 16u),
                     testing::Values(2u, 31u)),
    [](const auto& param_info) {
      return std::string(test::family_name(std::get<0>(param_info.param))) +
             "_t" + std::to_string(std::get<1>(param_info.param)) + "_s" +
             std::to_string(std::get<2>(param_info.param));
    });

/// A plain graph as the quotient of its singleton clustering: every radius
/// is 0, so quotient_diameters' augmented metric equals the plain one.
QuotientGraph singleton_quotient(Graph g) {
  QuotientGraph q;
  q.cluster_radius.assign(g.num_nodes(), 0.0);
  q.graph = std::move(g);
  return q;
}

TEST(QuotientDiameter, ExactBelowThreshold) {
  const Graph g = test::make_family(Family::kGnmUniform, 100, 3);
  QuotientDiameterOptions o;
  o.exact_threshold = 200;
  const QuotientDiametersResult r = quotient_diameters(singleton_quotient(g), o);
  EXPECT_TRUE(r.exact);
  EXPECT_NEAR(r.plain, test::brute_force_diameter(g), 1e-9);
  EXPECT_EQ(r.plain, sssp::exact_diameter(g));
  EXPECT_EQ(r.augmented, r.plain);
}

TEST(QuotientDiameter, SweepsAboveThreshold) {
  QuotientDiameterOptions o;
  o.exact_threshold = 10;
  o.sweeps = 4;
  const QuotientDiametersResult r =
      quotient_diameters(singleton_quotient(gen::path(300)), o);
  EXPECT_FALSE(r.exact);
  // Sweeps nail a path's diameter after the first bounce.
  EXPECT_DOUBLE_EQ(r.plain, 299.0);
}

TEST(QuotientDiameter, SweepNeverExceedsExact) {
  const Graph g = test::make_family(Family::kRmatGiant, 300, 9);
  QuotientDiameterOptions sweep_o;
  sweep_o.exact_threshold = 1;
  sweep_o.sweeps = 8;
  const Weight exact = sssp::exact_diameter(g);
  const QuotientDiametersResult r =
      quotient_diameters(singleton_quotient(g), sweep_o);
  EXPECT_LE(r.plain, exact + 1e-9);
  EXPECT_GT(r.plain, 0.0);
}

TEST(QuotientDiameter, EmptyGraph) {
  const QuotientDiametersResult r =
      quotient_diameters(singleton_quotient(Graph{}));
  EXPECT_DOUBLE_EQ(r.plain, 0.0);
  EXPECT_DOUBLE_EQ(r.augmented, 0.0);
}

TEST(QuotientDiameters, PlainAndAugmentedConsistent) {
  const Graph g = test::make_family(Family::kMeshUniform, 200, 5);
  ClusterOptions o;
  o.tau = 4;
  o.seed = 5;
  const Clustering c = cluster(g, o);
  const QuotientGraph q = build_quotient(g, c);

  QuotientDiameterOptions qopts;
  qopts.exact_threshold = 100000;
  const QuotientDiametersResult both = quotient_diameters(q, qopts);
  ASSERT_TRUE(both.exact);
  // plain agrees with the standalone exact computation.
  EXPECT_EQ(both.plain, sssp::exact_diameter(q.graph));
  // augmented ≥ plain (radii are nonnegative) and ≥ 2·max cluster radius.
  EXPECT_GE(both.augmented, both.plain);
  Weight max_r = 0.0;
  for (const Weight r : q.cluster_radius) max_r = std::max(max_r, r);
  EXPECT_GE(both.augmented * (1.0 + 1e-12), 2.0 * max_r);
  // augmented ≤ the paper's classic bound plain + 2·max r.
  EXPECT_LE(both.augmented, both.plain + 2.0 * max_r + 1e-9);
}

TEST(QuotientDiameters, ClusterRadiusPerCluster) {
  const Graph g = gen::path(6);
  Clustering c;
  c.center_of = {0, 0, 0, 5, 5, 5};
  c.dist_to_center = {0.0, 1.0, 2.0, 2.0, 1.0, 0.0};
  c.centers = {0, 5};
  c.radius = 2.0;
  const QuotientGraph q = build_quotient(g, c);
  ASSERT_EQ(q.cluster_radius.size(), 2u);
  EXPECT_DOUBLE_EQ(q.cluster_radius[0], 2.0);
  EXPECT_DOUBLE_EQ(q.cluster_radius[1], 2.0);
  // Edge (2,3): w + d2 + d3 = 1 + 2 + 2 = 5; augmented diameter = 5 + 2 + 2.
  QuotientDiameterOptions qopts;
  const auto both = quotient_diameters(q, qopts);
  EXPECT_DOUBLE_EQ(both.plain, 5.0);
  EXPECT_DOUBLE_EQ(both.augmented, 9.0);
}

TEST(QuotientDiameters, SweepPathMatchesExactOnPathQuotient) {
  // Identity clustering of a long path: radii all 0, augmented == plain.
  const Graph g = gen::path(500);
  const Clustering c = identity_clustering(g);
  const QuotientGraph q = build_quotient(g, c);
  QuotientDiameterOptions qopts;
  qopts.exact_threshold = 10;  // force the sweep path
  qopts.sweeps = 4;
  const auto both = quotient_diameters(q, qopts);
  EXPECT_FALSE(both.exact);
  EXPECT_DOUBLE_EQ(both.plain, 499.0);
  EXPECT_DOUBLE_EQ(both.augmented, 499.0);
}

/// The sweep path as a serial loop: restart chains one after another, each
/// seed drawn from the stream just before its chain runs.
QuotientDiametersResult serial_reference_sweeps(
    const QuotientGraph& quotient, const QuotientDiameterOptions& opts) {
  QuotientDiametersResult out;
  const Graph& q = quotient.graph;
  const NodeId k = q.num_nodes();
  const std::vector<Weight>& radius = quotient.cluster_radius;
  for (const Weight r : radius) out.augmented = std::max(out.augmented, 2.0 * r);
  util::Xoshiro256 rng(opts.seed);
  for (unsigned r = 0; r < std::max(1u, opts.restarts); ++r) {
    auto source = static_cast<NodeId>(rng.next_bounded(k));
    std::vector<NodeId> visited;
    for (unsigned s = 0; s < std::max(1u, opts.sweeps); ++s) {
      if (std::find(visited.begin(), visited.end(), source) != visited.end()) {
        break;
      }
      visited.push_back(source);
      const auto dist = sssp::dijkstra_distances(q, source);
      NodeId far = source;
      Weight aug_ecc = 0.0;
      for (NodeId j = 0; j < k; ++j) {
        if (dist[j] == kInfiniteWeight) continue;
        out.plain = std::max(out.plain, dist[j]);
        if (dist[j] + radius[j] > aug_ecc) {
          aug_ecc = dist[j] + radius[j];
          far = j;
        }
      }
      out.augmented = std::max(out.augmented, aug_ecc + radius[source]);
      source = far;
    }
  }
  return out;
}

TEST(QuotientDiameters, ParallelRestartsMatchSerialLoop) {
  std::vector<std::pair<std::string, Graph>> graphs;
  for (const Family family : test::all_families()) {
    graphs.emplace_back(test::family_name(family),
                        test::make_family(family, 400, 23));
  }
  graphs.emplace_back("disconnected", disconnected_graph(11));
  const int prev = util::num_threads();
  for (const auto& [name, g] : graphs) {
    ClusterOptions copts;
    copts.tau = 4;
    copts.seed = 17;
    const QuotientGraph q = build_quotient(g, cluster(g, copts));
    for (const unsigned restarts : {1u, 4u, 7u}) {
      QuotientDiameterOptions qopts;
      qopts.exact_threshold = 1;  // force the sweep path
      qopts.restarts = restarts;
      qopts.seed = 5 + restarts;
      const QuotientDiametersResult ref = serial_reference_sweeps(q, qopts);
      for (const int threads : parity_thread_counts()) {
        util::set_num_threads(threads);
        const QuotientDiametersResult got = quotient_diameters(q, qopts);
        const std::string what = name + " restarts=" +
                                 std::to_string(restarts) +
                                 " threads=" + std::to_string(threads);
        EXPECT_FALSE(got.exact) << what;
        EXPECT_EQ(got.plain, ref.plain) << what;
        EXPECT_EQ(got.augmented, ref.augmented) << what;
      }
      util::set_num_threads(prev);
    }
  }
}

TEST(QuotientDiameter, DisconnectedQuotientUsesLargestIntraComponentDistance) {
  GraphBuilder b(7);
  for (NodeId u = 0; u + 1 < 4; ++u) b.add_edge(u, u + 1, 2.0);  // diam 6
  b.add_edge(5, 6, 1.0);                                         // diam 1
  const QuotientDiametersResult r =
      quotient_diameters(singleton_quotient(b.build()));
  EXPECT_TRUE(r.exact);
  EXPECT_DOUBLE_EQ(r.plain, 6.0);
}

}  // namespace
}  // namespace gdiam::core
