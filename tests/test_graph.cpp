// Unit tests for graph/graph.hpp + graph/builder.hpp + graph/ops.hpp:
// CSR invariants, builder normalization, structural operations.

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "graph/builder.hpp"
#include "graph/graph.hpp"
#include "graph/ops.hpp"
#include "test_helpers.hpp"
#include "util/parallel.hpp"

namespace gdiam {
namespace {

Graph triangle() {
  GraphBuilder b(3);
  b.add_edge(0, 1, 1.0);
  b.add_edge(1, 2, 2.0);
  b.add_edge(2, 0, 3.0);
  return b.build();
}

TEST(Graph, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_TRUE(g.validate());
}

TEST(Graph, TriangleBasics) {
  const Graph g = triangle();
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.num_directed_edges(), 6u);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_EQ(g.degree(2), 2u);
}

TEST(Graph, WeightStats) {
  const Graph g = triangle();
  EXPECT_DOUBLE_EQ(g.min_weight(), 1.0);
  EXPECT_DOUBLE_EQ(g.max_weight(), 3.0);
  EXPECT_DOUBLE_EQ(g.avg_weight(), 2.0);
}

TEST(Graph, AvgWeightIndependentOfThreadCount) {
  // Many blocks of weights that are not exact in binary: the mean (the
  // default Δ) must come out as the same double at every thread count.
  std::vector<EdgeIndex> offsets{0};
  std::vector<NodeId> targets;
  std::vector<Weight> weights;
  for (NodeId u = 0; u < 40000; ++u) {
    for (NodeId j = 0; j < 3; ++j) {
      targets.push_back((u + j + 1) % 40000);
      weights.push_back(0.1 * static_cast<Weight>(1 + (u * 7 + j) % 13));
    }
    offsets.push_back(targets.size());
  }
  const int prev = util::num_threads();
  util::set_num_threads(1);
  const Weight single = Graph(offsets, targets, weights).avg_weight();
  for (const int threads : {2, 3, 4, 7}) {
    util::set_num_threads(threads);
    EXPECT_EQ(Graph(offsets, targets, weights).avg_weight(), single)
        << "threads=" << threads;
  }
  util::set_num_threads(prev);
}

TEST(Graph, NeighborsAlignedWithWeights) {
  const Graph g = triangle();
  const auto nbr = g.neighbors(0);
  const auto wts = g.weights(0);
  ASSERT_EQ(nbr.size(), 2u);
  ASSERT_EQ(wts.size(), 2u);
  // CSR targets are sorted per node.
  EXPECT_EQ(nbr[0], 1u);
  EXPECT_EQ(nbr[1], 2u);
  EXPECT_DOUBLE_EQ(wts[0], 1.0);
  EXPECT_DOUBLE_EQ(wts[1], 3.0);
}

TEST(Graph, ValidateAndSymmetric) {
  const Graph g = triangle();
  EXPECT_TRUE(g.validate());
  EXPECT_TRUE(g.is_symmetric());
}

TEST(Graph, ConstructorRejectsInconsistentArrays) {
  std::vector<EdgeIndex> offsets{0, 1};
  std::vector<NodeId> targets{0, 0};  // size 2 != offsets.back() == 1
  std::vector<Weight> weights{1.0, 1.0};
  EXPECT_THROW(Graph(std::move(offsets), std::move(targets),
                     std::move(weights)),
               std::invalid_argument);
}

TEST(GraphBuilder, DropsSelfLoops) {
  GraphBuilder b(2);
  b.add_edge(0, 0, 1.0);
  b.add_edge(0, 1, 1.0);
  const Graph g = b.build();
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(GraphBuilder, ParallelEdgesKeepMinWeight) {
  GraphBuilder b(2);
  b.add_edge(0, 1, 5.0);
  b.add_edge(1, 0, 2.0);
  b.add_edge(0, 1, 7.0);
  const Graph g = b.build();
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_DOUBLE_EQ(g.weights(0)[0], 2.0);
  EXPECT_DOUBLE_EQ(g.weights(1)[0], 2.0);
}

TEST(GraphBuilder, RejectsBadNodeIds) {
  GraphBuilder b(2);
  EXPECT_THROW(b.add_edge(0, 2, 1.0), std::out_of_range);
}

TEST(GraphBuilder, RejectsBadWeights) {
  GraphBuilder b(2);
  EXPECT_THROW(b.add_edge(0, 1, 0.0), std::invalid_argument);
  EXPECT_THROW(b.add_edge(0, 1, -1.0), std::invalid_argument);
  EXPECT_THROW(b.add_edge(0, 1, kInfiniteWeight), std::invalid_argument);
}

TEST(GraphBuilder, ReusableAfterBuild) {
  GraphBuilder b(3);
  b.add_edge(0, 1, 1.0);
  (void)b.build();
  EXPECT_EQ(b.pending_edges(), 0u);
  b.add_edge(1, 2, 1.0);
  const Graph g = b.build();
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.degree(0), 0u);
}

TEST(GraphBuilder, IsolatedNodesAllowed) {
  GraphBuilder b(5);
  b.add_edge(0, 1, 1.0);
  const Graph g = b.build();
  EXPECT_EQ(g.num_nodes(), 5u);
  EXPECT_EQ(g.degree(4), 0u);
}

TEST(EdgeListRoundTrip, PreservesGraph) {
  const Graph g = test::make_family(test::Family::kGnmUniform, 50, 3);
  const EdgeList edges = to_edge_list(g);
  EXPECT_EQ(edges.size(), g.num_edges());
  const Graph h = build_graph(g.num_nodes(), edges);
  EXPECT_EQ(h.num_edges(), g.num_edges());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    ASSERT_EQ(h.degree(u), g.degree(u));
    const auto gn = g.neighbors(u), hn = h.neighbors(u);
    const auto gw = g.weights(u), hw = h.weights(u);
    for (std::size_t i = 0; i < gn.size(); ++i) {
      EXPECT_EQ(gn[i], hn[i]);
      EXPECT_DOUBLE_EQ(gw[i], hw[i]);
    }
  }
}

TEST(Ops, EdgeWeightAndHasEdge) {
  const Graph g = triangle();
  EXPECT_TRUE(has_edge(g, 0, 1));
  EXPECT_DOUBLE_EQ(edge_weight(g, 1, 2), 2.0);
  GraphBuilder b(4);
  b.add_edge(0, 1, 1.0);
  const Graph h = b.build();
  EXPECT_FALSE(has_edge(h, 0, 2));
  EXPECT_EQ(edge_weight(h, 0, 2), kInfiniteWeight);
}

TEST(Ops, InducedSubgraphKeepsInternalEdges) {
  // Path 0-1-2-3; select {1,2,3} -> path of 3 nodes.
  GraphBuilder b(4);
  for (NodeId u = 0; u < 3; ++u) b.add_edge(u, u + 1, static_cast<Weight>(u + 1));
  const Graph g = b.build();
  const Subgraph s = induced_subgraph(g, {1, 2, 3});
  EXPECT_EQ(s.graph.num_nodes(), 3u);
  EXPECT_EQ(s.graph.num_edges(), 2u);
  // to_original must map back to the selected (sorted) ids.
  ASSERT_EQ(s.to_original.size(), 3u);
  EXPECT_EQ(s.to_original[0], 1u);
  EXPECT_EQ(s.to_original[2], 3u);
  // Weight of the 1-2 edge carried over.
  EXPECT_DOUBLE_EQ(edge_weight(s.graph, 0, 1), 2.0);
}

TEST(Ops, InducedSubgraphIgnoresDuplicates) {
  const Graph g = triangle();
  const Subgraph s = induced_subgraph(g, {0, 0, 1, 1});
  EXPECT_EQ(s.graph.num_nodes(), 2u);
  EXPECT_EQ(s.graph.num_edges(), 1u);
}

TEST(Ops, ReweightAppliesFunction) {
  const Graph g = triangle();
  const Graph h = reweight(g, [](NodeId, NodeId, Weight w) { return w * 2.0; });
  EXPECT_DOUBLE_EQ(h.min_weight(), 2.0);
  EXPECT_DOUBLE_EQ(h.max_weight(), 6.0);
  EXPECT_EQ(h.num_edges(), g.num_edges());
}

TEST(Ops, DegreeStats) {
  GraphBuilder b(4);  // star on 4 nodes
  for (NodeId u = 1; u < 4; ++u) b.add_edge(0, u, 1.0);
  const DegreeStats s = degree_stats(b.build());
  EXPECT_EQ(s.min, 1u);
  EXPECT_EQ(s.max, 3u);
  EXPECT_DOUBLE_EQ(s.avg, 6.0 / 4.0);
}

TEST(BruteForce, ApspOnTriangle) {
  const auto d = test::brute_force_apsp(triangle());
  EXPECT_DOUBLE_EQ(d[0][1], 1.0);
  EXPECT_DOUBLE_EQ(d[0][2], 3.0);
  EXPECT_DOUBLE_EQ(d[1][2], 2.0);
  EXPECT_DOUBLE_EQ(test::brute_force_diameter(triangle()), 3.0);
}

}  // namespace
}  // namespace gdiam
