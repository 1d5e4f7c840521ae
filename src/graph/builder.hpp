#pragma once
// Construction of CSR graphs from edge lists.
//
// GraphBuilder normalizes arbitrary edge input into the invariants the rest
// of the library relies on: undirected symmetry, no self-loops, no parallel
// edges (the minimum weight wins, matching the paper's quotient-graph rule),
// and strictly positive finite weights.

#include <cstdint>

#include "graph/graph.hpp"

namespace gdiam {

class GraphBuilder {
 public:
  /// `num_nodes` fixes the node-id universe [0, num_nodes); edges touching
  /// ids outside it are rejected with std::out_of_range at add time.
  explicit GraphBuilder(NodeId num_nodes);

  /// Adds an undirected edge; self-loops are silently dropped (they never
  /// affect distances), non-positive or non-finite weights throw.
  void add_edge(NodeId u, NodeId v, Weight w);

  void add_edges(const EdgeList& edges);

  [[nodiscard]] NodeId num_nodes() const noexcept { return n_; }

  /// Number of arcs accumulated so far (before dedup).
  [[nodiscard]] std::size_t pending_edges() const noexcept {
    return edges_.size();
  }

  /// Sorts, deduplicates (min weight per node pair) and emits the CSR graph.
  /// The builder is left empty and reusable.
  [[nodiscard]] Graph build();

 private:

  NodeId n_;
  EdgeList edges_;
};

/// One-shot convenience: build a graph on `num_nodes` nodes from `edges`.
[[nodiscard]] Graph build_graph(NodeId num_nodes, const EdgeList& edges);

/// Inverse of build_graph: each undirected edge once, with u < v, sorted.
[[nodiscard]] EdgeList to_edge_list(const Graph& g);

}  // namespace gdiam
