#include "graph/builder.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace gdiam {

namespace {

/// Total order on arcs: source, target, then weight ascending — so after
/// sorting, the first arc of each (u, v) run carries the minimum weight and
/// plain unique() implements the paper's parallel-edge rule.
bool arc_less(const Edge& a, const Edge& b) noexcept {
  if (a.u != b.u) return a.u < b.u;
  if (a.v != b.v) return a.v < b.v;
  return a.w < b.w;
}

}  // namespace

GraphBuilder::GraphBuilder(NodeId num_nodes) : n_(num_nodes) {}

void GraphBuilder::add_edge(NodeId u, NodeId v, Weight w) {
  if (u >= n_ || v >= n_) {
    throw std::out_of_range("GraphBuilder: node id out of range");
  }
  if (!(w > 0.0) || !std::isfinite(w)) {
    throw std::invalid_argument(
        "GraphBuilder: weight must be positive and finite");
  }
  if (u == v) return;  // self-loops never affect shortest paths
  edges_.push_back(Edge{u, v, w});
}

void GraphBuilder::add_edges(const EdgeList& edges) {
  edges_.reserve(edges_.size() + edges.size());
  for (const Edge& e : edges) add_edge(e.u, e.v, e.w);
}

Graph GraphBuilder::build() {
  // Materialize both arc directions, then sort and deduplicate keeping the
  // minimum weight for parallel edges.
  std::vector<Edge> arcs;
  arcs.reserve(edges_.size() * 2);
  for (const Edge& e : edges_) {
    arcs.push_back(Edge{e.u, e.v, e.w});
    arcs.push_back(Edge{e.v, e.u, e.w});
  }
  edges_.clear();
  edges_.shrink_to_fit();
  std::sort(arcs.begin(), arcs.end(), arc_less);
  arcs.erase(std::unique(arcs.begin(), arcs.end(),
                         [](const Edge& a, const Edge& b) {
                           return a.u == b.u && a.v == b.v;
                         }),
             arcs.end());

  std::vector<EdgeIndex> offsets(static_cast<std::size_t>(n_) + 1, 0);
  for (const Edge& a : arcs) offsets[a.u + 1]++;
  for (std::size_t i = 1; i < offsets.size(); ++i) offsets[i] += offsets[i - 1];

  std::vector<NodeId> targets(arcs.size());
  std::vector<Weight> weights(arcs.size());
  for (std::size_t i = 0; i < arcs.size(); ++i) {
    targets[i] = arcs[i].v;
    weights[i] = arcs[i].w;
  }
  return Graph(std::move(offsets), std::move(targets), std::move(weights));
}

Graph build_graph(NodeId num_nodes, const EdgeList& edges) {
  GraphBuilder b(num_nodes);
  b.add_edges(edges);
  return b.build();
}

EdgeList to_edge_list(const Graph& g) {
  EdgeList out;
  out.reserve(g.num_edges());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto nbr = g.neighbors(u);
    const auto wts = g.weights(u);
    for (std::size_t i = 0; i < nbr.size(); ++i) {
      if (u < nbr[i]) out.push_back(Edge{u, nbr[i], wts[i]});
    }
  }
  return out;
}

}  // namespace gdiam
