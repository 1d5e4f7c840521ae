#pragma once
// Weighted quotient graph of a clustering (Section 4 of the paper).
//
// Nodes of G_C are the clusters; for each edge (u,v) of G with
// c_u ≠ c_v there is an edge between the two clusters of weight
// w(u,v) + d_u + d_v (multiple edges collapse to the minimum weight).
// Because d_u, d_v are upper bounds on real distances to the centers, every
// quotient path over-estimates a real path, so
// Φ_approx = Φ(G_C) + 2·R ≥ Φ(G): the estimate is conservative.

#include <cstdint>
#include <vector>

#include "core/cluster.hpp"
#include "graph/graph.hpp"

namespace gdiam::exec {
class Context;
}  // namespace gdiam::exec

namespace gdiam::core {

struct QuotientGraph {
  /// The quotient itself; node i corresponds to cluster i.
  Graph graph;
  /// Cluster index -> original center node id (ascending center ids).
  std::vector<NodeId> center_of_cluster;
  /// Original node id -> cluster index.
  std::vector<NodeId> cluster_of_node;
  /// Cluster index -> radius r(C_i) = max dist_to_center over members.
  std::vector<Weight> cluster_radius;
};

/// Builds G_C from a clustering of g in linear work: nodes are
/// counting-sorted by cluster, then each cluster's row is gathered from its
/// members' arcs (minimum cut weight per neighbouring cluster) in parallel
/// over clusters and written straight into the CSR arrays. The output is a
/// pure function of (g, clustering) — bit-identical at any thread count and
/// to a GraphBuilder sort+dedup of the cut edges. Relies on g's symmetric
/// weights (a GraphBuilder / .gcsr invariant). Throws std::invalid_argument
/// when the clustering does not cover g or a cut weight is not positive and
/// finite. `ctx` no longer selects a scan path; it is kept for callers that
/// thread one context through the whole pipeline.
[[nodiscard]] QuotientGraph build_quotient(const Graph& g,
                                           const Clustering& clustering,
                                           exec::Context* ctx = nullptr);

struct QuotientDiameterOptions {
  /// Up to this many quotient nodes the diameter is computed exactly
  /// (all-pairs Dijkstra, parallel over sources).
  NodeId exact_threshold = 2048;
  /// Iterated-sweep budget for larger quotients: `restarts` independent
  /// chains of up to `sweeps` Dijkstras each, seeded from `seed`'s stream so
  /// disconnected quotients are probed too. The chains run concurrently;
  /// the result does not depend on the thread count.
  unsigned sweeps = 16;
  unsigned restarts = 4;
  std::uint64_t seed = 1;
};

/// Both quotient metrics from one pass over the quotient (each Dijkstra
/// feeds the plain max and the radius-augmented max simultaneously) — what
/// CL-DIAM uses so the classic and refined estimates cost one traversal.
/// Exact below `exact_threshold` nodes, iterated-sweep estimate above; the
/// paper likewise computes (a constant approximation of) Φ(G_C) on a single
/// machine in O(1) rounds.
///
/// `augmented` is the radius-aware diameter bound: max over cluster pairs of
/// dist_GC(C1, C2) + r(C1) + r(C2), and 2·r(C) for intra-cluster pairs.
/// Since dist_G(u, v) ≤ dist_GC(C_u, C_v) + r(C_u) + r(C_v), this is a
/// conservative Φ(G) upper bound that is never worse than the paper's
/// Φ(G_C) + 2·max r — the global-radius outlier is only charged when its
/// own cluster realizes the quotient diameter (DESIGN.md §3 refinement).
struct QuotientDiametersResult {
  Weight plain = 0.0;      // Φ(G_C)
  Weight augmented = 0.0;  // max pair dist + r(C1) + r(C2), and 2·r(C)
  bool exact = false;
};

[[nodiscard]] QuotientDiametersResult quotient_diameters(
    const QuotientGraph& quotient, const QuotientDiameterOptions& opts = {});

}  // namespace gdiam::core
