#pragma once
// CL-DIAM: the end-to-end diameter approximation (Sections 4–5).
//
// Pipeline: decompose G with CLUSTER (the paper's practical choice; CLUSTER2
// available for the theoretical variant) → build the weighted quotient graph
// → Φ_approx(G) = Φ(G_C) + 2·R. The estimate is conservative
// (Φ_approx ≥ Φ(G), exactly when Φ(G_C) is computed exactly) and in practice
// within a factor < 1.4 of the true diameter on all the paper's benchmarks.

#include <cstdint>

#include "core/cluster.hpp"
#include "core/cluster2.hpp"
#include "core/quotient.hpp"
#include "graph/graph.hpp"
#include "mr/stats.hpp"

namespace gdiam::exec {
class Context;
}  // namespace gdiam::exec

namespace gdiam::core {

struct DiameterApproxOptions {
  ClusterOptions cluster;
  /// Use CLUSTER2 instead of CLUSTER for the decomposition. The paper's
  /// CL-DIAM uses CLUSTER: "CLUSTER2 ... does not seem to provide a
  /// significant improvement to the quality of the approximation in
  /// practice" (Section 5).
  bool use_cluster2 = false;
  /// Estimate via per-cluster radii (max over pairs of
  /// dist_GC + r(C1) + r(C2)) instead of the paper's global Φ(G_C) + 2·R.
  /// Strictly tighter, equally conservative (DESIGN.md §3); both values are
  /// reported in the result.
  bool radius_aware = true;
  QuotientDiameterOptions quotient;
};

struct DiameterApproxResult {
  /// The diameter upper bound: the radius-aware refinement by default, the
  /// paper's classic Φ(G_C) + 2·R when !opts.radius_aware. An upper bound
  /// on the true diameter whenever `quotient_exact`.
  Weight estimate = 0.0;
  /// The paper's classic formula Φ(G_C) + 2·R (always filled).
  Weight estimate_classic = 0.0;
  Weight quotient_diam = 0.0;
  bool quotient_exact = false;
  /// Radius R of the decomposition actually used for the estimate.
  Weight radius = 0.0;
  NodeId num_clusters = 0;
  EdgeIndex quotient_edges = 0;
  /// Rounds/messages/updates of the whole pipeline (clustering + quotient
  /// construction, charged one auxiliary round as in the paper's Theorem 3).
  mr::RoundStats stats;
  /// The decomposition, for callers that reuse it (exposed API).
  Clustering clustering;
};

/// Runs CL-DIAM on g. Works on disconnected graphs: the estimate then bounds
/// the largest intra-component distance (the paper's disconnected-graph
/// convention), provided the quotient diameter is exact.
///
/// One exec::Context serves the whole pipeline: the decomposition's pooled
/// growing engine and cached layouts run under it, and the context's
/// StatsSink receives the per-phase cost breakdown
/// (phases "decompose", "quotient", "diameter"; accumulated across runs on a
/// reused context). The returned result is bit-identical with or without a
/// context, and between fresh and reused contexts — the context-reuse A/B of
/// bench/micro_kernels rests on that (tests/test_exec_context.cpp).
[[nodiscard]] DiameterApproxResult approximate_diameter(
    const Graph& g, const DiameterApproxOptions& opts = {},
    exec::Context* ctx = nullptr);

}  // namespace gdiam::core
