#pragma once
// Iterated-sweep diameter lower bound.
//
// The paper's ground-truth methodology (Table 2 caption): "a lower bound to
// the true diameter computed by running the sequential SSSP algorithm
// multiple times, each time starting from the farthest node reached by the
// previous run." On disconnected graphs sweeps stay within the start node's
// component; callers analyzing the giant component should extract it first
// (graph/components.hpp).
//
// Two SSSP kernels serve the sweep: sequential Dijkstra (the default, the
// paper's methodology verbatim) and parallel Δ-stepping. Both are exact, so
// they visit the same source sequence and return the same bound; Δ-stepping
// sweeps share one exec::Context, which means one SplitCsr presplit and one
// RoundBuffers pool across every equal-Δ repetition instead of
// re-presplitting and re-allocating per source (DESIGN.md §7–8).

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "mr/stats.hpp"
#include "sssp/delta_stepping.hpp"

namespace gdiam::sssp {

struct SweepOptions {
  /// Sweep budget; the iteration also stops early on a farthest-pair cycle.
  unsigned max_sweeps = 8;
  /// Seed for the pseudo-random start node (used when seed_node is invalid).
  std::uint64_t seed = 1;
  /// Explicit start node; kInvalidNode derives one from `seed`.
  NodeId seed_node = kInvalidNode;
  /// false — sequential Dijkstra per sweep (the paper's methodology);
  /// true — parallel Δ-stepping with a shared context: the Δ-presplit
  /// adjacency is built once for the whole sweep sequence (equal Δ) and the
  /// RoundBuffers pool is reused, so repetitions allocate almost nothing.
  bool use_delta_stepping = false;
  /// Δ-stepping configuration (use_delta_stepping only).
  DeltaSteppingOptions delta;
};

struct SweepResult {
  /// Best (largest) eccentricity found — a lower bound on the diameter.
  Weight lower_bound = 0.0;
  /// Sources visited, in order (first is the seed node).
  std::vector<NodeId> sources;
  /// Eccentricity measured from each source.
  std::vector<Weight> eccentricities;
  /// MR cost of the Δ-stepping sweeps (all-zero for the Dijkstra kernel,
  /// which is sequential and outside the MR accounting).
  mr::RoundStats stats;
};

/// Runs up to `opts.max_sweeps` SSSP sweeps starting from `opts.seed_node`
/// (kInvalidNode = pseudo-random node derived from `opts.seed`). Stops early
/// when the frontier node repeats (a 2-cycle of farthest pairs). A non-null
/// `ctx` is used by the Δ-stepping kernel's cross-sweep pooling (a local one
/// serves otherwise; results are identical either way).
[[nodiscard]] SweepResult diameter_lower_bound(const Graph& g,
                                               const SweepOptions& opts,
                                               exec::Context* ctx = nullptr);

/// Dijkstra-kernel convenience overload (the original API).
[[nodiscard]] SweepResult diameter_lower_bound(const Graph& g,
                                               unsigned max_sweeps,
                                               std::uint64_t seed = 1,
                                               NodeId seed_node = kInvalidNode);

}  // namespace gdiam::sssp
