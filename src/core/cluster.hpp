#pragma once
// Algorithm CLUSTER(G, τ) — Section 3 of the paper.
//
// Grows disjoint clusters of bounded weighted radius in O(log n) stages.
// Each stage selects a fresh random batch of centers among still-uncovered
// nodes (probability γ·τ·log n / #uncovered, γ = 4·ln 2), then performs
// Δ-growing steps with geometrically increasing guesses of Δ until at least
// half of the uncovered nodes are captured. Contraction is performed
// logically: covered nodes re-enter later stages as zero-distance sources of
// their cluster and never accept a new label — exactly the effect of
// Procedure Contract's re-attached frontier edges (DESIGN.md §3).
//
// The practical optimizations of the paper's Section 5 are exposed as
// options: the initial Δ guess (average edge weight by default — the
// pseudocode's minimum edge weight and a fixed value are also available) and
// the cap on growing steps per PartialGrowth call (the final remark of
// Section 4, trading approximation for round complexity).

#include <cstdint>
#include <vector>

#include "core/growing.hpp"
#include "exec/options.hpp"
#include "graph/graph.hpp"
#include "mr/stats.hpp"

namespace gdiam::exec {
class Context;
}  // namespace gdiam::exec

namespace gdiam::core {

/// How the initial guess of Δ is chosen before the doubling search.
enum class DeltaInit {
  kMinWeight,      // pseudocode: Δ ← min edge weight
  kAverageWeight,  // Section 5: "a good initial guess for Δ is the average
                   // edge weight" (the default)
  kFixed,          // caller-provided value (used by the Δ-init ablation)
};

/// CLUSTER knobs. The shared execution knobs — `frontier` (sparse/dense
/// thresholds of the growing steps' frontier engine), `partition` (shard
/// layout for GrowingPolicy::kPartitioned; ignored by kPush/kPull),
/// transport and placement — are inherited from exec::ExecOptions
/// (DESIGN.md §8).
struct ClusterOptions : exec::ExecOptions {
  /// Target decomposition granularity τ (number-of-clusters knob; the final
  /// clustering has O(τ log² n) clusters).
  std::uint32_t tau = 64;
  DeltaInit delta_init = DeltaInit::kAverageWeight;
  /// Initial Δ when delta_init == kFixed.
  Weight delta_fixed = 1.0;
  /// Stop growing stages when #uncovered < stop_factor · τ · log₂ n and make
  /// the remainder singleton clusters (pseudocode uses 8).
  double stop_factor = 8.0;
  /// Center-selection constant γ (pseudocode: 4·ln 2).
  double gamma = 2.772588722239781;
  /// Cap on Δ-growing steps per PartialGrowth invocation (Section 4 final
  /// remark suggests O(n/τ)); 0 = unlimited.
  std::uint64_t max_steps_per_growth = 0;
  GrowingPolicy policy = GrowingPolicy::kPush;
  std::uint64_t seed = 1;
};

/// A decomposition of the node set into disjoint clusters.
struct Clustering {
  /// Center (original node id) of the cluster containing each node.
  std::vector<NodeId> center_of;
  /// Upper bound on dist(center_of[u], u) — full double precision.
  std::vector<Weight> dist_to_center;
  /// Distinct centers, ascending.
  std::vector<NodeId> centers;
  /// max dist_to_center: the clustering radius R_CL(τ).
  Weight radius = 0.0;
  /// Final value of Δ (∆_end in the paper's analysis). 0 for CLUSTER2.
  Weight delta_end = 0.0;
  /// Outer-loop stages executed (CLUSTER) or iterations (CLUSTER2).
  std::uint32_t stages = 0;
  mr::RoundStats stats;

  [[nodiscard]] NodeId num_clusters() const noexcept {
    return static_cast<NodeId>(centers.size());
  }

  /// Structural sanity: sizes match, every node assigned, centers have
  /// distance 0 and belong to their own cluster.
  [[nodiscard]] bool validate(const Graph& g) const;
};

/// Runs CLUSTER(G, τ). Every node ends up in exactly one cluster; works on
/// disconnected graphs (isolated regions become singletons). A non-null
/// `ctx` (exec/context.hpp) pools the growing engine and the Δ-presplit /
/// shard-layout caches across calls — the decomposition is bit-identical
/// with or without one (tests/test_exec_context.cpp).
[[nodiscard]] Clustering cluster(const Graph& g, const ClusterOptions& opts,
                                 exec::Context* ctx = nullptr);

/// τ that keeps the final number of clusters around `target_clusters`
/// (the paper sizes τ so the quotient fits one machine: ≤ 100k nodes).
/// Inverts the O(τ log² n) cluster-count estimate conservatively.
[[nodiscard]] std::uint32_t tau_for_cluster_target(NodeId n,
                                                   NodeId target_clusters);

}  // namespace gdiam::core
