#pragma once
// Shared execution knobs (DESIGN.md §8).
//
// Every round-based kernel in gdiam is steered by the same choices: the
// thresholds of the sparse/dense frontier engine that maintains the
// per-round active sets, how many BSP shards the kernel runs on, and where
// their supersteps run. Before the unified runtime these knobs were duplicated across
// DeltaSteppingOptions, ClusterOptions and the GrowingEngine setters, and
// could silently disagree between pipeline layers (a CLUSTER run configured
// adaptive could hand its quotient sweep a default-configured Δ-stepping).
// ExecOptions is the single definition; kernel option structs inherit it, so
// one assignment configures a whole pipeline.

#include <cstdint>

#include "core/frontier.hpp"
#include "mr/partition.hpp"
#include "mr/transport.hpp"

namespace gdiam::exec {

/// Which stepping kernel services SSSP-shaped work (sssp::shortest_paths).
/// Both kernels share the Frontier/RoundBuffers/SplitCsr machinery and both
/// converge to exact distances; they differ only in how each step picks the
/// set of nodes to settle (DESIGN.md §11):
///
///   * kDeltaStepping — Meyer–Sanders buckets of width Δ: settle everything
///     below a distance threshold that advances by a fixed Δ per bucket,
///     with light/heavy edge phases. Round count tracks diameter/Δ.
///   * kRhoStepping — PASGAL-style batch sizing: each step extracts the ~ρ
///     closest frontier nodes (threshold chosen by sampling the frontier's
///     tentative distances) and relaxes *all* their edges. Step count tracks
///     n/ρ instead of the diameter, which wins on high-diameter graphs where
///     any fixed Δ either floods buckets or starves them.
enum class Algorithm : std::uint8_t { kDeltaStepping, kRhoStepping };

[[nodiscard]] constexpr const char* to_string(Algorithm a) noexcept {
  return a == Algorithm::kDeltaStepping ? "delta" : "rho";
}

/// The execution knobs shared by Δ-stepping, the Δ-growing policies, and the
/// CLUSTER / CLUSTER2 / CL-DIAM drivers. Kernel-specific option structs
/// (sssp::DeltaSteppingOptions, core::ClusterOptions) inherit these fields,
/// and exec::Context carries a copy as the pipeline-wide default.
struct ExecOptions {
  /// Thresholds of the sparse/dense frontier engine for the per-round active
  /// sets (core/frontier.hpp); they move the representation, never results.
  core::FrontierOptions frontier;
  /// Shard layout for the partitioned BSP backends; num_partitions <= 1
  /// selects the flat shared-memory kernels.
  mr::PartitionOptions partition;
  /// Where the BSP compute phases run and how staged messages travel
  /// (mr/transport.hpp, DESIGN.md §9–§10): kLocal is the in-process default,
  /// kProcess fans each superstep out over `processes` forked workers, and
  /// kPool keeps those workers resident across supersteps with per-step
  /// inputs shipped over persistent sockets — all bit-identical results,
  /// with RoundStats additionally reporting the genuinely-crossed wire
  /// bytes. Only the partitioned backends read it.
  mr::TransportOptions transport;
  /// NUMA-aware shard placement (mr/placement.hpp, DESIGN.md §13): which
  /// strategy maps shards onto the discovered topology (GDIAM_TOPOLOGY
  /// override honored). kNone — the default — is the pre-placement behavior
  /// verbatim. Placement moves memory and threads, never results: distances,
  /// labels and model counters are bit-identical across strategies. Only the
  /// partitioned BSP backends read it.
  mr::PlacementOptions placement;
  /// Stepping kernel for SSSP-shaped work (sssp::shortest_paths dispatches
  /// on it). Non-SSSP kernels (growing, CLUSTER) ignore it.
  Algorithm algorithm = Algorithm::kDeltaStepping;
};

}  // namespace gdiam::exec
