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

#include "core/frontier.hpp"
#include "mr/partition.hpp"
#include "mr/transport.hpp"

namespace gdiam::exec {

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
  /// kPool fans each superstep out over `processes` forked workers kept
  /// resident across supersteps, with per-step inputs shipped over
  /// persistent sockets — bit-identical results, with RoundStats
  /// additionally reporting the genuinely-crossed wire bytes. Only the
  /// partitioned backends read it.
  mr::TransportOptions transport;
};

}  // namespace gdiam::exec
