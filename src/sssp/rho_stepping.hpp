#pragma once
// ρ-stepping SSSP (Dong, Gu, Sun, Zhang — SPAA 2021; PASGAL's stepping
// framework), as a first-class sibling of Δ-stepping on the shared runtime.
//
// Δ-stepping's round count tracks diameter/Δ: any fixed bucket width either
// floods buckets on low-diameter graphs (wasted re-relaxation) or starves
// them on high-diameter ones (thousands of near-empty rounds). ρ-stepping
// sizes each step by *work* instead of *distance*: every step extracts the
// ~ρ closest frontier nodes — the distance threshold θ is chosen by sampling
// the frontier's tentative distances (≈ 1024 probes, seeded via util::rng)
// and taking the ρ/|F| quantile — and relaxes ALL
// their out-edges (no light/heavy split). Frontiers of ≤ ρ nodes are taken
// whole (θ = ∞). The step count tracks n/ρ, independent of the diameter.
//
// The kernel is label-correcting and converges to the exact Dijkstra
// fixpoint: θ is always one of the sampled tentative distances, so every
// step settles at least one frontier node and re-relaxes any node whose
// tentative distance later improves. Distances are bit-identical to
// Δ-stepping and Dijkstra (same min-reduction, tests/test_sssp.cpp).
//
// Determinism (the repo's contract: results AND model counters bit-identical
// across thread counts and transports): the threshold sample includes a
// frontier node v based on a hash of (seed, step, v) — a pure function of
// the frontier *set*, never of the materialized order, which is
// thread-interleaving-dependent for sparse collections. Everything
// downstream (near/far partition, messages, updates) is then set-determined.
//
// Scheduling reuses the Δ-stepping machinery wholesale: the same
// RoundBuffers pool, the improved-set Frontier, and with
// partition.num_partitions > 1 the same BSP superstep shape — shard-owned
// lowerings applied locally (loopback under remote transports), ghost
// targets through the typed exchange, resident pool workers fed per-step
// frontier frames. MR accounting follows the Δ-stepping convention: one
// auxiliary round per threshold-selection scan, one relaxation round per
// step's relax phase. ρ-stepping always relaxes a node's full adjacency, so
// the Δ-presplit layout has nothing to offer it (and an exec::Context shared
// with Δ-stepping keeps its cached SplitCsr untouched and reusable).

#include "sssp/delta_stepping.hpp"

namespace gdiam::sssp {

/// Parallel ρ-stepping from `source`. Same options/result structs as
/// Δ-stepping (opts.rho is the batch target, opts.delta is ignored); a
/// non-null ctx pools scratch and layouts across runs exactly like
/// delta_stepping does.
[[nodiscard]] DeltaSteppingResult rho_stepping(
    const Graph& g, NodeId source, const DeltaSteppingOptions& opts = {},
    exec::Context* ctx = nullptr);

/// The kernel dispatcher every SSSP consumer (sweep, CLI, daemon, benches)
/// goes through: runs delta_stepping or rho_stepping per opts.algorithm.
[[nodiscard]] DeltaSteppingResult shortest_paths(
    const Graph& g, NodeId source, const DeltaSteppingOptions& opts = {},
    exec::Context* ctx = nullptr);

}  // namespace gdiam::sssp
