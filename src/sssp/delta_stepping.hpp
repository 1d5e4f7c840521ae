#pragma once
// Δ-stepping SSSP (Meyer & Sanders, J. Algorithms 2003).
//
// The paper's baseline: the state-of-the-art practical parallel SSSP and the
// only linear-space competitor for diameter approximation in the MapReduce
// setting (2·ecc(source) is a 2-approximation of the diameter).
//
// Tentative distances live in buckets of width Δ. The smallest nonempty
// bucket is repeatedly emptied with *light*-edge (w ≤ Δ) relaxation phases
// until it stabilizes, then all nodes settled in it relax their *heavy*
// edges once. Small Δ approaches Dijkstra (little work, many rounds); large
// Δ approaches Bellman–Ford (few rounds, much work).
//
// MR accounting (mr/stats.hpp): each light/heavy relaxation phase counts as
// one relaxation round, each bucket-selection scan as one auxiliary round;
// messages = relaxation requests, node updates = accepted improvements.

// With partition.num_partitions > 1 every relaxation phase runs as one BSP
// superstep on K shards (mr/bsp_engine.hpp): shard-internal relaxations are
// applied locally, cross-shard ones travel through the typed exchange, and
// the stats additionally report the cross-partition messages/bytes a real
// MR shuffle would pay. Distances are identical to the flat kernel (same
// min-reduction fixpoint per phase). With transport.kind == kPool
// (mr/transport.hpp) the supersteps' compute phases additionally fan out
// over resident worker processes — still bit-identical, with the genuinely-
// crossed wire bytes reported on top (DESIGN.md §9).
//
// Frontier maintenance (improved-node sets, settled-set dedup, bucket and
// exchange scratch) runs on the sparse/dense engine and the RoundBuffers
// pool of core/frontier.hpp / DESIGN.md §7, and every phase walks exactly
// its edge class of the Δ-presplit adjacency (graph/split_csr.hpp);
// repeated runs on one graph share an exec::Context (exec/context.hpp) so
// the presplit and the pools carry across sources.

#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "core/frontier.hpp"
#include "exec/options.hpp"
#include "graph/graph.hpp"
#include "graph/split_csr.hpp"
#include "mr/exchange.hpp"
#include "mr/partition.hpp"
#include "mr/stats.hpp"
#include "mr/transport.hpp"

namespace gdiam::exec {
class Context;
}  // namespace gdiam::exec

namespace gdiam::sssp {

/// Δ-stepping knobs. The shared execution knobs — `frontier` (sparse/dense
/// thresholds of the improved-set engine), `partition` (BSP shard layout;
/// K <= 1 = flat kernel) and transport — are inherited from
/// exec::ExecOptions, the single definition every gdiam kernel shares
/// (DESIGN.md §8).
struct DeltaSteppingOptions : exec::ExecOptions {
  /// Bucket width; 0 selects the common heuristic Δ = avg edge weight.
  Weight delta = 0.0;
  /// Cap on light-phase iterations per bucket (safety valve; 0 = unlimited).
  std::uint64_t max_phases_per_bucket = 0;
};

/// One cross-shard relaxation request: "lower dist of your node `target`
/// (destination-local id) to the order-encoded distance `bits`". Packed so
/// the exchange's sizeof-based byte accounting reports the 12 serialized
/// bytes, not 16 with padding.
struct [[gnu::packed]] DistProposal {
  NodeId target = 0;
  std::uint64_t bits = 0;
};
static_assert(sizeof(DistProposal) == 12);

/// One frontier node with its phase-start distance (a relaxation phase's
/// input). The pool transport ships these records as raw bytes, so the type
/// is trivially copyable and its padding is an explicit zeroed field: no
/// indeterminate byte goes over a socket. 16 bytes per record, as `wire=`
/// counts them.
struct FrontierEntry {
  NodeId node = 0;
  std::uint32_t pad = 0;
  Weight dist = 0.0;
};
static_assert(sizeof(FrontierEntry) == 16);
static_assert(std::is_trivially_copyable_v<FrontierEntry>);

/// Per-run pool of round-lifetime scratch: everything a Δ-stepping run
/// touches once per bucket or phase — tentative distances, cyclic bucket
/// slots, drained/settled/frontier lists, frontier snapshots, per-vertex
/// stamps, the improved-set Frontier and the partitioned exchange staging —
/// is allocated here once per run. Owned by an exec::Context and carried
/// across runs, steady-state runs allocate almost nothing. The partitioned
/// path's transport lives here too, so a pooled run on a warm context
/// reuses the resident workers an earlier run forked (DESIGN.md §10).
struct RoundBuffers {
  core::Frontier improved;               // per-phase improved-node set
  std::vector<std::uint64_t> dist_bits;  // order-encoded tentative distances
  // Cyclic bucket array storage (slots + per-node queued markers).
  std::vector<std::vector<NodeId>> bucket_slots;
  std::vector<std::uint64_t> bucket_queued;
  // Per-bucket / per-phase node lists.
  std::vector<NodeId> drained;
  std::vector<NodeId> active;
  std::vector<NodeId> settled;
  std::vector<FrontierEntry> snapshot;
  // Per-vertex stamps: settled-set dedup.
  std::vector<std::uint32_t> stamps;
  std::uint32_t stamp_round = 0;
  // Exchange scratch for the partitioned BSP backend.
  mr::Exchange<DistProposal> exchange;
  std::vector<std::vector<FrontierEntry>> by_shard;
  std::vector<std::uint64_t> shard_messages;
  std::vector<std::uint64_t> shard_updates;
  /// The pooled partitioned path's transport, kept across runs with the
  /// shard layout and worker count it was built for (transport_for). A
  /// local partitioned run uses the BSP engine's own LocalTransport and
  /// leaves this one, workers included, alone.
  std::unique_ptr<mr::Transport> transport;
  const mr::Partition* transport_part = nullptr;
  std::uint32_t transport_processes = 0;
  /// Resident-worker (PoolTransport) input slots: the current relaxation
  /// phase's edge class, the run's Δ and its shard presplit, which compute
  /// reads. They live here — stable heap addresses — so a pool worker's
  /// frozen closures read what decode_input just installed, not the stale
  /// fork-time copy of a stack variable.
  std::uint8_t pool_kind = 0;
  Weight pool_delta = 0.0;
  const std::vector<CsrSplit>* pool_splits = nullptr;
  /// The Δ the resident workers hold. A run at another Δ ships its Δ in
  /// the input frames of its first superstep, and each worker looks the
  /// presplit up in its snapshot of the context cache.
  Weight workers_delta = 0.0;
  /// The context's presplit build count when the workers last (re)forked,
  /// and the runs' StepInputCodec::epoch: a build since then may be a
  /// presplit the workers' snapshot lacks, so the epoch moves and the pool
  /// respawns them.
  std::uint64_t pool_split_builds = 0;
  std::uint64_t pool_epoch = 0;

  /// Rebinds the pool to an n-vertex run, keeping every buffer's capacity.
  void reset(NodeId n, const core::FrontierOptions& opts);

  /// The pool transport for a run on `part` with `processes` workers at
  /// bucket width `delta`, after the context has built `split_builds`
  /// shard presplits: the resident one while (part, processes) match the
  /// key it was built for, else a new one (the old pool's workers stop
  /// first). Bumps pool_epoch when `split_builds` moved since the workers
  /// forked.
  mr::Transport& transport_for(const mr::Partition& part,
                               std::uint32_t processes, Weight delta,
                               std::uint64_t split_builds);
  /// Stops and drops the resident transport (its workers included).
  void drop_transport() noexcept;

  /// Opens a fresh stamp generation (start of a bucket): every vertex reads
  /// as unstamped without touching the array.
  void new_stamp_round();
  /// First call per (v, generation) returns true. Single-threaded contexts
  /// only.
  [[nodiscard]] bool stamp_once(NodeId v);
};

/// Result of one Δ-stepping run.
struct DeltaSteppingResult {
  std::vector<Weight> dist;
  mr::RoundStats stats;
  NodeId farthest = kInvalidNode;  // reachable node with maximum distance
  Weight eccentricity = 0.0;
  Weight delta_used = 0.0;
  /// Outer steps: buckets emptied.
  std::uint64_t buckets_processed = 0;
  /// Shards the run executed on (1 = flat shared-memory kernel).
  std::uint32_t partitions_used = 1;
  /// Worker processes the BSP compute phases fanned out over (1 = in-process
  /// LocalTransport; >1 only under TransportKind::kPool).
  std::uint32_t processes_used = 1;
};

/// Parallel Δ-stepping from `source`. Distances are exact (same relaxation
/// fixpoint as Dijkstra); deterministic via atomic min-reduction. A non-null
/// `ctx` (exec/context.hpp) pools the RoundBuffers and the split/partition
/// caches across runs (results are identical with or without one).
[[nodiscard]] DeltaSteppingResult delta_stepping(
    const Graph& g, NodeId source, const DeltaSteppingOptions& opts = {},
    exec::Context* ctx = nullptr);

/// Forwarding alias of delta_stepping. It exists only because the benchmark
/// harness (perfbench/harness.cpp), whose source is fixed, calls SSSP under
/// this name; library code calls delta_stepping.
[[nodiscard]] inline DeltaSteppingResult shortest_paths(
    const Graph& g, NodeId source, const DeltaSteppingOptions& opts = {},
    exec::Context* ctx = nullptr) {
  return delta_stepping(g, source, opts, ctx);
}

/// Diameter upper bound 2·ecc(source) plus the stats of the underlying run —
/// the SSSP-based approximation the paper compares against.
struct SsspDiameterApprox {
  Weight upper_bound = 0.0;   // 2 * eccentricity
  Weight eccentricity = 0.0;  // itself a lower bound on the diameter
  mr::RoundStats stats;
  Weight delta_used = 0.0;
};

[[nodiscard]] SsspDiameterApprox diameter_two_approx(
    const Graph& g, NodeId source, const DeltaSteppingOptions& opts = {});

}  // namespace gdiam::sssp
