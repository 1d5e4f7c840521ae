#pragma once
// The Δ-growing step engine (Section 3 of the paper).
//
// One Δ-growing step: "for each node u with d_u < Δ and for each light edge
// (u,v), in parallel, if d_u + w(u,v) ≤ Δ and d_v > d_u + w(u,v) then set
// d_v = d_u + w(u,v), c_v = c_u", ties resolved by smallest distance then
// smallest center index (implemented as a min-reduction over packed labels —
// see core/labels.hpp).
//
// The engine generalizes the step slightly so the same kernel serves both
// CLUSTER and CLUSTER2:
//   * `light_threshold` — edges heavier than this are never relaxed
//     (Δ for CLUSTER; 2·R_CL(τ) for CLUSTER2);
//   * a growth budget, either uniform (CLUSTER: d_u + w ≤ Δ) or per-center
//     (CLUSTER2: d_u + w ≤ (i − birth(c) + 1)·2R, the equivalent of the
//     weight rescaling in Procedure Contract2 — see DESIGN.md §3);
//   * `blocked` nodes — members of already-contracted clusters: they still
//     propose (they are the cluster's boundary re-attached to its center by
//     Procedure Contract) but never accept a new label.
//
// Three execution policies produce bit-identical labels per step:
//   * kPush — frontier-driven: only nodes whose label changed in the previous
//     step send proposals; conflicts resolved by atomic min. Fast path.
//   * kPull — synchronous Jacobi sweep; the MR-faithful formulation (each
//     step is literally one round of message exchange). Sparse rounds of
//     the frontier engine (core/frontier.hpp) restrict the sweep to receiver
//     candidates — the light neighbors of the senders — and only dense
//     rounds pay the classic full-length scan.
//   * kPartitioned — the step executed on the sharded BSP engine
//     (mr/bsp_engine.hpp): each shard relaxes its owned nodes locally and
//     routes proposals for remote nodes through a typed exchange, so the
//     cross-partition communication a real MR deployment would pay is
//     measured, not merely modeled (DESIGN.md §5).
//
// MR accounting: one relaxation round per step; a message is one proposal
// that satisfies the light/budget conditions; a node update is one accepted
// label improvement. The kPartitioned policy additionally records how many
// of those messages crossed a shard boundary and their payload bytes.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/frontier.hpp"
#include "core/labels.hpp"
#include "graph/graph.hpp"
#include "graph/split_csr.hpp"
#include "mr/bsp_engine.hpp"
#include "mr/exchange.hpp"
#include "mr/partition.hpp"
#include "mr/stats.hpp"

namespace gdiam::exec {
class Context;
}  // namespace gdiam::exec

namespace gdiam::core {

enum class GrowingPolicy { kPush, kPull, kPartitioned };

/// One cross-shard relaxation request: "lower the label of your node
/// `target` (destination-local id) to `label` if it improves it". Packed so
/// sizeof equals the 12 serialized bytes a wire format would carry — the
/// exchange's byte accounting uses sizeof and must not count padding.
struct [[gnu::packed]] LabelProposal {
  NodeId target = 0;  // local id within the destination shard
  PackedLabel label = kUnassignedLabel;
};
static_assert(sizeof(LabelProposal) == 12);

/// Per-step configuration. Exactly one of uniform budget / per-center budget
/// is in effect: `center_budget == nullptr` selects the uniform budget.
struct GrowingStepParams {
  /// Edges with w > light_threshold are ignored ("heavy" for this phase).
  Weight light_threshold = kInfiniteWeight;
  /// CLUSTER-style uniform budget Δ: relax only while d_u + w ≤ Δ.
  Weight uniform_budget = kInfiniteWeight;
  /// CLUSTER2-style per-center budgets, indexed by the *center's node id*.
  const std::vector<Weight>* center_budget = nullptr;
};

struct GrowingStepResult {
  std::uint64_t messages = 0;       // proposals satisfying the conditions
  std::uint64_t updates = 0;        // accepted label improvements
  std::uint64_t newly_labeled = 0;  // updates that hit an unassigned node
  /// Messages that crossed a shard boundary + their payload bytes
  /// (kPartitioned only; a subset of `messages`, zero for K = 1).
  std::uint64_t cross_messages = 0;
  std::uint64_t cross_bytes = 0;
  /// The subset of cross traffic whose endpoints the placement plan homes
  /// on different NUMA nodes (mr/placement.hpp; zero without an active
  /// plan's node map — see Exchange::set_node_map).
  std::uint64_t cross_node_messages = 0;
  std::uint64_t cross_node_bytes = 0;
  /// Records/bytes that crossed a *process* boundary (kPartitioned under
  /// TransportKind::kProcess only; see mr/transport.hpp).
  std::uint64_t wire_messages = 0;
  std::uint64_t wire_bytes = 0;
  /// Round classification under the sparse/dense frontier engine
  /// (core/frontier.hpp): exactly one of the two is 1 per step. run() folds
  /// them into the RoundStats mode counters so benches can report the
  /// sparse/dense mix.
  std::uint64_t sparse_rounds = 0;
  std::uint64_t dense_rounds = 0;
};

class GrowingEngine {
 public:
  /// `partition` configures the kPartitioned policy (number of shards and
  /// partitioner); ignored by kPush/kPull. A non-null `ctx` makes the engine
  /// borrow its shard layout and its Δ-presplit adjacencies from the
  /// context's keyed caches (exec/context.hpp) instead of building private
  /// copies — CLUSTER's doubling search and repeated runs on one graph then
  /// presplit each Δ once per context, not once per engine per stage. The
  /// context must outlive the engine (contexts pool their engines, so this
  /// holds by construction for engines obtained via
  /// exec::Context::growing_engine). Results are bit-identical with or
  /// without a context (every cached object is a pure function of its key).
  GrowingEngine(const Graph& g, GrowingPolicy policy,
                const mr::PartitionOptions& partition = {},
                exec::Context* ctx = nullptr);

  /// Back to the pristine state: all labels unassigned, nothing blocked.
  void reset();

  /// Clears every label to unassigned but keeps the blocked set
  /// (start of a CLUSTER stage: clusters re-grow from scratch as sources).
  void clear_labels();

  /// Installs a source label (d = `dist`, center = `center`) on `u`,
  /// bypassing the blocked check. Sources with dist 0 are cluster centers or
  /// contracted-cluster boundary nodes.
  void set_source(NodeId u, NodeId center, Weight dist = 0.0);

  /// Marks `u` as a contracted-cluster member: it keeps proposing from its
  /// current label but never accepts updates. Under a resident pool the
  /// node also joins the blocked delta the next step ships to the workers,
  /// which apply it to their own copy of the blocked set.
  void block(NodeId u) noexcept {
    blocked_[u] = 1;
    if (resident_pool()) {
      pool_blocked_bits_[u >> 6] |= std::uint64_t{1} << (u & 63);
      pool_blocked_dirty_ = true;
    }
  }
  /// Blocks a whole contraction wave on all threads (joining the shipped
  /// blocked delta under a resident pool, like block(u)).
  void block(std::span<const NodeId> wave) noexcept;
  [[nodiscard]] bool is_blocked(NodeId u) const noexcept {
    return blocked_[u] != 0;
  }

  [[nodiscard]] PackedLabel label(NodeId u) const noexcept {
    return labels_[u];
  }
  [[nodiscard]] const std::vector<PackedLabel>& labels() const noexcept {
    return labels_;
  }

  /// Δ-growing steps executed since the labels were last cleared (reset or
  /// clear_labels). A step extends a relaxation chain by at most one hop,
  /// so every current label is the float sum of a chain of at most this
  /// many hops from a source (see label_chain_bound in core/labels.hpp).
  [[nodiscard]] std::uint64_t steps_since_clear() const noexcept {
    return steps_since_clear_;
  }

  /// Recomputes the active set from scratch: every labeled node that could
  /// still propose under `params`. Call before the first step of a growth
  /// phase, and again after raising Δ (nodes stuck at the old budget
  /// boundary become active again).
  void rebuild_frontier(const GrowingStepParams& params);

  /// Executes one Δ-growing step; deterministic for a fixed label state.
  /// Steps iterate the Δ-presplit adjacency (graph/split_csr.hpp): each
  /// node's segment is reordered light-first whenever `light_threshold`
  /// changes — typically once per growth stage — and every step walks only
  /// the light segment, with no per-edge weight test.
  GrowingStepResult step(const GrowingStepParams& params);

  /// Configures the sparse/dense frontier engine (core/frontier.hpp) that
  /// maintains every policy's active set — kPush collects the next frontier
  /// with stamp dedup, kPull runs candidate-restricted sparse rounds below
  /// the dense threshold and the full sweep above it, kPartitioned
  /// enumerates per-shard active lists. Labels and all counters are
  /// bit-identical at every threshold (tests/test_frontier.cpp). Resets the
  /// frontier bookkeeping (labels and blocks survive): call before
  /// rebuild_frontier, like a Δ change.
  void set_frontier_options(const FrontierOptions& opts);
  [[nodiscard]] const FrontierOptions& frontier_options() const noexcept {
    return fopts_;
  }

  /// Selects the transport the kPartitioned supersteps run on
  /// (mr/transport.hpp): in-process threads (the default) or forked worker
  /// processes. Labels and all model-level counters are bit-identical either
  /// way (tests/test_transport.cpp); only the wire counters — and the wall
  /// clock — move. No-op for kPush/kPull and when the options are unchanged,
  /// so pooled engines (exec::Context) can be reconfigured per run.
  void set_transport_options(const mr::TransportOptions& opts);
  [[nodiscard]] const mr::TransportOptions& transport_options()
      const noexcept {
    return topts_;
  }

  /// Selects the NUMA placement the kPartitioned supersteps run under
  /// (mr/placement.hpp, DESIGN.md §13). Same contract as
  /// set_transport_options: rebuilds the transport only when the effective
  /// plan changes, labels and model counters are bit-identical either way —
  /// only binding, cross_node counters and the wall clock move.
  void set_placement_options(const mr::PlacementOptions& opts);
  [[nodiscard]] const mr::PlacementOptions& placement_options()
      const noexcept {
    return popts_placement_;
  }

  /// The transport the kPartitioned supersteps run on; nullptr for
  /// kPush/kPull. Exposed for lifecycle observability (daemon stats) and
  /// the fault-injection tests, which kill a PoolTransport worker pid and
  /// assert the launcher restarts it.
  [[nodiscard]] mr::Transport* transport() const noexcept {
    return transport_.get();
  }

  /// Aggregate outcome of a run of Δ-growing steps.
  struct RunResult {
    GrowingStepResult totals;
    std::uint64_t steps = 0;
    /// True when the run ended because a step produced no update.
    bool fixpoint = false;
    /// True when the run ended because the step cap was exhausted while
    /// updates were still flowing (the Section 4 bounded-rounds regime).
    bool hit_step_cap = false;
  };

  /// Runs steps until fixpoint (no update) or `max_steps` (0 = unbounded) or
  /// `stop` returns true (evaluated after each step on the running totals).
  /// Adds one relaxation round per executed step to `stats`.
  template <typename StopFn>
  RunResult run(const GrowingStepParams& params, mr::RoundStats& stats,
                std::uint64_t max_steps, StopFn&& stop) {
    RunResult out;
    while (max_steps == 0 || out.steps < max_steps) {
      const GrowingStepResult r = step(params);
      ++out.steps;
      stats.relaxation_rounds += 1;
      stats.messages += r.messages;
      stats.node_updates += r.updates;
      stats.cross_messages += r.cross_messages;
      stats.cross_bytes += r.cross_bytes;
      stats.cross_node_messages += r.cross_node_messages;
      stats.cross_node_bytes += r.cross_node_bytes;
      stats.wire_messages += r.wire_messages;
      stats.wire_bytes += r.wire_bytes;
      stats.sparse_rounds += r.sparse_rounds;
      stats.dense_rounds += r.dense_rounds;
      out.totals.messages += r.messages;
      out.totals.updates += r.updates;
      out.totals.newly_labeled += r.newly_labeled;
      out.totals.cross_messages += r.cross_messages;
      out.totals.cross_bytes += r.cross_bytes;
      out.totals.cross_node_messages += r.cross_node_messages;
      out.totals.cross_node_bytes += r.cross_node_bytes;
      out.totals.wire_messages += r.wire_messages;
      out.totals.wire_bytes += r.wire_bytes;
      out.totals.sparse_rounds += r.sparse_rounds;
      out.totals.dense_rounds += r.dense_rounds;
      if (r.updates == 0) {
        out.fixpoint = true;
        break;
      }
      if (stop(out.totals)) return out;  // caller's coverage target met
    }
    out.hit_step_cap = !out.fixpoint && max_steps != 0 && out.steps >= max_steps;
    return out;
  }

  [[nodiscard]] GrowingPolicy policy() const noexcept { return policy_; }
  [[nodiscard]] const Graph& graph() const noexcept { return g_; }

  /// The shard layout backing kPartitioned; nullptr for kPush/kPull.
  [[nodiscard]] const mr::Partition* partition() const noexcept {
    return partition_;
  }

 private:
  /// One pre-filtered sender a resident pool worker relaxes from: the
  /// shard-local id, the step-start label, and the center's budget — the
  /// full per-sender state the compute edge loop needs, evaluated on the
  /// coordinator so the worker never reads labels_/afrontier_/params (which
  /// its fork-time snapshot would have stale).
  struct PoolSender {
    NodeId local = 0;
    PackedLabel label = kUnassignedLabel;
    Weight budget = 0.0;
  };

  /// True when kPartitioned supersteps run on resident pool workers.
  [[nodiscard]] bool resident_pool() const noexcept {
    return bsp_ != nullptr && bsp_->resident_compute();
  }

  GrowingStepResult step_push(const GrowingStepParams& params);
  GrowingStepResult step_pull(const GrowingStepParams& params);
  GrowingStepResult step_partitioned(const GrowingStepParams& params);

  /// Fills pool_senders_ with the step's senders, per shard, in exactly the
  /// enumeration order the in-process compute would visit them — order is
  /// staging order is delivery order, so pre-filtering must not permute it.
  void build_pool_senders(const GrowingStepParams& params, bool dense);
  /// The shipped-sender edge loop a resident worker runs instead of the
  /// frame-capturing compute closures (always stages via loopback/send).
  void pool_compute_shard(const mr::Shard& sh,
                          mr::Exchange<LabelProposal>& ex,
                          std::uint64_t& messages_out) const;
  /// Input codec handed to BspEngine::superstep under a resident transport.
  [[nodiscard]] mr::StepInputCodec make_pool_codec();
  /// Worker side of the codec: installs one shard's shipped input frame.
  /// Runs in a forked worker, so it enters no OpenMP region and writes only
  /// into storage allocated before the fork.
  void decode_pool_input(mr::ShardId s, const std::byte* p, std::size_t len);

  void snapshot_push_labels();
  void reset_frontier_state();

  /// (Re)builds the split caches for `threshold` if missing or stale.
  void ensure_split(Weight threshold);
  /// Re-resolves the placement plan and remakes transport_/bsp_ under the
  /// current (topts_, popts_placement_); installs the plan's node map.
  void rebuild_transport();

  /// Budget of the cluster centered at `c` under `params`.
  [[nodiscard]] static Weight budget_of(const GrowingStepParams& params,
                                        NodeId c) noexcept {
    return params.center_budget == nullptr ? params.uniform_budget
                                           : (*params.center_budget)[c];
  }

  const Graph& g_;
  GrowingPolicy policy_;
  std::vector<PackedLabel> labels_;
  std::vector<std::uint8_t> blocked_;
  std::uint64_t steps_since_clear_ = 0;
  // push policy state: labels of afrontier_.nodes() at step start
  std::vector<PackedLabel> frontier_labels_;
  // pull + partitioned policy state
  std::vector<PackedLabel> scratch_;
  // partitioned policy state; partition_ points at either the private
  // owned_partition_ or the exec::Context's cached layout (ctx_ != nullptr)
  std::unique_ptr<mr::Partition> owned_partition_;
  const mr::Partition* partition_ = nullptr;
  mr::TransportOptions topts_;
  mr::PlacementOptions popts_placement_;
  std::unique_ptr<mr::Transport> transport_;
  std::unique_ptr<mr::BspEngine> bsp_;
  mr::Exchange<LabelProposal> exchange_;
  // frontier engine state
  FrontierOptions fopts_;
  Frontier afrontier_;  // active set: push = proposers, pull/bsp = changed
  Frontier rfrontier_;  // sparse pull rounds: receiver candidates
  std::vector<PackedLabel> pull_best_;  // aligned with rfrontier_.nodes()
  std::vector<std::uint32_t> touch_stamp_;  // partitioned: lazy scratch init
  std::uint32_t touch_round_ = 0;
  std::vector<std::vector<NodeId>> shard_active_;       // changed, per shard
  std::vector<std::vector<NodeId>> shard_active_next_;
  std::vector<std::vector<NodeId>> shard_touched_;
  // Resident-worker (PoolTransport) state. Each step ships, per shard,
  // pool_light_threshold_, the blocked delta (pool_blocked_cleared_: reset()
  // ran since the last step; pool_blocked_bits_: the nodes blocked since
  // then, one bit per node, shipped when pool_blocked_dirty_) and
  // pool_senders_; a worker's frozen decode closure writes them through
  // stable member addresses. The threshold selects the worker's presplit in
  // its snapshot of the context cache. resident_epoch_ versions what the
  // snapshot may lack: a presplit built after the workers forked
  // (pool_split_builds_ is the context's build count at the last bump), or
  // a standalone engine's rebuilt own split. Bumping it makes the transport
  // respawn the workers at the next superstep.
  std::vector<std::vector<PoolSender>> pool_senders_;
  Weight pool_light_threshold_ = kInfiniteWeight;
  std::vector<std::uint64_t> pool_blocked_bits_;  // kPartitioned: n bits
  bool pool_blocked_dirty_ = false;
  bool pool_blocked_cleared_ = false;
  std::uint64_t pool_split_builds_ = 0;
  std::uint64_t resident_epoch_ = 1;
  // Δ-presplit adjacency, cached per light_threshold (rebuilt when a stage
  // changes the threshold, not per step). Context-backed engines instead
  // look the split up in the context's keyed cache at every threshold change
  // — a short MRU scan — so repeated thresholds presplit once per context.
  exec::Context* ctx_ = nullptr;
  mr::PartitionOptions popts_;
  bool split_ready_ = false;
  Weight split_threshold_ = 0.0;
  SplitCsr split_own_;                      // kPush / kPull, standalone
  const SplitCsr* split_ = nullptr;         // active view
  std::vector<CsrSplit> shard_splits_own_;  // kPartitioned, standalone
  const std::vector<CsrSplit>* shard_splits_ = nullptr;  // active view
};

}  // namespace gdiam::core
