#include "core/growing.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <span>
#include <stdexcept>

#include "exec/context.hpp"
#include "mr/placement.hpp"
#include "util/topology.hpp"

namespace gdiam::core {

GrowingEngine::GrowingEngine(const Graph& g, GrowingPolicy policy,
                             const mr::PartitionOptions& partition,
                             exec::Context* ctx)
    : g_(g), policy_(policy), ctx_(ctx), popts_(partition) {
  if (policy_ == GrowingPolicy::kPartitioned) {
    if (ctx_ != nullptr) {
      partition_ = &ctx_->partition_for(g_, popts_);
    } else {
      owned_partition_ = std::make_unique<mr::Partition>(g_, popts_);
      partition_ = owned_partition_.get();
    }
    mr::PlacementPlan plan = mr::resolve_placement(
        popts_placement_, partition_->num_partitions());
    transport_ = mr::Launcher::make_transport(
        topts_, partition_->num_partitions(), plan);
    bsp_ = std::make_unique<mr::BspEngine>(*partition_, transport_.get());
    exchange_.resize(partition_->num_partitions());
    exchange_.set_node_map(plan.node_of_shard());
  }
  reset();
}

void GrowingEngine::set_transport_options(const mr::TransportOptions& opts) {
  if (policy_ != GrowingPolicy::kPartitioned || opts == topts_) {
    topts_ = opts;
    return;
  }
  topts_ = opts;
  rebuild_transport();
}

void GrowingEngine::set_placement_options(const mr::PlacementOptions& opts) {
  if (policy_ != GrowingPolicy::kPartitioned || opts == popts_placement_) {
    popts_placement_ = opts;
    return;
  }
  // The plan can also change under a fixed strategy when GDIAM_TOPOLOGY
  // changed between runs on a pooled engine; rebuild_transport re-resolves
  // it, so switching options is always sufficient to re-place.
  popts_placement_ = opts;
  rebuild_transport();
}

void GrowingEngine::rebuild_transport() {
  mr::PlacementPlan plan =
      mr::resolve_placement(popts_placement_, partition_->num_partitions());
  transport_ = mr::Launcher::make_transport(
      topts_, partition_->num_partitions(), plan);
  bsp_ = std::make_unique<mr::BspEngine>(*partition_, transport_.get());
  exchange_.set_node_map(plan.node_of_shard());
}

void GrowingEngine::reset() {
  const NodeId n = g_.num_nodes();
  const bool double_buffered = policy_ != GrowingPolicy::kPush;
  labels_.assign(n, kUnassignedLabel);
  blocked_.assign(n, 0);
  steps_since_clear_ = 0;
  frontier_labels_.clear();
  scratch_.assign(double_buffered ? n : 0, kUnassignedLabel);
  // Resident pool workers clear their blocked copy on the next step.
  pool_blocked_bits_.assign(
      policy_ == GrowingPolicy::kPartitioned ? (n + 63) / 64 : 0, 0);
  pool_blocked_dirty_ = false;
  pool_blocked_cleared_ = true;
  reset_frontier_state();
}

/// (Re)initializes every piece of frontier bookkeeping from fopts_ — the
/// single place reset() and set_frontier_options() share, so new frontier
/// state cannot be re-initialized on one path and missed on the other.
void GrowingEngine::reset_frontier_state() {
  const NodeId n = g_.num_nodes();
  afrontier_.reset(n, fopts_);
  FrontierOptions sparse_only = fopts_;
  sparse_only.dense_fraction = 1.0;  // candidate sets stay in the sparse rep
  rfrontier_.reset(n, sparse_only);
  touch_round_ = 0;
  if (policy_ == GrowingPolicy::kPartitioned) {
    touch_stamp_.assign(n, 0);
    const std::uint32_t k = partition_->num_partitions();
    shard_active_.assign(k, {});
    shard_active_next_.assign(k, {});
    shard_touched_.assign(k, {});
    // The outer vector must hold its address from before the pool workers
    // fork: their frozen decode closures index into it every superstep.
    if (pool_senders_.size() != k) pool_senders_.assign(k, {});
  }
}

void GrowingEngine::set_frontier_options(const FrontierOptions& opts) {
  fopts_ = opts;
  reset_frontier_state();
}

void GrowingEngine::clear_labels() {
  const NodeId n = g_.num_nodes();
#pragma omp parallel for schedule(static, 4096)
  for (NodeId u = 0; u < n; ++u) labels_[u] = kUnassignedLabel;
  steps_since_clear_ = 0;
  frontier_labels_.clear();
  afrontier_.clear();
  for (auto& a : shard_active_) a.clear();
}

void GrowingEngine::set_source(NodeId u, NodeId center, Weight dist) {
  labels_[u] = pack_label(static_cast<float>(dist), center);
}

void GrowingEngine::block(std::span<const NodeId> wave) noexcept {
  const bool resident = resident_pool();
#pragma omp parallel for schedule(static, 4096)
  for (std::size_t i = 0; i < wave.size(); ++i) {
    const NodeId v = wave[i];
    blocked_[v] = 1;
    if (resident) {
      std::atomic_ref<std::uint64_t>(pool_blocked_bits_[v >> 6])
          .fetch_or(std::uint64_t{1} << (v & 63), std::memory_order_relaxed);
    }
  }
  if (resident && !wave.empty()) pool_blocked_dirty_ = true;
}

// Re-derives the active set from the labels into the Frontier (and the
// per-shard lists for kPartitioned). kPush enumerates only nodes that can
// still propose under `params`; the pull/partitioned senders are every
// labeled node (one beyond its budget proposes nothing). Each node is
// inserted by exactly one thread, so insert_serial is safe; the frontier's
// order is immaterial to every step. The per-shard lists are not: their
// order is staging order, hence delivery order, so each shard's list is
// filled by one thread in ascending id order (owned local ids ascend with
// global ids, mr/partition.hpp).
void GrowingEngine::rebuild_frontier(const GrowingStepParams& params) {
  const NodeId n = g_.num_nodes();
  afrontier_.clear();
  if (policy_ == GrowingPolicy::kPartitioned) {
    const auto k = static_cast<std::int64_t>(partition_->num_partitions());
#pragma omp parallel for schedule(dynamic, 1)
    for (std::int64_t s = 0; s < k; ++s) {
      const mr::Shard& sh = partition_->shard(static_cast<mr::ShardId>(s));
      auto& active = shard_active_[static_cast<std::size_t>(s)];
      active.clear();
      for (NodeId l = 0; l < sh.num_owned; ++l) {
        const NodeId u = sh.global_of_local[l];
        if (!label_assigned(labels_[u])) continue;
        afrontier_.insert_serial(u);
        active.push_back(u);
      }
    }
  } else {
    const bool push = policy_ == GrowingPolicy::kPush;
#pragma omp parallel for schedule(static, 4096)
    for (NodeId u = 0; u < n; ++u) {
      const PackedLabel lab = labels_[u];
      if (!label_assigned(lab)) continue;
      if (push && !(label_dist(lab) < budget_of(params, label_center(lab)))) {
        continue;
      }
      afrontier_.insert_serial(u);
    }
  }
  afrontier_.advance();
  if (policy_ == GrowingPolicy::kPush) snapshot_push_labels();
}

/// Aligns frontier_labels_ with the frontier's node list — the step-start
/// label snapshot the push relaxation reads.
void GrowingEngine::snapshot_push_labels() {
  const auto& nodes = afrontier_.nodes();
  frontier_labels_.resize(nodes.size());
#pragma omp parallel for schedule(static, 2048)
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    frontier_labels_[i] = std::atomic_ref<PackedLabel>(labels_[nodes[i]])
                              .load(std::memory_order_relaxed);
  }
}

void GrowingEngine::ensure_split(Weight threshold) {
  // Context-backed engines re-resolve on every step: other kernels sharing
  // the context may have LRU-evicted the borrowed entry since the last step
  // (even at an unchanged threshold), so a cached pointer cannot be trusted
  // across calls. The cache is MRU-ordered, making the steady-state lookup
  // an O(1) front-entry compare; an evicted entry is simply rebuilt.
  if (ctx_ == nullptr && split_ready_ && split_threshold_ == threshold) {
    return;
  }
  if (policy_ == GrowingPolicy::kPartitioned) {
    if (ctx_ != nullptr) {
      // Pool workers look the split up by threshold in their snapshot of
      // the context cache, taken after the last epoch bump. While the
      // cache has built (and so evicted) nothing since, every entry is in
      // that snapshot; a build — this engine's first use of a Δ, or any
      // other caller's — makes them re-snapshot.
      shard_splits_ = &ctx_->shard_splits_for(g_, popts_, threshold);
      if (ctx_->shard_split_builds() != pool_split_builds_) {
        ++resident_epoch_;
        pool_split_builds_ = ctx_->shard_split_builds();
      }
    } else {
      // First-touch each shard's split on its placement node, mirroring the
      // context-backed path (exec::Context::shard_splits_for). No-op binds
      // under an inactive plan.
      const mr::PlacementPlan plan = mr::resolve_placement(
          popts_placement_, partition_->num_partitions());
      shard_splits_own_.clear();
      shard_splits_own_.reserve(partition_->num_partitions());
      for (mr::ShardId s = 0; s < partition_->num_partitions(); ++s) {
        const mr::Shard& sh = partition_->shards()[s];
        util::topo::ScopedAffinity bind(plan.cpus_of_node(plan.node_of(s)));
        shard_splits_own_.push_back(
            presplit_csr(sh.offsets, sh.targets, sh.weights, threshold));
      }
      shard_splits_ = &shard_splits_own_;
      // The workers' snapshot of the own split holds the old threshold's.
      ++resident_epoch_;
    }
  } else {
    if (ctx_ != nullptr) {
      split_ = &ctx_->split_for(g_, threshold);
    } else {
      split_own_ = SplitCsr(g_, threshold);
      split_ = &split_own_;
    }
  }
  split_threshold_ = threshold;
  split_ready_ = true;
}

GrowingStepResult GrowingEngine::step(const GrowingStepParams& params) {
  ensure_split(params.light_threshold);
  ++steps_since_clear_;
  switch (policy_) {
    case GrowingPolicy::kPush: return step_push(params);
    case GrowingPolicy::kPartitioned: return step_partitioned(params);
    case GrowingPolicy::kPull:
    default: return step_pull(params);
  }
}

GrowingStepResult GrowingEngine::step_push(const GrowingStepParams& params) {
  GrowingStepResult out;
  const std::vector<NodeId>& active = afrontier_.nodes();
  std::uint64_t messages = 0, updates = 0, newly = 0;

#pragma omp parallel for schedule(dynamic, 64) \
    reduction(+ : messages, updates, newly)
  for (std::size_t f = 0; f < active.size(); ++f) {
    const NodeId u = active[f];
    // Labels are read from the step-start snapshot so the step is exactly
    // one synchronous round of message exchange (MR semantics).
    const PackedLabel lab = frontier_labels_[f];
    const float b = label_dist(lab);
    const NodeId c = label_center(lab);
    const Weight budget = budget_of(params, c);
    if (!(static_cast<Weight>(b) < budget)) continue;

    // The light segment holds exactly the w ≤ light_threshold arcs.
    const auto nbr = split_->light_neighbors(u);
    const auto wts = split_->light_weights(u);
    for (std::size_t i = 0; i < nbr.size(); ++i) {
      const Weight w = wts[i];
      const Weight nb = static_cast<Weight>(b) + w;
      if (nb > budget) continue;
      const NodeId v = nbr[i];
      if (blocked_[v]) continue;  // contracted-cluster members never accept
      ++messages;

      const PackedLabel cand = pack_label(static_cast<float>(nb), c);
      std::atomic_ref<PackedLabel> slot(labels_[v]);
      PackedLabel cur = slot.load(std::memory_order_relaxed);
      while (cand < cur) {
        if (slot.compare_exchange_weak(cur, cand,
                                       std::memory_order_relaxed)) {
          // Both counts are per node, not per winning CAS, so they do not
          // depend on thread interleaving: the frontier stamp admits one
          // first insert per step, and exactly one CAS can leave the
          // unassigned label (none can restore it).
          if (afrontier_.insert(v)) ++updates;
          if (cur == kUnassignedLabel) ++newly;
          break;
        }
      }
    }
  }

  out.messages = messages;
  out.updates = updates;
  out.newly_labeled = newly;
  // The step is classified by the representation that collected its next
  // frontier (the round convention of DESIGN.md §7).
  if (afrontier_.collect_mode() == FrontierMode::kDense) {
    out.dense_rounds = 1;
  } else {
    out.sparse_rounds = 1;
  }
  afrontier_.advance();
  snapshot_push_labels();
  return out;
}

// Pull. Dense rounds run the full-length Jacobi sweep (sender membership
// answered by frontier stamps — contains() stays stable while the round's
// dense bitmap collects). Sparse rounds restrict the sweep to *receiver
// candidates*: the
// light neighbors of the senders. Every proposal the dense sweep would count
// originates at a sender with an assigned, within-budget label and travels a
// light edge, so the candidate set covers every node that could receive a
// message — restricting the scan changes no counter and no label, only the
// number of segments touched (O(frontier volume) instead of O(n + m)).
GrowingStepResult GrowingEngine::step_pull(const GrowingStepParams& params) {
  GrowingStepResult out;
  const NodeId n = g_.num_nodes();
  std::uint64_t messages = 0, updates = 0, newly = 0;
  const bool dense = afrontier_.collect_mode() == FrontierMode::kDense;

  if (dense) {
    out.dense_rounds = 1;
#pragma omp parallel for schedule(dynamic, 1024) \
    reduction(+ : messages, updates, newly)
    for (NodeId v = 0; v < n; ++v) {
      if (blocked_[v]) {
        scratch_[v] = labels_[v];
        continue;
      }
      PackedLabel best = labels_[v];
      const auto nbr = split_->light_neighbors(v);
      const auto wts = split_->light_weights(v);
      for (std::size_t i = 0; i < nbr.size(); ++i) {
        const NodeId u = nbr[i];
        if (!afrontier_.contains(u)) continue;  // unchanged since last step
        const Weight w = wts[i];
        const PackedLabel lab = labels_[u];
        if (!label_assigned(lab)) continue;
        const float b = label_dist(lab);
        const NodeId c = label_center(lab);
        const Weight budget = budget_of(params, c);
        if (!(static_cast<Weight>(b) < budget)) continue;
        const Weight nb = static_cast<Weight>(b) + w;
        if (nb > budget) continue;
        ++messages;
        best = std::min(best, pack_label(static_cast<float>(nb), c));
      }
      scratch_[v] = best;
      if (best != labels_[v]) {
        ++updates;
        if (labels_[v] == kUnassignedLabel) ++newly;
        afrontier_.insert(v);
      }
    }
    labels_.swap(scratch_);
  } else {
    out.sparse_rounds = 1;
    // Candidate marking: light neighbors of every sender that could propose.
    const auto& senders = afrontier_.nodes();
#pragma omp parallel for schedule(dynamic, 64)
    for (std::size_t s = 0; s < senders.size(); ++s) {
      const NodeId u = senders[s];
      const PackedLabel lab = labels_[u];
      if (!label_assigned(lab)) continue;
      if (!(static_cast<Weight>(label_dist(lab)) <
            budget_of(params, label_center(lab)))) {
        continue;
      }
      for (const NodeId v : split_->light_neighbors(u)) {
        if (!blocked_[v]) rfrontier_.insert(v);
      }
    }
    rfrontier_.advance();
    const auto& recv = rfrontier_.nodes();
    pull_best_.resize(recv.size());

    // Phase A — pure reads of the step-start labels (Jacobi semantics): the
    // exact inner loop of the dense sweep, per candidate.
#pragma omp parallel for schedule(dynamic, 256) reduction(+ : messages)
    for (std::size_t r = 0; r < recv.size(); ++r) {
      const NodeId v = recv[r];
      PackedLabel best = labels_[v];
      const auto nbr = split_->light_neighbors(v);
      const auto wts = split_->light_weights(v);
      for (std::size_t i = 0; i < nbr.size(); ++i) {
        const NodeId u = nbr[i];
        if (!afrontier_.contains(u)) continue;
        const Weight w = wts[i];
        const PackedLabel lab = labels_[u];
        if (!label_assigned(lab)) continue;
        const float b = label_dist(lab);
        const NodeId c = label_center(lab);
        const Weight budget = budget_of(params, c);
        if (!(static_cast<Weight>(b) < budget)) continue;
        const Weight nb = static_cast<Weight>(b) + w;
        if (nb > budget) continue;
        ++messages;
        best = std::min(best, pack_label(static_cast<float>(nb), c));
      }
      pull_best_[r] = best;
    }

    // Phase B — commit. Candidates are deduplicated, so each v has exactly
    // one writer; labels of non-candidates cannot change.
#pragma omp parallel for schedule(static, 2048) reduction(+ : updates, newly)
    for (std::size_t r = 0; r < recv.size(); ++r) {
      const NodeId v = recv[r];
      const PackedLabel best = pull_best_[r];
      const PackedLabel old = labels_[v];
      if (best != old) {
        labels_[v] = best;
        ++updates;
        if (old == kUnassignedLabel) ++newly;
        afrontier_.insert(v);
      }
    }
  }

  afrontier_.advance();
  out.messages = messages;
  out.updates = updates;
  out.newly_labeled = newly;
  return out;
}

// Resident-worker support (PoolTransport, mr/transport.hpp §DESIGN.md §10).
// A pool worker forks once per epoch and keeps computing with closures and
// member state frozen at fork time, so each step's senders are evaluated on
// the coordinator — where labels_/afrontier_/params are current — and
// shipped as (local id, label, budget) triples. The enumeration order
// reproduces the in-process compute exactly (owned ids ascending on dense
// rounds, shard_active_ order on sparse rounds), because staging order is
// delivery order is the determinism contract.
void GrowingEngine::build_pool_senders(const GrowingStepParams& params,
                                       bool dense) {
  pool_light_threshold_ = params.light_threshold;
  const auto k = static_cast<std::int64_t>(partition_->num_partitions());
#pragma omp parallel for schedule(dynamic, 1)
  for (std::int64_t s = 0; s < k; ++s) {
    const mr::Shard& sh = partition_->shard(static_cast<mr::ShardId>(s));
    auto& senders = pool_senders_[static_cast<std::size_t>(s)];
    senders.clear();
    auto try_push = [&](NodeId u, NodeId l) {
      const PackedLabel lab = labels_[u];
      if (!label_assigned(lab)) return;
      const Weight budget = budget_of(params, label_center(lab));
      if (!(static_cast<Weight>(label_dist(lab)) < budget)) return;
      senders.push_back(PoolSender{l, lab, budget});
    };
    if (dense) {
      for (NodeId l = 0; l < sh.num_owned; ++l) {
        const NodeId u = sh.global_of_local[l];
        if (afrontier_.contains(u)) try_push(u, l);
      }
    } else {
      for (const NodeId u : shard_active_[static_cast<std::size_t>(s)]) {
        try_push(u, partition_->local_id(u));
      }
    }
  }
}

// The shipped-sender edge loop: byte-for-byte the same relaxation arithmetic
// as the in-process computes (float label distance widened to Weight, the
// same budget/blocked tests, the same loopback/send staging), minus every
// read of per-step coordinator state — that all arrived via the codec.
void GrowingEngine::pool_compute_shard(const mr::Shard& sh,
                                       mr::Exchange<LabelProposal>& ex,
                                       std::uint64_t& messages_out) const {
  std::uint64_t messages = 0;
  const CsrSplit& ss = (*shard_splits_)[sh.id];
  for (const PoolSender& e : pool_senders_[sh.id]) {
    const float b = label_dist(e.label);
    const NodeId c = label_center(e.label);
    for (EdgeIndex i = sh.offsets[e.local]; i < ss.split[e.local]; ++i) {
      const Weight w = ss.weights[i];
      const Weight nb = static_cast<Weight>(b) + w;
      if (nb > e.budget) continue;
      const NodeId tl = ss.targets[i];
      const NodeId v = sh.global_of_local[tl];
      if (blocked_[v]) continue;
      ++messages;
      const PackedLabel cand = pack_label(static_cast<float>(nb), c);
      if (!sh.is_ghost(tl)) {
        ex.loopback(sh.id, LabelProposal{tl, cand});
      } else {
        ex.send(sh.id, sh.ghost_owner[tl - sh.num_owned],
                LabelProposal{partition_->local_id(v), cand});
      }
    }
  }
  messages_out = messages;
}

namespace {

// Blocked-delta flags of the pool input frame (make_pool_codec).
constexpr std::uint64_t kBlockedCleared = 1;
constexpr std::uint64_t kBlockedDelta = 2;

void append_bytes(std::vector<std::byte>& buf, const void* p, std::size_t n) {
  const auto* b = static_cast<const std::byte*>(p);
  buf.insert(buf.end(), b, b + n);
}

}  // namespace

mr::StepInputCodec GrowingEngine::make_pool_codec() {
  mr::StepInputCodec codec;
  // Input frame, per shard:
  //   [Weight light_threshold][u64 flags: kBlockedCleared | kBlockedDelta]
  //   [u64 × ceil(n/64): nodes blocked since the last step, if kBlockedDelta]
  //   [PoolSender...]
  // The delta is a bitset — n/8 bytes, smaller than the id list for any
  // wave above n/32 nodes, and contraction waves cover half the uncovered
  // nodes. It is the same in every shard's frame: a worker applies it to
  // its one blocked_ copy once per owned shard, which is idempotent — and
  // so is a crash replay into a fresh snapshot that already holds it.
  // Both closures capture `this`: the engine outlives the run (context-
  // pooled), so the worker's frozen decode writes through a stable address
  // into members whose outer storage predates the fork.
  codec.encode = [this](mr::ShardId s, std::vector<std::byte>& buf) {
    const std::uint64_t flags = (pool_blocked_cleared_ ? kBlockedCleared : 0) |
                                (pool_blocked_dirty_ ? kBlockedDelta : 0);
    append_bytes(buf, &pool_light_threshold_, sizeof pool_light_threshold_);
    append_bytes(buf, &flags, sizeof flags);
    if (pool_blocked_dirty_) {
      append_bytes(buf, pool_blocked_bits_.data(),
                   pool_blocked_bits_.size() * sizeof(std::uint64_t));
    }
    const auto& senders = pool_senders_[s];
    append_bytes(buf, senders.data(), senders.size() * sizeof(PoolSender));
  };
  codec.decode = [this](mr::ShardId s, const std::byte* p, std::size_t len) {
    decode_pool_input(s, p, len);
  };
  codec.epoch = resident_epoch_;
  return codec;
}

void GrowingEngine::decode_pool_input(mr::ShardId s, const std::byte* p,
                                      std::size_t len) {
  auto take = [&](void* dst, std::size_t n) {
    if (len < n) throw std::runtime_error("truncated pool input frame");
    std::memcpy(dst, p, n);
    p += n;
    len -= n;
  };
  std::uint64_t flags = 0;
  take(&pool_light_threshold_, sizeof pool_light_threshold_);
  take(&flags, sizeof flags);
  if ((flags & kBlockedCleared) != 0) {
    std::fill(blocked_.begin(), blocked_.end(), 0);
  }
  if ((flags & kBlockedDelta) != 0) {
    const std::size_t n = blocked_.size();
    for (std::size_t w = 0; w < (n + 63) / 64; ++w) {
      std::uint64_t bits = 0;
      take(&bits, sizeof bits);
      for (; bits != 0; bits &= bits - 1) {
        const std::size_t v = w * 64 + std::countr_zero(bits);
        if (v >= n) throw std::runtime_error("blocked bit past the node range");
        blocked_[v] = 1;
      }
    }
  }
  // A context-backed engine's split entry was built before this worker
  // forked, or the coordinator bumped the epoch and respawned it (see
  // ensure_split); a standalone engine's own split is the snapshot's.
  if (ctx_ != nullptr) {
    shard_splits_ = ctx_->find_shard_splits(*partition_, pool_light_threshold_);
    if (shard_splits_ == nullptr) {
      throw std::logic_error("pool worker snapshot lacks the shipped presplit");
    }
  }
  auto& senders = pool_senders_[s];
  senders.resize(len / sizeof(PoolSender));
  if (len != 0) std::memcpy(senders.data(), p, len);
}

// One Δ-growing step as one BSP superstep. Semantically this is the pull
// step re-expressed sender-side: every proposal is computed from the
// step-start labels and the step outcome is min(step-start label,
// proposals), so labels and counters are bit-identical to kPush/kPull. The
// difference is *where* the work runs: each shard relaxes only the arcs it
// owns, folds proposals for the nodes it owns, and sends proposals for ghost
// targets through the exchange — exactly the traffic a distributed
// deployment would shuffle between reducers.
//
// No pass touches the full vertex range: scratch slots initialize lazily,
// on a node's first proposal of the step (tracked by a touch stamp), and
// only touched slots are committed. Senders enumerate per-shard active
// lists on sparse rounds and fall back to the owned-range scan with a
// frontier membership test on dense ones. Labels commit in place.
GrowingStepResult GrowingEngine::step_partitioned(
    const GrowingStepParams& params) {
  GrowingStepResult out;
  const std::uint32_t k = partition_->num_partitions();
  const bool dense = afrontier_.collect_mode() == FrontierMode::kDense;
  (dense ? out.dense_rounds : out.sparse_rounds) = 1;
  // Remote transport: compute's lazy scratch folds become loopback records
  // replayed by apply, which already does the identical touch-stamp fold for
  // routed proposals (DESIGN.md §9).
  const bool remote = bsp_->remote_compute();
  // Resident transport: the active set (dense frontier test or sparse
  // shard_active_ lists) is enumerated here, in this mode's exact order, and
  // shipped — the frozen workers replay edges without reading either.
  const bool resident = resident_pool();
  mr::StepInputCodec pool_codec;
  if (resident) {
    build_pool_senders(params, dense);
    pool_codec = make_pool_codec();
  }

  if (++touch_round_ == 0) {  // stamp generation wraparound: rebase
    std::fill(touch_stamp_.begin(), touch_stamp_.end(), 0);
    touch_round_ = 1;
  }
  // Cleared before — not inside — compute: a remote compute's clear would
  // happen in the worker and leave the coordinator's lists stale for apply.
  for (auto& touched : shard_touched_) touched.clear();

  std::vector<std::uint64_t> shard_messages(k, 0);
  std::vector<std::uint64_t> shard_updates(k, 0);
  std::vector<std::uint64_t> shard_newly(k, 0);

  auto compute = [&](const mr::Shard& sh, mr::Exchange<LabelProposal>& ex) {
    if (resident) {  // shipped senders; frame-locals below stay untouched
      pool_compute_shard(sh, ex, shard_messages[sh.id]);
      return;
    }
    std::uint64_t messages = 0;
    // The light half of each owned node's presplit segment: no per-edge
    // weight filter.
    const CsrSplit& ss = (*shard_splits_)[sh.id];
    auto& touched = shard_touched_[sh.id];

    // Owned-target proposal with lazy scratch initialization.
    auto propose = [&](NodeId v, PackedLabel cand) {
      if (touch_stamp_[v] != touch_round_) {
        touch_stamp_[v] = touch_round_;
        scratch_[v] = labels_[v];
        touched.push_back(v);
      }
      scratch_[v] = std::min(scratch_[v], cand);
    };
    auto relax_from = [&](NodeId u, NodeId l) {
      const PackedLabel lab = labels_[u];
      if (!label_assigned(lab)) return;
      const float b = label_dist(lab);
      const NodeId c = label_center(lab);
      const Weight budget = budget_of(params, c);
      if (!(static_cast<Weight>(b) < budget)) return;
      for (EdgeIndex i = sh.offsets[l]; i < ss.split[l]; ++i) {
        const Weight w = ss.weights[i];
        const Weight nb = static_cast<Weight>(b) + w;
        if (nb > budget) continue;
        const NodeId tl = ss.targets[i];
        const NodeId v = sh.global_of_local[tl];
        if (blocked_[v]) continue;
        ++messages;
        const PackedLabel cand = pack_label(static_cast<float>(nb), c);
        if (!sh.is_ghost(tl)) {
          if (remote) {
            ex.loopback(sh.id, LabelProposal{tl, cand});
          } else {
            propose(v, cand);
          }
        } else {
          ex.send(sh.id, sh.ghost_owner[tl - sh.num_owned],
                  LabelProposal{partition_->local_id(v), cand});
        }
      }
    };

    if (dense) {
      for (NodeId l = 0; l < sh.num_owned; ++l) {
        const NodeId u = sh.global_of_local[l];
        if (!afrontier_.contains(u)) continue;
        relax_from(u, l);
      }
    } else {
      for (const NodeId u : shard_active_[sh.id]) {
        relax_from(u, partition_->local_id(u));
      }
    }
    shard_messages[sh.id] = messages;
  };

  auto apply = [&](const mr::Shard& sh,
                   std::span<const LabelProposal> inbox) {
    auto& touched = shard_touched_[sh.id];
    for (const LabelProposal& m : inbox) {
      const NodeId v = sh.global_of_local[m.target];
      if (touch_stamp_[v] != touch_round_) {
        touch_stamp_[v] = touch_round_;
        scratch_[v] = labels_[v];
        touched.push_back(v);
      }
      scratch_[v] = std::min(scratch_[v], m.label);
    }
    // Commit: only touched slots can differ from the step-start labels.
    auto& next = shard_active_next_[sh.id];
    next.clear();
    std::uint64_t updates = 0, newly = 0;
    for (const NodeId v : touched) {
      if (scratch_[v] != labels_[v]) {
        ++updates;
        if (labels_[v] == kUnassignedLabel) ++newly;
        labels_[v] = scratch_[v];
        afrontier_.insert_serial(v);
        next.push_back(v);
      }
    }
    shard_updates[sh.id] = updates;
    shard_newly[sh.id] = newly;
  };

  const mr::ExchangeCounters traffic = bsp_->superstep(
      exchange_, compute, apply, nullptr,
      std::span<std::uint64_t>(shard_messages.data(), shard_messages.size()),
      resident ? &pool_codec : nullptr);

  // The workers hold the blocked delta now (or a snapshot that has it).
  if (pool_blocked_dirty_) {
    std::fill(pool_blocked_bits_.begin(), pool_blocked_bits_.end(), 0);
    pool_blocked_dirty_ = false;
  }
  pool_blocked_cleared_ = false;
  shard_active_.swap(shard_active_next_);
  afrontier_.advance();
  for (std::uint32_t s = 0; s < k; ++s) {
    out.messages += shard_messages[s];
    out.updates += shard_updates[s];
    out.newly_labeled += shard_newly[s];
  }
  out.cross_messages = traffic.cross_messages;
  out.cross_bytes = traffic.cross_bytes;
  out.cross_node_messages = traffic.cross_node_messages;
  out.cross_node_bytes = traffic.cross_node_bytes;
  out.wire_messages = traffic.wire_messages;
  out.wire_bytes = traffic.wire_bytes;
  return out;
}

}  // namespace gdiam::core
