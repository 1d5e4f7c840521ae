#pragma once
// Shared PartialGrowth stage driver for CLUSTER and CLUSTER2 (DESIGN.md §8).
//
// Both decompositions are the same outer machine: repeat { select a batch of
// new centers (one auxiliary MR round) → grow all clusters with Δ-growing
// steps → logically contract what was reached (one auxiliary MR round) }
// until a stop condition, then turn leftovers into singleton clusters and
// derive the centers list and the radius. Before this driver the machine was
// written out twice — cluster.cpp and cluster2.cpp each carried their own
// engine setup, coverage bookkeeping, contraction plumbing and finalization
// tail, and the two copies had already drifted in where they charged
// auxiliary rounds. PartialGrowthDriver is the single copy; the two
// algorithms supply only their growth rule (center selection, the growth
// loop, and the distance each covered node is assigned).
//
// The driver is also where the unified runtime plugs in: the GrowingEngine
// comes from the exec::Context's pool, so consecutive CLUSTER/CLUSTER2 runs
// on one context reuse the engine's n-sized arrays, the cached shard layout
// and every Δ-presplit the doubling search has already paid for.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include <omp.h>

#include "core/cluster.hpp"
#include "core/growing.hpp"
#include "exec/context.hpp"
#include "graph/graph.hpp"

namespace gdiam::core::detail {

class PartialGrowthDriver {
 public:
  /// Binds the driver to one decomposition run: acquires the pooled engine
  /// for (g, opts.policy, opts.partition) from `ctx`, configures it from the
  /// run's execution knobs, resets it to the pristine state, and initializes
  /// `out`'s per-node assignment to "uncovered".
  PartialGrowthDriver(const Graph& g, const ClusterOptions& opts,
                      exec::Context& ctx, Clustering& out)
      : g_(g),
        out_(out),
        engine_(ctx.growing_engine(g, opts.policy, opts.partition)),
        uncovered_(g.num_nodes()) {
    engine_.set_frontier_options(opts.frontier);
    engine_.set_transport_options(opts.transport);
    engine_.set_placement_options(opts.placement);
    engine_.reset();
    out_.center_of.assign(g.num_nodes(), kInvalidNode);
    out_.dist_to_center.assign(g.num_nodes(), kInfiniteWeight);
  }

  [[nodiscard]] GrowingEngine& engine() noexcept { return engine_; }
  [[nodiscard]] NodeId uncovered() const noexcept { return uncovered_; }
  /// Covered nodes are exactly the engine's blocked set: contraction blocks
  /// every node it covers, and nothing else blocks.
  [[nodiscard]] bool is_covered(NodeId u) const noexcept {
    return engine_.is_blocked(u);
  }

  /// The stage loop both algorithms share, with the MR accounting charged in
  /// one place: one auxiliary round for center selection (sample +
  /// broadcast), one for assignment + logical contraction. The rule supplies
  ///   more_stages()    — loop condition (also advances CLUSTER2's iteration
  ///                      counter);
  ///   select_centers() — seed this stage's sources into the engine;
  ///   grow()           — the PartialGrowth call(s): rebuild_frontier +
  ///                      engine.run, including CLUSTER's Δ-doubling search
  ///                      (any auxiliary rounds it charges are its own);
  ///   contract()       — cover everything the stage reached (via
  ///                      contract_stage()).
  template <typename Rule>
  void run_stages(Rule&& rule) {
    while (rule.more_stages()) {
      out_.stages++;
      out_.stats.auxiliary_rounds++;  // center selection round
      rule.select_centers();
      rule.grow();
      out_.stats.auxiliary_rounds++;  // assignment + contraction round
      rule.contract();
    }
  }

  /// Logical contraction of one stage (DESIGN.md §3): every uncovered node
  /// holding a stage label joins its label center's cluster and from now on
  /// proposes from its label but never accepts a new one — the effect of
  /// Procedure Contract's re-attached frontier edges. It is one reduce keyed
  /// by cluster, run as such:
  ///   1. a parallel counting sort groups the wave by label center;
  ///   2. each cluster walks its relaxation forest on its own thread,
  ///      members by increasing (label, id): a member's distance is the best
  ///      dist(u) + w over neighbors u already finalized in the same cluster
  ///      (covered in an earlier stage, or earlier in this walk). Processing
  ///      by increasing label finalizes a node's true parent — the neighbor
  ///      that set d_v = d_u + w — before it, so the result is the exact
  ///      weight of an actual center-to-v path in double precision. When the
  ///      parent's label shifted afterwards (a capped or interrupted growth,
  ///      a later win by another center, or a float tie), the member falls
  ///      back to label_chain_bound over the cluster's offset;
  ///   3. the wave is marked covered and blocked on all threads.
  /// A walk reads only its own cluster's in-flight state: u counts as
  /// finalized in cluster c iff its stage label's center is c and its
  /// distance is set. Outputs are schedule-independent.
  ///
  /// `boundary_offset` selects what a label measures. CLUSTER's labels
  /// start at the cluster's boundary (covered members re-enter as
  /// zero-distance sources), so it passes the per-cluster bound on the
  /// center-to-boundary distance, which this wave raises to the wave's
  /// farthest member. CLUSTER2's labels measure from the center itself: it
  /// passes nullptr (offset 0).
  void contract_stage(std::vector<Weight>* boundary_offset) {
    const NodeId n = g_.num_nodes();
    const std::vector<PackedLabel>& labels = engine_.labels();
    const std::uint64_t steps = engine_.steps_since_clear();

    // 1. Group the wave by center: count, prefix, scatter. bucket_[c] ends
    // up as the start of c's members and bucket_[c + 1] as their end.
    bucket_.assign(static_cast<std::size_t>(n) + 1, 0);
    members_.resize(n);
    keys_.resize(n);
#pragma omp parallel for schedule(static, 4096)
    for (NodeId u = 0; u < n; ++u) {
      if (in_wave(labels, u)) {
        std::atomic_ref<NodeId>(bucket_[label_center(labels[u])])
            .fetch_add(1, std::memory_order_relaxed);
      }
    }
    inclusive_scan(bucket_);  // bucket_[c] = end of c's members
    const NodeId wave = bucket_[n];
#pragma omp parallel for schedule(static, 4096)
    for (NodeId u = 0; u < n; ++u) {
      if (in_wave(labels, u)) {
        const NodeId at =
            std::atomic_ref<NodeId>(bucket_[label_center(labels[u])])
                .fetch_sub(1, std::memory_order_relaxed) -
            1;
        members_[at] = u;
      }
    }

    // 2. One relaxation-forest walk per cluster. The scatter order within a
    // bucket depends on the schedule; sorting by (label, id) removes it.
    // Within a cluster the label's low half is the common center, so the
    // sort key is the label's distance half over the member id.
#pragma omp parallel for schedule(dynamic, 64)
    for (NodeId c = 0; c < n; ++c) {
      const NodeId begin = bucket_[c];
      const NodeId end = bucket_[c + 1];
      if (begin == end) continue;
      for (NodeId i = begin; i < end; ++i) {
        const NodeId v = members_[i];
        keys_[i] = (labels[v] & ~0xffffffffULL) | v;
      }
      std::sort(keys_.begin() + begin, keys_.begin() + end);
      const Weight offset =
          boundary_offset != nullptr ? (*boundary_offset)[c] : 0.0;
      Weight extent = offset;
      for (NodeId i = begin; i < end; ++i) {
        const auto v = static_cast<NodeId>(keys_[i] & 0xffffffffULL);
        members_[i] = v;
        const float bv = label_dist(labels[v]);
        Weight best = kInfiniteWeight;
        if (bv == 0.0f) {
          best = 0.0;  // new center
        } else {
          const auto nbr = g_.neighbors(v);
          const auto wts = g_.weights(v);
          for (std::size_t j = 0; j < nbr.size(); ++j) {
            const NodeId u = nbr[j];
            if (label_center(labels[u]) == c &&
                out_.dist_to_center[u] != kInfiniteWeight) {
              best = std::min(best, out_.dist_to_center[u] + wts[j]);
            }
          }
          if (best == kInfiniteWeight) {
            best = label_chain_bound(offset, bv, steps);
          }
        }
        out_.center_of[v] = c;
        out_.dist_to_center[v] = best;
        extent = std::max(extent, best);
      }
      if (boundary_offset != nullptr) (*boundary_offset)[c] = extent;
    }

    // 3. Cover the wave.
    engine_.block(std::span<const NodeId>(members_.data(), wave));
    uncovered_ -= wave;
  }

  /// The shared tail: remaining uncovered nodes become singleton clusters,
  /// then the ascending centers list and the clustering radius are derived
  /// from the final assignment. The radius is a max-reduction, exact in any
  /// order; only the centers compaction (a byte scan) stays serial.
  void finalize() {
    const NodeId n = g_.num_nodes();
    std::vector<std::uint8_t> is_center(n, 0);
    Weight radius = 0.0;
#pragma omp parallel for schedule(static, 4096) reduction(max : radius)
    for (NodeId u = 0; u < n; ++u) {
      if (out_.center_of[u] == kInvalidNode) {
        out_.center_of[u] = u;
        out_.dist_to_center[u] = 0.0;
      }
      std::atomic_ref<std::uint8_t>(is_center[out_.center_of[u]])
          .store(1, std::memory_order_relaxed);
      radius = std::max(radius, out_.dist_to_center[u]);
    }
    for (NodeId u = 0; u < n; ++u) {
      if (is_center[u]) out_.centers.push_back(u);
    }
    out_.radius = radius;
  }

 private:
  /// Uncovered and labeled this stage: a member of the contraction wave.
  [[nodiscard]] bool in_wave(const std::vector<PackedLabel>& labels,
                             NodeId u) const noexcept {
    return !engine_.is_blocked(u) && label_assigned(labels[u]);
  }

  /// In-place inclusive prefix sum over all threads: per-block sums, a
  /// serial pass over the block totals, then per-block offsets.
  static void inclusive_scan(std::vector<NodeId>& a) {
    const std::size_t len = a.size();
    const auto blocks = static_cast<std::size_t>(omp_get_max_threads());
    const std::size_t chunk = (len + blocks - 1) / blocks;
    std::vector<NodeId> carry(blocks + 1, 0);
#pragma omp parallel for schedule(static, 1)
    for (std::size_t b = 0; b < blocks; ++b) {
      const std::size_t lo = std::min(len, b * chunk);
      const std::size_t hi = std::min(len, lo + chunk);
      for (std::size_t i = lo + 1; i < hi; ++i) a[i] += a[i - 1];
      carry[b + 1] = hi > lo ? a[hi - 1] : 0;
    }
    for (std::size_t b = 0; b < blocks; ++b) carry[b + 1] += carry[b];
#pragma omp parallel for schedule(static, 1)
    for (std::size_t b = 1; b < blocks; ++b) {
      const std::size_t lo = std::min(len, b * chunk);
      const std::size_t hi = std::min(len, lo + chunk);
      for (std::size_t i = lo; i < hi; ++i) a[i] += carry[b];
    }
  }

  const Graph& g_;
  Clustering& out_;
  GrowingEngine& engine_;
  NodeId uncovered_;
  // Contraction scratch, sized once per run and reused by every stage.
  std::vector<NodeId> bucket_;     // per-center member range (counting sort)
  std::vector<NodeId> members_;    // the wave, grouped by center
  std::vector<std::uint64_t> keys_;  // per-cluster walk order
};

}  // namespace gdiam::core::detail
