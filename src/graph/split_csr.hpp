#pragma once
// Δ-presplit view of a CSR adjacency (the "split-CSR" memory layout).
//
// The two hottest kernels in gdiam — Δ-stepping relaxation and Δ-growing
// steps — only ever need one *class* of a node's edges at a time: the light
// ones (w ≤ Δ) or the heavy ones (w > Δ). Iterating the full adjacency with a
// per-edge weight comparison pays a branch per arc and, worse, scans every
// frontier node's segment twice per bucket (once for each class). The split
// layout reorders each node's segment so all light edges come first and
// records the per-node boundary, so a kernel iterates exactly the arcs it
// needs with zero per-edge class branches.
//
// The reorder is a *stable* partition: within each class the original
// adjacency order is preserved, so the layout is a pure function of
// (CSR, Δ) and rebuilding it is deterministic. Reordering a node's segment
// never changes any algorithmic outcome here — all kernels are min-reductions
// whose per-phase message/update counters are set-based (see
// sssp/delta_stepping.cpp), which the parity tests in tests/test_split_csr.cpp
// enforce bit-for-bit.

#include <cassert>
#include <memory>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace gdiam {

/// Light-first permutation of one CSR's payload arrays. `offsets` stays the
/// caller's; `split[u]` is the index of u's first heavy arc (== offsets[u+1]
/// when u has none). Works for any CSR — the flat Graph and the per-shard
/// CSRs of mr::Partition both use it, so partitioned kernels see the same
/// split offsets as the flat ones.
struct CsrSplit {
  std::vector<EdgeIndex> split;  // size n: first heavy index per node
  std::vector<NodeId> targets;   // permuted copy, aligned with weights
  std::vector<Weight> weights;
};

/// Builds the light-first permutation of (targets, weights) under `delta`
/// (light ⇔ w ≤ delta). Parallel over nodes; each node's segment is
/// stably partitioned in place. Spans, not vectors: the flat Graph hands
/// out views (possibly into an mmap'd .gcsr file), the per-shard CSRs of
/// mr::Partition convert implicitly from their vectors.
[[nodiscard]] CsrSplit presplit_csr(std::span<const EdgeIndex> offsets,
                                    std::span<const NodeId> targets,
                                    std::span<const Weight> weights,
                                    Weight delta);

/// Graph-level split view: the graph's offsets plus the light-first
/// (split, targets, weights) arrays, held as spans behind an opaque
/// keep-alive — the same two-flavor storage as Graph itself. A split built
/// here owns its arrays through the keep-alive; one adopted from a .gcsr
/// sidecar views the mapping and keeps the file mapped (graph/binfmt.hpp).
/// Copies share the storage. Immutable after construction and safe to share
/// across threads, like the Graph. Default-constructed instances are empty
/// placeholders.
class SplitCsr {
 public:
  SplitCsr() = default;

  /// Builds presplit_csr(g, delta) into owned storage.
  SplitCsr(const Graph& g, Weight delta);

  /// Zero-copy view over externally owned split arrays (the persisted-
  /// presplit path: a validated .gcsr sidecar, io::MappedGraph::presplit).
  /// `backing` must keep the spans valid for as long as any copy of it is
  /// held. The caller vouches that the arrays are presplit_csr(g, delta) —
  /// MappedGraph::presplit checks every bound a kernel relies on before it
  /// constructs one, and the binfmt round-trip tests pin the bit-identity.
  SplitCsr(const Graph& g, Weight delta, std::span<const EdgeIndex> split,
           std::span<const NodeId> targets, std::span<const Weight> weights,
           std::shared_ptr<const void> backing);

  [[nodiscard]] bool empty() const noexcept { return g_ == nullptr; }
  [[nodiscard]] Weight delta() const noexcept { return delta_; }

  /// The storage keep-alive: the owned arrays, or the mapped file a sidecar
  /// view points into. Lets callers check which storage a split uses.
  [[nodiscard]] const std::shared_ptr<const void>& backing() const noexcept {
    return backing_;
  }

  /// Index of u's first heavy arc in [offsets[u], offsets[u+1]].
  [[nodiscard]] EdgeIndex split_at(NodeId u) const noexcept {
    return split_[u];
  }
  [[nodiscard]] EdgeIndex light_degree(NodeId u) const noexcept {
    return split_[u] - g_->offsets()[u];
  }
  [[nodiscard]] EdgeIndex heavy_degree(NodeId u) const noexcept {
    return g_->offsets()[u + 1] - split_[u];
  }

  [[nodiscard]] std::span<const NodeId> light_neighbors(NodeId u) const noexcept {
    const EdgeIndex lo = g_->offsets()[u];
    return {targets_.data() + lo, static_cast<std::size_t>(split_[u] - lo)};
  }
  [[nodiscard]] std::span<const Weight> light_weights(NodeId u) const noexcept {
    const EdgeIndex lo = g_->offsets()[u];
    return {weights_.data() + lo, static_cast<std::size_t>(split_[u] - lo)};
  }
  [[nodiscard]] std::span<const NodeId> heavy_neighbors(NodeId u) const noexcept {
    const EdgeIndex hi = g_->offsets()[u + 1];
    return {targets_.data() + split_[u],
            static_cast<std::size_t>(hi - split_[u])};
  }
  [[nodiscard]] std::span<const Weight> heavy_weights(NodeId u) const noexcept {
    const EdgeIndex hi = g_->offsets()[u + 1];
    return {weights_.data() + split_[u],
            static_cast<std::size_t>(hi - split_[u])};
  }

  /// Checks the split invariants against the source graph: per-node segments
  /// are a permutation of the original adjacency (as (target, weight)
  /// multisets), classes are pure, and split offsets are in bounds. Since
  /// presplit_csr is a stable partition, true means the arrays are exactly
  /// presplit_csr(g, delta).
  [[nodiscard]] bool validate() const;

 private:
  const Graph* g_ = nullptr;
  Weight delta_ = 0.0;
  std::shared_ptr<const void> backing_;
  std::span<const EdgeIndex> split_;
  std::span<const NodeId> targets_;
  std::span<const Weight> weights_;
};

}  // namespace gdiam
