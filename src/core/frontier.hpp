#pragma once
// Adaptive sparse/dense frontier engine (DESIGN.md §7).
//
// Every round-based kernel in gdiam — Δ-stepping relaxation phases, Δ-growing
// steps, the partitioned BSP backends — maintains an *active set* of nodes
// between rounds: the nodes whose tentative state changed and that therefore
// drive the next round. The paper's per-round cost is dominated by this
// maintenance on sparse rounds (road/mesh families spend most rounds with
// tiny frontiers), where a full-length scan or a per-round allocation costs
// orders of magnitude more than the actual relaxation work.
//
// The Frontier keeps two interchangeable representations of one set:
//
//   * sparse — per-thread local queues of ~FrontierOptions::local_queue_
//     capacity nodes, flushed into a shared block list when full. Duplicate
//     suppression is a per-vertex *round stamp* (stamp[v] == current round ⇔
//     v already inserted this round): O(1) per insert, no sort+unique pass,
//     no per-round flag reset — advancing the round number invalidates every
//     stamp at once.
//   * dense — a bitmap with a blocked parallel scan for materialization.
//     Insertion is one fetch_or; enumeration touches n/64 words instead of n
//     flags, and yields nodes in ascending id order.
//
// The policy switches the *collection* representation whenever the
// frontier size crosses `dense_fraction · n` (FrontierOptions): the size of
// the set sealed by advance() predicts the representation used to collect
// the next one, exactly like PASGAL's sparse/dense SSSP frontiers. All
// consumers in gdiam are order-insensitive min-reductions with set-based
// counters, so the representation never changes an algorithmic outcome —
// the parity suite in tests/test_frontier.cpp pins distances, labels and
// every RoundStats counter bit-for-bit against the serial references of
// tests/test_helpers.hpp, at thresholds that force either representation.
//
// Determinism: membership is a pure function of the inserted set (stamps are
// idempotent per round), materialized order is ascending for dense and
// block-concatenation order for sparse. Kernels never depend on the order.

#include <algorithm>
#include <array>
#include <cstdint>
#include <mutex>
#include <vector>

#include "graph/graph.hpp"

namespace gdiam::core {

enum class FrontierMode : std::uint8_t { kSparse, kDense };

[[nodiscard]] constexpr const char* to_string(FrontierMode m) noexcept {
  return m == FrontierMode::kSparse ? "sparse" : "dense";
}

struct FrontierOptions {
  /// Hysteresis band of the sparse↔dense switch. Collection switches *up* to
  /// the dense bitmap when the sealed frontier exceeds `dense_fraction · n`
  /// nodes, but only drops back to sparse once it falls to
  /// `sparse_fraction · n` or below. The gap stops representation thrashing
  /// on oscillating waves (road-network frontiers hovering around one
  /// threshold would otherwise alternate every round, paying the dense scan
  /// and the stamp rewrite on alternating rounds); sizes inside the band
  /// keep the previous round's representation. `sparse_fraction` is clamped
  /// to `dense_fraction` (a band cannot be inverted); setting them equal
  /// restores the old single-threshold switch. `dense_fraction = 1.0` pins
  /// the sparse representation: a sealed set never exceeds n. Representation
  /// never changes results — only the sparse_rounds/dense_rounds
  /// classification moves.
  double dense_fraction = 1.0 / 16.0;
  double sparse_fraction = 1.0 / 64.0;
  /// Sparse per-thread local queue length; a full queue is flushed into the
  /// shared block list (one brief lock per `local_queue_capacity` inserts).
  std::uint32_t local_queue_capacity = 128;
};

/// One adaptive active set over nodes [0, n). Reusable across rounds and —
/// via reset() — across runs: steady-state rounds allocate nothing.
class Frontier {
 public:
  Frontier() = default;
  explicit Frontier(NodeId n, const FrontierOptions& opts = {}) {
    reset(n, opts);
  }

  /// (Re)binds the frontier to a vertex universe of size n and empties it.
  /// Keeps every internal buffer's capacity, so a pooled frontier reused by
  /// consecutive runs (sssp::RoundBuffers) reallocates nothing.
  void reset(NodeId n, const FrontierOptions& opts = {});

  /// Inserts v into the round being collected. Thread-safe; returns true for
  /// exactly one caller per (v, round) — the winner, which kernels use to
  /// count node updates without a separate flag array.
  bool insert(NodeId v);

  /// Same contract, for contexts where at most one thread can ever insert a
  /// given v (e.g. a BSP shard committing nodes it owns): skips the stamp
  /// CAS. Still safe to call from multiple threads on disjoint vertices.
  bool insert_serial(NodeId v);

  /// Seals the round: materializes the collected set into nodes(), makes it
  /// the *current* frontier, starts a fresh collection round, and re-picks
  /// the collection representation from the sealed size.
  void advance();

  /// Forgets both the current frontier and any partially collected round.
  /// Collection restarts sparse (the size policy re-engages at the next
  /// advance()). Start-of-run / start-of-stage reset.
  void clear();

  /// The current (sealed) frontier, materialized. Valid until the next
  /// advance()/clear(); dense rounds list nodes in ascending id order.
  [[nodiscard]] const std::vector<NodeId>& nodes() const noexcept {
    return nodes_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }
  [[nodiscard]] bool empty() const noexcept { return nodes_.empty(); }

  /// Membership in the *current* frontier. Stable even while a dense round
  /// is being collected concurrently (dense inserts only touch the bitmap;
  /// stamps are rewritten at advance()); during a *sparse* collection,
  /// membership reads and inserts must stay in separate barrier-ordered
  /// phases, which every gdiam kernel honors.
  [[nodiscard]] bool contains(NodeId v) const noexcept {
    return current_round_ != 0 && stamp_[v] == current_round_;
  }

  /// Representation collecting the round currently being built — by the
  /// round convention of DESIGN.md §7, the mode *of* the in-flight round.
  [[nodiscard]] FrontierMode collect_mode() const noexcept {
    return collect_mode_;
  }
  /// Representation the current (sealed) frontier was collected in.
  [[nodiscard]] FrontierMode current_mode() const noexcept {
    return current_mode_;
  }

  [[nodiscard]] const FrontierOptions& options() const noexcept {
    return opts_;
  }
  [[nodiscard]] NodeId num_nodes() const noexcept { return n_; }

  /// Sealed sizes strictly above this switch the next collection to dense.
  [[nodiscard]] std::size_t dense_threshold() const noexcept {
    return static_cast<std::size_t>(opts_.dense_fraction *
                                    static_cast<double>(n_));
  }

  /// Sealed sizes at or below this switch a dense collection back to sparse
  /// (the hysteresis down-threshold; never above dense_threshold()).
  [[nodiscard]] std::size_t sparse_threshold() const noexcept {
    const auto down = static_cast<std::size_t>(opts_.sparse_fraction *
                                               static_cast<double>(n_));
    return std::min(down, dense_threshold());
  }

 private:
  /// One cache line per thread so concurrent queue appends never false-share.
  struct alignas(64) LocalQueue {
    std::vector<NodeId> buf;
  };

  void flush_queue(LocalQueue& q);
  void materialize();
  void bump_round();
  void ensure_thread_slots();

  NodeId n_ = 0;
  FrontierOptions opts_;
  FrontierMode collect_mode_ = FrontierMode::kSparse;
  FrontierMode current_mode_ = FrontierMode::kSparse;
  std::uint32_t round_ = 1;          // stamp value of the collecting round
  std::uint32_t current_round_ = 0;  // stamp value of the sealed round
  std::vector<std::uint32_t> stamp_;
  // sparse collection
  std::vector<LocalQueue> queues_;
  std::vector<std::vector<NodeId>> blocks_;       // flushed full queues
  std::vector<std::vector<NodeId>> free_blocks_;  // recycled block storage
  std::mutex blocks_mutex_;
  // dense collection
  std::vector<std::uint64_t> bits_;
  // materialized current frontier
  std::vector<NodeId> nodes_;
  std::vector<std::size_t> scan_offsets_;  // blocked-scan prefix scratch
};

}  // namespace gdiam::core
