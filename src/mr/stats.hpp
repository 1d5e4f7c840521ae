#pragma once
// MapReduce cost accounting.
//
// The paper evaluates algorithms on Spark and reports, besides wall-clock
// time, two platform-independent indicators (Section 5):
//   * rounds — MapReduce communication rounds. Per Fact 1 each Δ-growing /
//     Δ-stepping relaxation phase is O(1) rounds in MR(M_T, M_L); we charge
//     exactly 1 round per synchronous relaxation phase and 1 per auxiliary
//     phase (center selection, contraction, bucket scan), for both the
//     clustering algorithm and Δ-stepping, so the comparison is fair.
//   * work — "the sum of node updates and messages generated": a message is
//     one relaxation request sent along an edge, a node update is one
//     accepted improvement of a node's tentative state.
//
// Every parallel algorithm in gdiam fills a RoundStats, which the Table 2 /
// Figure 2 / Figure 3 benches print directly.

#include <cstdint>
#include <string>

namespace gdiam::mr {

struct RoundStats {
  /// Synchronous relaxation phases (Δ-growing steps / Δ-stepping phases).
  std::uint64_t relaxation_rounds = 0;
  /// Auxiliary MR phases: center selection, contraction, bucket management.
  std::uint64_t auxiliary_rounds = 0;
  /// Relaxation requests generated (messages over edges).
  std::uint64_t messages = 0;
  /// Accepted improvements of node state.
  std::uint64_t node_updates = 0;
  /// Messages that actually crossed a partition boundary (filled only by the
  /// partitioned BSP backends; always 0 for flat kernels and for K = 1,
  /// where every edge is shard-internal). A cross message is also counted in
  /// `messages` — these counters are the communication-volume view of it.
  std::uint64_t cross_messages = 0;
  /// Serialized payload bytes of those cross-partition messages.
  std::uint64_t cross_bytes = 0;
  /// Records and bytes that genuinely crossed a *process* boundary — filled
  /// only when the remote transport (mr/transport.hpp, PoolTransport) ran
  /// the compute phases; always 0 under LocalTransport, where an exchange is
  /// a memory move. Unlike the cross counters these are transport-dependent
  /// by design (they include the loopback stand-ins for owned-state writes
  /// plus framing), so parity suites zero them before comparing.
  std::uint64_t wire_messages = 0;
  std::uint64_t wire_bytes = 0;
  /// Relaxation rounds whose frontier was collected in the sparse
  /// (thread-local queue) vs dense (bitmap) representation of the frontier
  /// engine (core/frontier.hpp). Observability counters for the bench
  /// mode-mix reports: they move with the engine's thresholds while the
  /// work counters above do not, so parity suites compare those
  /// field-by-field and pin these two separately (tests/test_frontier.cpp).
  /// Kernels outside the engine (Bellman–Ford, Dijkstra) leave both 0.
  std::uint64_t sparse_rounds = 0;
  std::uint64_t dense_rounds = 0;

  [[nodiscard]] std::uint64_t rounds() const noexcept {
    return relaxation_rounds + auxiliary_rounds;
  }

  /// The paper's "work" metric: node updates + messages.
  [[nodiscard]] std::uint64_t work() const noexcept {
    return messages + node_updates;
  }

  RoundStats& operator+=(const RoundStats& other) noexcept {
    relaxation_rounds += other.relaxation_rounds;
    auxiliary_rounds += other.auxiliary_rounds;
    messages += other.messages;
    node_updates += other.node_updates;
    cross_messages += other.cross_messages;
    cross_bytes += other.cross_bytes;
    wire_messages += other.wire_messages;
    wire_bytes += other.wire_bytes;
    sparse_rounds += other.sparse_rounds;
    dense_rounds += other.dense_rounds;
    return *this;
  }

  friend RoundStats operator+(RoundStats a, const RoundStats& b) noexcept {
    a += b;
    return a;
  }

  friend bool operator==(const RoundStats&, const RoundStats&) = default;
};

/// "rounds=74 messages=4.2e+08 updates=1.1e+07 work=4.3e+08
///  cross=1.0e+06msg/1.6e+07B wire=2.0e+06msg/3.1e+07B modes=61S/13D" — for
/// logs; the cross part appears only when a partitioned backend recorded
/// traffic, the wire part only when a multi-process transport ran, the
/// modes part only when the frontier engine classified rounds.
[[nodiscard]] std::string to_string(const RoundStats& s);

}  // namespace gdiam::mr
