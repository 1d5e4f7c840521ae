#pragma once
// Typed message exchange for one BSP superstep (mr/bsp_engine.hpp).
//
// During local compute each shard stages messages addressed to other shards;
// seal() plays the role of the round barrier: it concatenates every mailbox
// into per-destination inboxes in deterministic (source-shard ascending)
// order and tallies the traffic — message count and serialized payload bytes,
// split into total and *cross-partition* (source != destination). The cross
// counters are what a real MR/Spark shuffle would put on the wire; they feed
// the extended RoundStats (mr/stats.hpp) and the Figure 5 partition bench.
//
// Staging is lock-free by construction, the same way util::ThreadBuffers
// makes flat kernels lock-free: every source shard stages into a private
// row of destination-tagged messages, and the BSP engine runs one shard's
// compute on one thread, so no two threads ever append to the same vector.
// (Rows are tagged rather than a dense K×K matrix so memory stays
// O(K + messages) — --partitions is only clamped to n.) Delivery order is a
// pure function of (source shard, staging order), never of thread
// scheduling — the determinism contract every gdiam kernel follows.
//
// Remote-compute transports (mr/transport.hpp, DESIGN.md §9) add two things:
//
//   * a *loopback* channel — under PoolTransport a shard's compute runs
//     in a forked worker whose writes to coordinator state are lost, so the
//     direct owned-state writes of the single-process path (lowering an
//     owned distance slot, folding an owned label proposal) are staged as
//     loopback(s, m) records instead. seal() delivers a shard's loopback
//     records at the *front* of its inbox — mirroring that in-process
//     compute applies owned effects before apply folds the routed traffic —
//     and excludes them from the model-level counters (they stand in for
//     memory writes, so tallying them would make messages/bytes depend on
//     the transport; the wire counters are where they show up).
//   * encode_row/decode_row — the byte (de)serialization a transport uses to
//     move one source shard's staged row (loopback + routed) between
//     address spaces. Decoding reassembles by shard id, so sealed delivery
//     order is transport-invariant.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "mr/partition.hpp"
#include "mr/stats.hpp"

namespace gdiam::mr {

/// Traffic tally of one sealed exchange. The first four fields are the
/// *model-level* view (identical under every transport — parity suites
/// compare them bit-for-bit); the wire fields report what actually crossed a
/// process boundary, filled by the BSP engine from the transport's stats.
struct ExchangeCounters {
  std::uint64_t messages = 0;        // everything staged via send()
  std::uint64_t bytes = 0;           // messages * sizeof(Msg)
  std::uint64_t cross_messages = 0;  // staged with source != destination
  std::uint64_t cross_bytes = 0;
  std::uint64_t wire_messages = 0;   // records shipped between processes
  std::uint64_t wire_bytes = 0;      // bytes read back from workers

  ExchangeCounters& operator+=(const ExchangeCounters& o) noexcept {
    messages += o.messages;
    bytes += o.bytes;
    cross_messages += o.cross_messages;
    cross_bytes += o.cross_bytes;
    wire_messages += o.wire_messages;
    wire_bytes += o.wire_bytes;
    return *this;
  }
  friend bool operator==(const ExchangeCounters&,
                         const ExchangeCounters&) = default;
};

/// Adds the cross-partition and cross-process traffic of one sealed exchange
/// to `stats` (shard-internal messages never leave a worker, so only cross
/// traffic counts as communication volume).
void record_exchange(RoundStats& stats, const ExchangeCounters& c) noexcept;

/// Per-superstep mailbox matrix for messages of type Msg (a trivially
/// copyable value type; sizeof(Msg) is the serialized size). Lifecycle:
///   send(from, to, m)* / loopback(s, m)*  ->  seal()  ->  inbox(to)*
///   ->  clear()
template <typename Msg>
class Exchange {
  static_assert(std::is_trivially_copyable_v<Msg>,
                "exchange messages are serialized by memcpy semantics");

 public:
  Exchange() = default;
  explicit Exchange(std::uint32_t num_partitions) { resize(num_partitions); }

  void resize(std::uint32_t num_partitions) {
    k_ = num_partitions;
    rows_.assign(k_, {});
    loop_.assign(k_, {});
    inbox_.assign(k_, {});
    sealed_ = false;
  }

  [[nodiscard]] std::uint32_t num_partitions() const noexcept { return k_; }

  /// Stages one message. Only the thread computing shard `from` may call
  /// this with that `from` (the BSP engine guarantees it).
  void send(ShardId from, ShardId to, const Msg& m) {
    rows_[from].push_back(Tagged{to, m});
  }

  /// Stages a remote-compute stand-in for a direct owned-state write: shard
  /// `s`'s compute addressing its *own* node. Delivered at the front of s's
  /// inbox (before any routed traffic) and excluded from the model-level
  /// counters — see the header comment. Same single-writer rule as send().
  void loopback(ShardId s, const Msg& m) { loop_[s].push_back(m); }

  /// The barrier: routes staged rows into per-destination inboxes —
  /// loopback records first, then routed records in source-shard ascending
  /// order — and returns the traffic tally.
  ExchangeCounters seal() {
    ExchangeCounters c;
    // Pre-size the inboxes so routing appends without reallocation.
    std::vector<std::size_t> counts(k_, 0);
    for (ShardId s = 0; s < k_; ++s) counts[s] = loop_[s].size();
    for (const auto& row : rows_) {
      for (const Tagged& t : row) counts[t.to]++;
    }
    for (ShardId to = 0; to < k_; ++to) {
      inbox_[to].clear();
      inbox_[to].reserve(counts[to]);
      inbox_[to].insert(inbox_[to].end(), loop_[to].begin(), loop_[to].end());
    }
    for (ShardId from = 0; from < k_; ++from) {
      for (const Tagged& t : rows_[from]) {
        inbox_[t.to].push_back(t.msg);
        c.messages++;
        c.bytes += sizeof(Msg);
        if (from != t.to) {
          c.cross_messages++;
          c.cross_bytes += sizeof(Msg);
        }
      }
    }
    sealed_ = true;
    return c;
  }

  /// Messages addressed to shard `to`; valid after seal(), until clear().
  [[nodiscard]] std::span<const Msg> inbox(ShardId to) const noexcept {
    return inbox_[to];
  }

  [[nodiscard]] bool sealed() const noexcept { return sealed_; }

  /// Messages currently staged via send() (pre-seal; tests and assertions).
  [[nodiscard]] std::uint64_t staged() const noexcept {
    std::uint64_t total = 0;
    for (const auto& row : rows_) total += row.size();
    return total;
  }

  /// Loopback records currently staged (pre-seal; tests and assertions).
  [[nodiscard]] std::uint64_t loopback_staged() const noexcept {
    std::uint64_t total = 0;
    for (const auto& l : loop_) total += l.size();
    return total;
  }

  /// Serializes shard `s`'s staged row — loopback records, then routed
  /// records with their destination tags — appending to `out`. The format is
  /// consumed only by decode_row of an identically-typed Exchange:
  ///   [u64 loopback_count][Msg * loopback_count][Tagged * remainder]
  void encode_row(ShardId s, std::vector<std::byte>& out) const {
    const std::uint64_t nloop = loop_[s].size();
    const std::size_t base = out.size();
    out.resize(base + sizeof nloop + nloop * sizeof(Msg) +
               rows_[s].size() * sizeof(Tagged));
    std::byte* p = out.data() + base;
    std::memcpy(p, &nloop, sizeof nloop);
    p += sizeof nloop;
    if (nloop != 0) {
      std::memcpy(p, loop_[s].data(), nloop * sizeof(Msg));
      p += nloop * sizeof(Msg);
    }
    if (!rows_[s].empty()) {
      std::memcpy(p, rows_[s].data(), rows_[s].size() * sizeof(Tagged));
    }
  }

  /// Replaces shard `s`'s staged row with a decoded encode_row payload;
  /// returns the number of records decoded. Throws on a malformed length
  /// (a transport framing error, never silent truncation).
  std::uint64_t decode_row(ShardId s, const std::byte* data,
                           std::size_t len) {
    std::uint64_t nloop = 0;
    if (len < sizeof nloop) throw std::invalid_argument("bad exchange row");
    std::memcpy(&nloop, data, sizeof nloop);
    data += sizeof nloop;
    len -= sizeof nloop;
    // Divide, don't multiply: a corrupt count must fail the framing check,
    // not wrap the nloop * sizeof(Msg) product past it.
    if (nloop > len / sizeof(Msg) ||
        (len - nloop * sizeof(Msg)) % sizeof(Tagged) != 0) {
      throw std::invalid_argument("bad exchange row");
    }
    loop_[s].resize(nloop);
    if (nloop != 0) std::memcpy(loop_[s].data(), data, nloop * sizeof(Msg));
    data += nloop * sizeof(Msg);
    len -= nloop * sizeof(Msg);
    rows_[s].resize(len / sizeof(Tagged));
    if (len != 0) std::memcpy(rows_[s].data(), data, len);
    return nloop + rows_[s].size();
  }

  /// Empties shard `s`'s staged row (send + loopback) only. A resident pool
  /// worker (mr/transport.hpp PoolTransport) never runs seal()/clear() — the
  /// coordinator does — so before each compute it drops the stale staging
  /// its copy of the exchange accumulated in the previous superstep.
  void clear_row(ShardId s) noexcept {
    rows_[s].clear();
    loop_[s].clear();
  }

  /// Empties mailboxes and inboxes, ready for the next superstep. Capacity
  /// is kept so steady-state rounds allocate nothing.
  void clear() noexcept {
    for (auto& row : rows_) row.clear();
    for (auto& l : loop_) l.clear();
    for (auto& in : inbox_) in.clear();
    sealed_ = false;
  }

 private:
  struct Tagged {
    ShardId to;
    Msg msg;
  };

  std::uint32_t k_ = 0;
  std::vector<std::vector<Tagged>> rows_;  // one staging row per source
  std::vector<std::vector<Msg>> loop_;     // remote owned-write stand-ins
  std::vector<std::vector<Msg>> inbox_;    // filled by seal()
  bool sealed_ = false;
};

}  // namespace gdiam::mr
