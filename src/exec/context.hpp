#pragma once
// The unified execution runtime (DESIGN.md §8).
//
// The CL-DIAM pipeline runs O(log n) CLUSTER stages, each performing repeated
// Δ-growing calls with doubling Δ guesses, on the *same* graph — and the
// iterated Δ-stepping sweep re-runs an identical-Δ kernel once per source.
// Before this runtime every kernel call rebuilt its derived graph layouts
// (Δ-presplit CSR, shard layout) and reallocated its round-lifetime scratch,
// because the caching lived in kernel-local objects invisible to the drivers
// above them. An exec::Context is the library-wide object that owns, for one
// logical execution (a pipeline run, a sweep sequence, a benchmark loop):
//
//   (a) a keyed cache of derived graph layouts — one SplitCsr per
//       (graph, Δ), one mr::Partition per (graph, K, strategy), one set of
//       per-shard splits per (partition, Δ) — so the CLUSTER doubling search
//       and equal-Δ repetitions presplit once, not per call;
//   (b) the pooled per-run scratch: the Δ-stepping RoundBuffers pool and a
//       pool of GrowingEngines keyed by (graph, policy, shard layout), whose
//       n-sized label/scratch/frontier arrays keep their capacity across
//       kernel calls;
//   (c) a StatsSink accumulating mr::RoundStats per pipeline phase
//       (decompose / quotient / diameter), so a driver can report where the
//       rounds and work of a whole CL-DIAM run went;
//   (d) the shared execution knobs (exec/options.hpp) as the pipeline-wide
//       default.
//
// Every layer accepts a Context: sssp::delta_stepping and the sweep, the
// GrowingEngine, core::cluster / cluster2 / build_quotient /
// approximate_diameter. Passing nullptr gives a function-local context —
// identical results (every cached object is a pure function of its key;
// enforced bit-for-bit by tests/test_exec_context.cpp), just no cross-call
// reuse.
//
// Lifetime contract: a Graph passed alongside a Context must outlive it
// unchanged (the same contract as holding a Graph&). The structural
// (n, arcs) part of the cache keys only guards against the common
// reallocation accidents, not mutation. References returned by the cache
// accessors stay valid for the current kernel call: the split caches are
// LRU-bounded, so a reference is guaranteed stable only until the next
// cache-filling call on the same context (partitions and pooled engines are
// never evicted). Contexts are not thread-safe; one context serves one
// orchestration thread (the kernels it feeds parallelize internally).

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "exec/options.hpp"
#include "graph/graph.hpp"
#include "graph/split_csr.hpp"
#include "mr/partition.hpp"
#include "mr/stats.hpp"
#include "sssp/delta_stepping.hpp"

namespace gdiam::core {
class GrowingEngine;
enum class GrowingPolicy;
}  // namespace gdiam::core

namespace gdiam::io {
class MappedGraph;
}  // namespace gdiam::io

namespace gdiam::exec {

/// Named RoundStats accumulators, one per pipeline phase, in first-use order.
/// The hierarchy is phase -> total: total() folds every phase, so a driver
/// that files its cost under "decompose" / "quotient" / "diameter" gives the
/// caller both the breakdown and the roll-up. Accumulation is additive across
/// runs on a reused context (clear() starts a fresh report); the per-run
/// result structs keep their own stats, so reuse never changes a result.
class StatsSink {
 public:
  /// The accumulator for `name` (created zeroed on first use).
  mr::RoundStats& phase(std::string_view name);

  /// The accumulator for `name`, or nullptr if the phase never reported.
  [[nodiscard]] const mr::RoundStats* find(std::string_view name) const;

  /// All phases, in the order they first reported.
  [[nodiscard]] const std::vector<std::pair<std::string, mr::RoundStats>>&
  phases() const noexcept {
    return phases_;
  }

  /// Sum over every phase.
  [[nodiscard]] mr::RoundStats total() const noexcept;

  void clear() { phases_.clear(); }

 private:
  std::vector<std::pair<std::string, mr::RoundStats>> phases_;
};

class Context {
 public:
  // Constructors and destructor are out of line: members hold
  // unique_ptr<GrowingEngine> over a forward declaration.
  Context();
  explicit Context(const ExecOptions& opts);
  ~Context();
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  /// The pipeline-wide execution knobs. Kernel option structs inherit
  /// ExecOptions and win when they disagree; drivers that take only a
  /// context (the CLI sweeps) read their defaults from here.
  [[nodiscard]] ExecOptions& options() noexcept { return opts_; }
  [[nodiscard]] const ExecOptions& options() const noexcept { return opts_; }

  // --- (a) derived-layout caches -------------------------------------------

  /// Cached Δ-presplit of g's CSR for bucket width / light threshold `delta`;
  /// built on miss. LRU-bounded (see kMaxSplits): the reference is stable
  /// until the next split_for call on this context.
  const SplitCsr& split_for(const Graph& g, Weight delta);

  /// Cached shard layout for (g, opts); built on miss, never evicted.
  const mr::Partition& partition_for(const Graph& g,
                                     const mr::PartitionOptions& opts);

  /// The most recently used cached partition for g, or nullptr if none has
  /// been built — a pure lookup for consumers (the quotient edge scan) that
  /// can exploit a shard layout but should not pay for building one.
  [[nodiscard]] const mr::Partition* find_partition(const Graph& g) const;

  /// Cached per-shard Δ-presplits of partition_for(g, opts)'s shard CSRs.
  /// LRU-bounded like split_for.
  const std::vector<CsrSplit>& shard_splits_for(const Graph& g,
                                                const mr::PartitionOptions& opts,
                                                Weight delta);

  /// Number of per-shard presplit entries built on this context so far. A
  /// caller that remembers it knows, while it has not moved, that no entry
  /// was added or evicted since.
  [[nodiscard]] std::uint64_t shard_split_builds() const noexcept {
    return shard_split_builds_;
  }

  /// The cached per-shard presplit of `part` for `delta`, or nullptr. A pure
  /// lookup: no build, no LRU reordering, no allocation — safe in a forked
  /// pool worker resolving a split in its snapshot of this cache.
  [[nodiscard]] const std::vector<CsrSplit>* find_shard_splits(
      const mr::Partition& part, Weight delta) const noexcept;

  /// Adopts the persisted presplit sidecars of a mapped .gcsr file into the
  /// split cache for `g` — the load-from-file warm path (DESIGN.md §12).
  /// `g` must be a view into `m`'s mapping (m.covers(g)); anything else
  /// throws io::BinfmtError{kFingerprintMismatch}. The adopted splits are
  /// zero-copy views of the mapping (io::MappedGraph::presplit) that keep it
  /// mapped while cached. All-or-nothing: every sidecar is validated before
  /// any cache entry commits, so a bad sidecar (kBadPresplit) can never
  /// leave a partially warmed cache. Returns the number of layouts adopted
  /// (0 when the file carries none).
  std::size_t adopt_presplits(const Graph& g, const io::MappedGraph& m);

  /// True when split_for(g, delta) would hit the cache. Pure lookup: does
  /// not touch LRU order.
  [[nodiscard]] bool has_split(const Graph& g, Weight delta) const;

  // --- (b) pooled per-run scratch ------------------------------------------

  /// The Δ-stepping round-lifetime scratch pool (buffers are rebound per run
  /// and keep their capacity across runs; DESIGN.md §7), with the
  /// partitioned path's resident transport (DESIGN.md §10).
  [[nodiscard]] sssp::RoundBuffers& round_buffers() noexcept {
    return buffers_;
  }

  /// The pooled GrowingEngine for (g, policy, popts); constructed on first
  /// use, never evicted. The engine comes back with whatever label/blocked
  /// state its previous run left — callers reset() and reconfigure it
  /// (core/partial_growth.hpp does) — but its arrays keep their capacity and
  /// its shard layout and Δ-presplits come from this context's caches.
  core::GrowingEngine& growing_engine(const Graph& g,
                                      core::GrowingPolicy policy,
                                      const mr::PartitionOptions& popts);

  // --- (c) the stats sink ---------------------------------------------------

  [[nodiscard]] StatsSink& stats() noexcept { return stats_; }
  [[nodiscard]] const StatsSink& stats() const noexcept { return stats_; }

  /// Drops every cache, pool and accumulated stat (capacity not reclaimed
  /// from the RoundBuffers pool; a dropped context reclaims everything).
  void clear();

 private:
  /// Graph identity for cache keys: the pointer alone could alias a
  /// destroyed graph reallocated at the same address; (n, arcs) catches the
  /// common shapes of that accident. A guard, not a guarantee — the
  /// documented contract is that a cached graph outlives the context
  /// unchanged.
  struct GraphKey {
    const Graph* g = nullptr;
    NodeId nodes = 0;
    EdgeIndex arcs = 0;

    [[nodiscard]] bool matches(const Graph& graph) const noexcept {
      return g == &graph && nodes == graph.num_nodes() &&
             arcs == graph.num_directed_edges();
    }
    static GraphKey of(const Graph& graph) noexcept {
      return {&graph, graph.num_nodes(), graph.num_directed_edges()};
    }
  };

  /// Split caches hold one O(m) build per distinct Δ (an adopted sidecar
  /// views its file instead); the CLUSTER doubling
  /// search visits O(log(Δ_end/Δ_0)) of them per run, so the cap comfortably
  /// covers a run while bounding a context reused across many graphs.
  static constexpr std::size_t kMaxSplits = 32;

  struct SplitEntry {
    GraphKey key;
    Weight delta = 0.0;
    std::unique_ptr<SplitCsr> split;
  };
  struct PartitionEntry {
    GraphKey key;
    mr::PartitionOptions opts;
    std::unique_ptr<mr::Partition> partition;
  };
  struct ShardSplitEntry {
    const mr::Partition* partition = nullptr;  // stable: never evicted
    Weight delta = 0.0;
    std::unique_ptr<std::vector<CsrSplit>> splits;
  };
  struct EngineEntry {
    GraphKey key;
    core::GrowingPolicy policy;
    mr::PartitionOptions popts;
    std::unique_ptr<core::GrowingEngine> engine;
  };

  ExecOptions opts_;
  std::vector<SplitEntry> splits_;            // MRU-first
  std::vector<PartitionEntry> partitions_;    // MRU-first
  std::vector<ShardSplitEntry> shard_splits_;  // MRU-first
  std::uint64_t shard_split_builds_ = 0;
  std::vector<EngineEntry> engines_;
  sssp::RoundBuffers buffers_;
  StatsSink stats_;
};

}  // namespace gdiam::exec
