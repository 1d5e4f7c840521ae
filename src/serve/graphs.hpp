#pragma once
// Graph specs and the daemon's hot-graph store (DESIGN.md §10).
//
// A *graph spec* is the string a client names a graph by — the batching key
// of the request scheduler, and, canonicalised (canonical_spec), the
// GraphStore's cache key:
//
//   gen:<family>:<key>=<value>:...   — synthesized, e.g.
//                                      "gen:mesh:side=64:weights=uniform"
//   file:<path>                      — loaded from disk (format by
//                                      extension, like the CLI: .gr DIMACS,
//                                      .gcsr mmap binary CSR, else edge
//                                      list)
//   <path>                           — shorthand for file:<path>
//
// gen: families and their keys (defaults in brackets):
//   mesh | torus | road   side [256]
//   rmat                  scale [16], edge-factor [16]
//   gnm                   nodes [10000], edges [30000]
//   path                  nodes [10000]
// plus, for every family, seed [1] and weights = keep (the default) | unit
// | uniform | int | bimodal, drawn with seed ^ 0xabcd. Parsing is strict: an
// unknown or repeated key, or a value that is not a decimal fitting its
// parameter (for a grid family, side² must fit a node id), throws
// std::invalid_argument rather than serving some other graph.
// `gdiam convert gen:... OUT` writes the graph a spec names, so the CI
// smoke can diff daemon responses against one-shot CLI runs on the
// converted file.
//
// The store keeps, per spec, the loaded Graph plus one exec::Context — the
// warm state (pooled engines with resident pool workers, cached Δ-presplits
// and shard layouts, RoundBuffers) that makes repeated queries on a hot
// graph cheap. Contexts are not thread-safe, so each entry carries a
// Turnstile the request scheduler passes while computing on it: one query
// per graph at a time, in the order the scheduler dequeued them, and many
// graphs genuinely concurrent.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/context.hpp"
#include "graph/graph.hpp"

namespace gdiam::serve {

/// Builds the graph a spec names. Throws std::invalid_argument on malformed
/// specs and whatever the graph/io layer throws on unreadable files.
[[nodiscard]] Graph make_graph(const std::string& spec);

/// The one name of the graph a spec names: a gen: spec becomes its family
/// plus every key the family reads, in key order, with defaults filled in
/// and numbers in plain decimal — so "gen:mesh:side=064" and
/// "gen:mesh:seed=1:side=64" both read "gen:mesh:seed=1:side=64:weights=keep"
/// — and a path becomes "file:<path>". Throws std::invalid_argument on a
/// malformed gen: spec; reads no file.
[[nodiscard]] std::string canonical_spec(const std::string& spec);

/// A FIFO lock. take() hands out tickets in call order; wait(t) blocks until
/// every earlier ticket has left. The scheduler takes a graph's ticket
/// under its queue lock when it dequeues a batch, so batches on one graph
/// compute in admission order — a plain mutex lets a batch dequeued later
/// overtake one whose worker has not reached the lock yet.
class Turnstile {
 public:
  [[nodiscard]] std::uint64_t take() noexcept {
    return next_.fetch_add(1, std::memory_order_relaxed);
  }
  void wait(std::uint64_t ticket);
  /// Ends the current holder's turn; the next ticket may enter.
  void leave();

 private:
  std::atomic<std::uint64_t> next_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t serving_ = 0;  // the ticket whose turn it is
};

/// The daemon's resident graphs, keyed by canonical_spec, so every spelling
/// of one graph shares one entry (and one warm context with its resident
/// pools). Entries are created on first use and live until the store dies —
/// a serving daemon's working set is the graphs it is asked about.
class GraphStore {
 public:
  struct Entry {
    std::string spec;  // the spelling the entry was first requested under
    Graph graph;
    exec::Context ctx;
    /// Passed while computing on `ctx` (contexts serve one thread at a
    /// time), in ticket order.
    Turnstile turn;
    /// Serializes loads of `graph`: racing loaders of one cold spec.
    std::mutex load_mu;
    /// Set under load_mu once the graph is in place; a failed load leaves
    /// it false so the next load() retries instead of serving an empty
    /// graph.
    bool loaded = false;
    /// Requests served on this entry (monotonic; read without mu for stats).
    std::atomic<std::uint64_t> served{0};
  };

  /// Returns the entry for `spec`'s canonical form, creating it unloaded on
  /// first use; reads no file, so it is cheap enough to call under the
  /// scheduler's queue lock. The reference stays valid for the store's
  /// lifetime. Throws std::invalid_argument on a malformed gen: spec.
  Entry& entry(const std::string& spec);

  /// Loads `e`'s graph unless it is loaded. Concurrent callers on one cold
  /// entry block until one load completes.
  void load(Entry& e);

  /// entry() then load().
  Entry& get(const std::string& spec);

  /// Specs currently resident, in load order, with their served counts —
  /// the `stats` verb's view (counts are snapshots, not a consistent cut).
  struct Snapshot {
    std::string spec;
    std::uint32_t nodes = 0;
    std::uint64_t edges = 0;
    std::uint64_t served = 0;
  };
  [[nodiscard]] std::vector<Snapshot> snapshot();

  [[nodiscard]] std::size_t size();

 private:
  std::mutex mu_;
  std::map<std::string, std::unique_ptr<Entry>> entries_;
  std::vector<Entry*> order_;  // load order, for stable stats output
};

}  // namespace gdiam::serve
