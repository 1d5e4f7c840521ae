#pragma once
// Graph specs and the daemon's hot-graph store (DESIGN.md §10).
//
// A *graph spec* is the string a client names a graph by — the GraphStore's
// cache key and the batching key of the request scheduler:
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
// graph cheap. Contexts are not thread-safe, so each entry carries the
// mutex the request scheduler holds while computing on it: one query per
// graph at a time, many graphs genuinely concurrent.

#include <atomic>
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

/// The daemon's resident graphs, keyed by spec. Entries are created on
/// first use and live until the store dies — a serving daemon's working set
/// is the graphs it is asked about.
class GraphStore {
 public:
  struct Entry {
    std::string spec;
    Graph graph;
    exec::Context ctx;
    /// Held while computing on `ctx` (contexts serve one thread at a time).
    std::mutex mu;
    /// Set under mu once the graph is in place; a failed load leaves it
    /// false so the next get() retries instead of serving an empty graph.
    bool loaded = false;
    /// Requests served on this entry (monotonic; read without mu for stats).
    std::atomic<std::uint64_t> served{0};
  };

  /// Returns the entry for `spec`, loading the graph on first use. The
  /// reference stays valid for the store's lifetime. Concurrent callers of
  /// the same cold spec block until one load completes.
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
