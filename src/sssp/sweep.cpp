#include "sssp/sweep.hpp"

#include <algorithm>

#include "exec/context.hpp"
#include "sssp/dijkstra.hpp"
#include "util/rng.hpp"

namespace gdiam::sssp {

SweepResult diameter_lower_bound(const Graph& g, const SweepOptions& opts,
                                 exec::Context* ctx) {
  SweepResult out;
  const NodeId n = g.num_nodes();
  if (n == 0 || opts.max_sweeps == 0) return out;

  NodeId source = opts.seed_node;
  if (source == kInvalidNode) {
    util::Xoshiro256 rng(opts.seed);
    source = static_cast<NodeId>(rng.next_bounded(n));
  }

  // One context for the whole sweep sequence: every repetition runs with the
  // same Δ, so the SplitCsr (and, for K > 1, the partition and its shard
  // splits) is built exactly once, and the RoundBuffers pool is reused.
  exec::Context local_ctx;
  exec::Context& C = ctx != nullptr ? *ctx : local_ctx;

  for (unsigned s = 0; s < opts.max_sweeps; ++s) {
    // The farthest node of the previous sweep becomes the next source
    // (paper's iterated-sweep heuristic).
    if (std::find(out.sources.begin(), out.sources.end(), source) !=
        out.sources.end()) {
      break;  // cycle of farthest pairs: no further improvement possible
    }
    Weight ecc = 0.0;
    NodeId farthest = source;
    if (opts.use_delta_stepping) {
      const DeltaSteppingResult r = delta_stepping(g, source, opts.delta, &C);
      ecc = r.eccentricity;
      farthest = r.farthest;
      out.stats += r.stats;
    } else {
      const SsspResult r = dijkstra(g, source);
      ecc = r.eccentricity;
      farthest = r.farthest;
    }
    out.sources.push_back(source);
    out.eccentricities.push_back(ecc);
    out.lower_bound = std::max(out.lower_bound, ecc);
    source = farthest;
  }
  return out;
}

SweepResult diameter_lower_bound(const Graph& g, unsigned max_sweeps,
                                 std::uint64_t seed, NodeId seed_node) {
  SweepOptions opts;
  opts.max_sweeps = max_sweeps;
  opts.seed = seed;
  opts.seed_node = seed_node;
  return diameter_lower_bound(g, opts);
}

}  // namespace gdiam::sssp
