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
#include <cstdint>
#include <vector>

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
        covered_(g.num_nodes(), 0),
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
  [[nodiscard]] bool is_covered(NodeId u) const noexcept {
    return covered_[u] != 0;
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
  ///   contract()       — cover everything the stage reached (via cover()).
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

  /// Logical contraction of one node (DESIGN.md §3): u joins `center`'s
  /// cluster at distance `dist` and from now on proposes from its label but
  /// never accepts a new one — the effect of Procedure Contract's
  /// re-attached frontier edges.
  void cover(NodeId u, NodeId center, Weight dist) {
    covered_[u] = 1;
    engine_.block(u);
    out_.center_of[u] = center;
    out_.dist_to_center[u] = dist;
    --uncovered_;
  }

  /// The shared tail: remaining uncovered nodes become singleton clusters,
  /// then the ascending centers list and the clustering radius are derived
  /// from the final assignment.
  void finalize() {
    const NodeId n = g_.num_nodes();
    for (NodeId u = 0; u < n; ++u) {
      if (out_.center_of[u] == kInvalidNode) {
        out_.center_of[u] = u;
        out_.dist_to_center[u] = 0.0;
      }
    }
    std::vector<std::uint8_t> is_center(n, 0);
    for (NodeId u = 0; u < n; ++u) is_center[out_.center_of[u]] = 1;
    for (NodeId u = 0; u < n; ++u) {
      if (is_center[u]) out_.centers.push_back(u);
    }
    out_.radius = 0.0;
    for (NodeId u = 0; u < n; ++u) {
      out_.radius = std::max(out_.radius, out_.dist_to_center[u]);
    }
  }

 private:
  const Graph& g_;
  Clustering& out_;
  GrowingEngine& engine_;
  std::vector<std::uint8_t> covered_;
  NodeId uncovered_;
};

}  // namespace gdiam::core::detail
