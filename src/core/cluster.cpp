#include "core/cluster.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/partial_growth.hpp"
#include "exec/context.hpp"
#include "util/rng.hpp"

namespace gdiam::core {

namespace {

Weight initial_delta(const Graph& g, const ClusterOptions& opts) {
  switch (opts.delta_init) {
    case DeltaInit::kMinWeight:
      return g.min_weight() > 0.0 ? g.min_weight() : 1.0;
    case DeltaInit::kFixed:
      if (!(opts.delta_fixed > 0.0)) {
        throw std::invalid_argument("cluster: delta_fixed must be positive");
      }
      return opts.delta_fixed;
    case DeltaInit::kAverageWeight:
    default:
      return g.avg_weight() > 0.0 ? g.avg_weight() : 1.0;
  }
}

}  // namespace

bool Clustering::validate(const Graph& g) const {
  const NodeId n = g.num_nodes();
  if (center_of.size() != n || dist_to_center.size() != n) return false;
  for (NodeId u = 0; u < n; ++u) {
    if (center_of[u] >= n) return false;
    if (!(dist_to_center[u] >= 0.0) || dist_to_center[u] == kInfiniteWeight) {
      return false;
    }
    if (dist_to_center[u] > radius) return false;
  }
  for (const NodeId c : centers) {
    if (c >= n || center_of[c] != c || dist_to_center[c] != 0.0) return false;
  }
  if (!std::is_sorted(centers.begin(), centers.end())) return false;
  // Every center referenced must be listed.
  std::vector<std::uint8_t> is_center(n, 0);
  for (const NodeId c : centers) is_center[c] = 1;
  for (NodeId u = 0; u < n; ++u) {
    if (!is_center[center_of[u]]) return false;
  }
  return true;
}

Clustering cluster(const Graph& g, const ClusterOptions& opts,
                   exec::Context* ctx) {
  if (opts.tau == 0) throw std::invalid_argument("cluster: tau must be >= 1");
  const NodeId n = g.num_nodes();

  Clustering out;
  out.center_of.assign(n, kInvalidNode);
  out.dist_to_center.assign(n, kInfiniteWeight);

  if (n == 0) return out;

  exec::Context local_ctx;
  exec::Context& C = ctx != nullptr ? *ctx : local_ctx;
  detail::PartialGrowthDriver drv(g, opts, C, out);
  GrowingEngine& engine = drv.engine();

  // Upper bound on the distance from each center to its cluster's current
  // boundary: the contraction walk's fallback base (core/partial_growth.hpp).
  std::vector<Weight> cluster_offset(n, 0.0);

  const double logn = std::max(1.0, std::log2(static_cast<double>(n)));
  const double stop_threshold =
      opts.stop_factor * static_cast<double>(opts.tau) * logn;
  // Any simple path weighs at most (n-1)·max_weight: once Δ exceeds this at
  // a relaxation fixpoint, the remaining uncovered nodes are unreachable
  // from every source and further doubling cannot help.
  const Weight max_useful_delta =
      std::max(1.0, static_cast<Weight>(n) * std::max(1.0, g.max_weight()));

  Weight delta = initial_delta(g, opts);
  util::Xoshiro256 rng(opts.seed);

  // The CLUSTER growth rule for the shared stage driver
  // (core/partial_growth.hpp): fresh random centers among the uncovered each
  // stage, geometrically increasing Δ until half the uncovered nodes are
  // captured, contraction with the relaxation-forest distance fix-up.
  NodeId uncovered_at_start = 0;
  std::uint64_t labeled_uncovered = 0;
  std::vector<NodeId> new_centers;

  struct Rule {
    Clustering& out;
    detail::PartialGrowthDriver& drv;
    GrowingEngine& engine;
    const Graph& g;
    const ClusterOptions& opts;
    util::Xoshiro256& rng;
    const double stop_threshold;
    const Weight max_useful_delta;
    Weight& delta;
    std::vector<Weight>& cluster_offset;
    NodeId& uncovered_at_start;
    std::uint64_t& labeled_uncovered;
    std::vector<NodeId>& new_centers;
    const double logn;

    bool more_stages() const {
      return static_cast<double>(drv.uncovered()) >= stop_threshold &&
             drv.uncovered() > 0;
    }

    // --- center selection (one MR round: sample + broadcast) --------------
    void select_centers() {
      const NodeId n = g.num_nodes();
      uncovered_at_start = drv.uncovered();
      const double p = std::min(
          1.0, opts.gamma * static_cast<double>(opts.tau) * logn /
                   static_cast<double>(drv.uncovered()));
      engine.clear_labels();
      new_centers.clear();
      for (NodeId u = 0; u < n; ++u) {
        if (!drv.is_covered(u) && rng.next_bernoulli(p)) {
          new_centers.push_back(u);
        }
      }
      if (new_centers.empty()) {
        // The w.h.p. analysis assumes at least one center per stage; force
        // one so the implementation always makes progress.
        NodeId pick = kInvalidNode;
        std::uint64_t skip = rng.next_bounded(drv.uncovered());
        for (NodeId u = 0; u < n && pick == kInvalidNode; ++u) {
          if (!drv.is_covered(u) && skip-- == 0) pick = u;
        }
        new_centers.push_back(pick);
      }
      // Contracted clusters re-enter as zero-distance sources (Contract
      // re-attaches their frontier edges to the center, original weights).
#pragma omp parallel for schedule(static, 4096)
      for (NodeId u = 0; u < n; ++u) {
        if (drv.is_covered(u)) engine.set_source(u, out.center_of[u]);
      }
      for (const NodeId c : new_centers) {
        engine.set_source(c, c);
      }
    }

    // --- grow with geometrically increasing Δ -----------------------------
    void grow() {
      const auto target =
          static_cast<std::uint64_t>((uncovered_at_start + 1) / 2);
      // New centers are uncovered nodes with d = 0 ≤ Δ: they are in V'.
      labeled_uncovered = new_centers.size();
      while (true) {
        GrowingStepParams params;
        params.light_threshold = delta;
        params.uniform_budget = delta;
        engine.rebuild_frontier(params);

        // PartialGrowth(G_i, Δ): Δ-growing steps until no state changes or
        // the coverage target is met (checked per step, as in the
        // pseudocode's repeat-until).
        const GrowingEngine::RunResult r = engine.run(
            params, out.stats, opts.max_steps_per_growth,
            [&](const GrowingStepResult& total) {
              return labeled_uncovered + total.newly_labeled >= target;
            });
        labeled_uncovered += r.totals.newly_labeled;
        out.stats.auxiliary_rounds++;  // |V'| count (prefix sum round)

        if (labeled_uncovered >= target) break;
        // Step cap exhausted mid-growth: accept the partial stage instead of
        // doubling (the Section 4 bounded-rounds variant — doubling Δ would
        // not shorten a hop-limited run, only re-pay it).
        if (r.hit_step_cap) break;
        // At a fixpoint, doubling unlocks heavier edges and more budget;
        // once Δ exceeds any possible path weight, the remaining uncovered
        // nodes are unreachable from the current sources and the stage must
        // settle for what it has.
        if (delta >= max_useful_delta) break;
        delta *= 2.0;
      }
    }

    // --- assignment + logical contraction (one MR round) ------------------
    // Stage labels measure from the cluster's *boundary* (Contract
    // re-attaches frontier edges at original weight), so the driver's
    // relaxation-forest walk adds the boundary offset and advances it to
    // the stage's final extent.
    void contract() { drv.contract_stage(&cluster_offset); }
  };

  Rule rule{out,
            drv,
            engine,
            g,
            opts,
            rng,
            stop_threshold,
            max_useful_delta,
            delta,
            cluster_offset,
            uncovered_at_start,
            labeled_uncovered,
            new_centers,
            logn};
  drv.run_stages(rule);

  // --- leftover nodes become singleton clusters (one MR round) ------------
  out.stats.auxiliary_rounds++;
  drv.finalize();
  out.delta_end = delta;
  return out;
}

std::uint32_t tau_for_cluster_target(NodeId n, NodeId target_clusters) {
  if (n == 0 || target_clusters == 0) return 1;
  const double logn = std::max(1.0, std::log2(static_cast<double>(n)));
  // CLUSTER produces Θ(τ log n) centers per stage over ≈log n stages plus
  // ≤ 8·τ·log n singletons; dividing the target by c·log n with c ≈ 12
  // keeps the observed cluster counts at or below the target.
  const double tau = static_cast<double>(target_clusters) / (12.0 * logn);
  return static_cast<std::uint32_t>(std::max(1.0, tau));
}

}  // namespace gdiam::core
