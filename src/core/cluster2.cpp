#include "core/cluster2.hpp"

#include <algorithm>
#include <cmath>

#include "core/partial_growth.hpp"
#include "exec/context.hpp"
#include "util/rng.hpp"

namespace gdiam::core {

Cluster2Result cluster2(const Graph& g, const Cluster2Options& opts,
                        exec::Context* ctx) {
  const NodeId n = g.num_nodes();
  Cluster2Result out;

  exec::Context local_ctx;
  exec::Context& C = ctx != nullptr ? *ctx : local_ctx;

  // --- bootstrap: learn R_CL(τ) from CLUSTER(G, τ) -------------------------
  // The bootstrap shares the context: its pooled engine and cached layouts
  // are re-acquired (and reset) by the driver below.
  const Clustering bootstrap = cluster(g, opts.base, &C);
  out.radius_cluster1 = bootstrap.radius;
  out.bootstrap_stats = bootstrap.stats;

  Clustering& c2 = out.clustering;
  c2.stats = bootstrap.stats;  // CLUSTER2 pays for its CLUSTER call
  if (n == 0) return out;

  // Growth quantum 2·R_CL(τ). A zero radius (every node its own cluster in
  // the bootstrap, e.g. τ ≥ n) degenerates to the smallest edge weight so
  // light edges still exist.
  const Weight quantum =
      2.0 * (bootstrap.radius > 0.0
                 ? bootstrap.radius
                 : (g.min_weight() > 0.0 ? g.min_weight() : 1.0));

  // The driver re-initializes the per-node assignment; c2.stats (set above)
  // already carries the bootstrap cost and is only appended to from here.
  detail::PartialGrowthDriver drv(g, opts.base, C, c2);
  GrowingEngine& engine = drv.engine();
  std::vector<std::uint32_t> birth(n, 0);  // iteration a center was born
  std::vector<Weight> budget(n, 0.0);      // per-center growth budget
  util::Xoshiro256 rng(opts.base.seed ^ 0x9e3779b97f4a7c15ULL);

  const auto iterations = static_cast<std::uint32_t>(
      std::max(1.0, std::ceil(std::log2(static_cast<double>(n)))));

  // The CLUSTER2 growth rule for the shared stage driver
  // (core/partial_growth.hpp): in iteration i uncovered nodes become centers
  // independently with probability 2^i / n, every cluster grows along light
  // (w ≤ 2·R_CL) edges under its per-center budget until no state changes,
  // and everything reached is contracted with a double-precision distance
  // from the driver's relaxation-forest walk.
  std::uint32_t i = 0;
  struct Rule {
    Clustering& c2;
    detail::PartialGrowthDriver& drv;
    GrowingEngine& engine;
    const Graph& g;
    const Cluster2Options& opts;
    util::Xoshiro256& rng;
    const Weight quantum;
    const std::uint32_t iterations;
    std::uint32_t& i;
    std::vector<std::uint32_t>& birth;
    std::vector<Weight>& budget;

    bool more_stages() {
      if (i >= iterations || drv.uncovered() == 0) return false;
      ++i;
      return true;
    }

    // --- center selection with doubling probability 2^i / n ---------------
    void select_centers() {
      const NodeId n = g.num_nodes();
      const double p =
          std::min(1.0, std::ldexp(1.0, static_cast<int>(i)) /
                            static_cast<double>(n));
      for (NodeId u = 0; u < n; ++u) {
        if (drv.is_covered(u) || label_assigned(engine.label(u))) continue;
        if (rng.next_bernoulli(p)) {
          engine.set_source(u, u);
          birth[u] = i;
        }
      }
    }

    // --- PartialGrowth2: grow until no state is updated -------------------
    void grow() {
      const NodeId n = g.num_nodes();
      // Cluster born at iteration b may grow to total light-distance
      // (i − b + 1) · 2R_CL — the Contract2 weight-rescaling equivalence.
#pragma omp parallel for schedule(static, 4096)
      for (NodeId u = 0; u < n; ++u) {
        if (engine.label(u) != kUnassignedLabel &&
            label_center(engine.label(u)) == u) {
          budget[u] = static_cast<Weight>(i - birth[u] + 1) * quantum;
        }
      }
      GrowingStepParams params;
      params.light_threshold = quantum;  // heavier than 2R_CL: never used
      params.center_budget = &budget;
      engine.rebuild_frontier(params);
      engine.run(params, c2.stats, opts.max_steps_per_growth,
                 [](const GrowingStepResult&) { return false; });
    }

    // --- logical Contract2: everything reached becomes covered ------------
    // Labels carry the total light-distance from the center, so the
    // driver's relaxation-forest walk needs no boundary offset.
    void contract() { drv.contract_stage(nullptr); }
  };

  Rule rule{c2,   drv, engine,  g, opts,  rng,
            quantum, iterations, i, birth, budget};
  drv.run_stages(rule);

  // The final iteration has selection probability ≥ 1, so everything is
  // covered; the driver's finalize keeps a defensive singleton sweep for
  // graphs where floating point made the last probability land just below 1.
  drv.finalize();
  c2.delta_end = quantum;
  return out;
}

}  // namespace gdiam::core
