// google-benchmark micro kernels: throughput of the primitives the paper's
// round/work counts are made of — Δ-growing steps (push vs pull), Δ-stepping
// phases, Dijkstra, generators, components. These are the constants behind
// the Table 2 wall-clock column.

#include <benchmark/benchmark.h>

#include <bit>

#include "core/cluster.hpp"
#include "core/diameter.hpp"
#include "core/frontier.hpp"
#include "core/growing.hpp"
#include "exec/context.hpp"
#include "gen/mesh.hpp"
#include "gen/rmat.hpp"
#include "gen/road.hpp"
#include "gen/weights.hpp"
#include "graph/components.hpp"
#include "graph/split_csr.hpp"
#include "report.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/rho_stepping.hpp"
#include "util/bitpack.hpp"
#include "util/fault.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/topology.hpp"

namespace {

using namespace gdiam;

const Graph& mesh_graph() {
  static const Graph g = gen::uniform_weights(gen::mesh(256), 3);
  return g;
}

const Graph& rmat_graph() {
  static const Graph g = [] {
    util::Xoshiro256 rng(5);
    return gen::uniform_weights(
        largest_component(gen::rmat(14, 16, rng)).graph, 7);
  }();
  return g;
}

const Graph& road_graph() {
  static const Graph g = [] {
    util::Xoshiro256 rng(9);
    return gen::road_network(160, 160, rng);
  }();
  return g;
}

// ---------------------------------------------------------------------------
// Split-vs-branch A/B for the light-relaxation inner loop — the tentpole of
// the split-CSR layout, measured in isolation. Both variants perform the
// same per-light-edge work (message count + tentative atomic min against a
// settled distance array, like a steady-state Δ-stepping phase); the only
// difference is the iteration pattern: branch-filtering the full adjacency
// vs walking the presplit light segment.

Weight relax_delta() { return rmat_graph().avg_weight(); }

void BM_RelaxLightBranch(benchmark::State& state) {
  const Graph& g = rmat_graph();
  const Weight delta = relax_delta();
  const NodeId n = g.num_nodes();
  // dist = 0 everywhere: no relaxation ever wins, so every iteration scans
  // the same edges and does the same compare work (steady state).
  std::vector<std::uint64_t> dist(n, util::double_order_bits(0.0));
  for (auto _ : state) {
    std::uint64_t messages = 0;
#pragma omp parallel for schedule(dynamic, 64) reduction(+ : messages)
    for (NodeId u = 0; u < n; ++u) {
      const auto nbr = g.neighbors(u);
      const auto wts = g.weights(u);
      for (std::size_t i = 0; i < nbr.size(); ++i) {
        const Weight w = wts[i];
        if (!(w <= delta)) continue;  // the per-edge kind branch
        ++messages;
        (void)util::atomic_fetch_min(dist[nbr[i]],
                                     util::double_order_bits(w));
      }
    }
    benchmark::DoNotOptimize(messages);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_directed_edges()));
}
BENCHMARK(BM_RelaxLightBranch)->Unit(benchmark::kMillisecond);

void BM_RelaxLightSplit(benchmark::State& state) {
  const Graph& g = rmat_graph();
  static const SplitCsr split(rmat_graph(), relax_delta());
  const NodeId n = g.num_nodes();
  std::vector<std::uint64_t> dist(n, util::double_order_bits(0.0));
  for (auto _ : state) {
    std::uint64_t messages = 0;
#pragma omp parallel for schedule(dynamic, 64) reduction(+ : messages)
    for (NodeId u = 0; u < n; ++u) {
      const auto nbr = split.light_neighbors(u);
      const auto wts = split.light_weights(u);
      for (std::size_t i = 0; i < nbr.size(); ++i) {
        ++messages;
        (void)util::atomic_fetch_min(dist[nbr[i]],
                                     util::double_order_bits(wts[i]));
      }
    }
    benchmark::DoNotOptimize(messages);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_directed_edges()));
}
BENCHMARK(BM_RelaxLightSplit)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Sparse-vs-dense A/B for per-round frontier maintenance — the tentpole of
// the adaptive frontier engine, measured in isolation. Both kernels run the
// same deterministic hop-relaxation waves over the road network (frontiers
// peak around 2·side of n = side² nodes — the sparse regime that dominates
// road/mesh rounds); the only difference is how the active set is kept:
// thread-local queues with stamp dedup (core::Frontier, sparse
// representation pinned) vs the legacy byte-flag arrays whose every round
// pays two full-length scans (enumerate + reset).

/// One wave of hop relaxation out of `u`; lowers hop counts atomically and
/// reports each improved node to `on_improved` exactly once per wave.
template <typename OnImproved>
inline void relax_hops(const Graph& g, NodeId u, std::vector<std::uint32_t>& hop,
                       OnImproved&& on_improved) {
  const std::uint32_t nd = hop[u] + 1;
  const auto nbr = g.neighbors(u);
  for (std::size_t i = 0; i < nbr.size(); ++i) {
    const NodeId v = nbr[i];
    std::atomic_ref<std::uint32_t> slot(hop[v]);
    std::uint32_t cur = slot.load(std::memory_order_relaxed);
    while (nd < cur) {
      if (slot.compare_exchange_weak(cur, nd, std::memory_order_relaxed)) {
        on_improved(v);
        break;
      }
    }
  }
}

void BM_FrontierSparse(benchmark::State& state) {
  const Graph& g = road_graph();
  const NodeId n = g.num_nodes();
  core::FrontierOptions fo;
  fo.dense_fraction = 1.0;  // pin the sparse representation for the A/B
  core::Frontier frontier(n, fo);
  std::vector<std::uint32_t> hop(n);
  std::uint64_t waves = 0;
  for (auto _ : state) {
    std::fill(hop.begin(), hop.end(), ~0u);
    frontier.clear();
    hop[0] = 0;
    frontier.insert(0);
    frontier.advance();
    while (!frontier.empty()) {
      const auto& active = frontier.nodes();
#pragma omp parallel for schedule(dynamic, 64)
      for (std::size_t f = 0; f < active.size(); ++f) {
        relax_hops(g, active[f], hop,
                   [&](NodeId v) { frontier.insert(v); });
      }
      frontier.advance();
      ++waves;
    }
    benchmark::DoNotOptimize(waves);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(waves));
}
BENCHMARK(BM_FrontierSparse)->Unit(benchmark::kMillisecond);

void BM_FrontierDense(benchmark::State& state) {
  const Graph& g = road_graph();
  const NodeId n = g.num_nodes();
  std::vector<std::uint32_t> hop(n);
  std::vector<std::uint8_t> in_frontier(n), in_next(n);
  std::uint64_t waves = 0;
  for (auto _ : state) {
    std::fill(hop.begin(), hop.end(), ~0u);
    std::fill(in_frontier.begin(), in_frontier.end(), 0);
    std::fill(in_next.begin(), in_next.end(), 0);
    hop[0] = 0;
    in_frontier[0] = 1;
    std::uint64_t active = 1;
    while (active > 0) {
      std::uint64_t next_active = 0;
      // The legacy representation: every wave scans all n flags to find the
      // active nodes, then another full pass swaps/clears the flag arrays.
#pragma omp parallel for schedule(dynamic, 1024) reduction(+ : next_active)
      for (NodeId u = 0; u < n; ++u) {
        if (!in_frontier[u]) continue;
        relax_hops(g, u, hop, [&](NodeId v) {
          std::atomic_ref<std::uint8_t> flag(in_next[v]);
          if (flag.exchange(1, std::memory_order_relaxed) == 0) ++next_active;
        });
      }
      in_frontier.swap(in_next);
#pragma omp parallel for schedule(static, 4096)
      for (NodeId u = 0; u < n; ++u) in_next[u] = 0;
      active = next_active;
      ++waves;
    }
    benchmark::DoNotOptimize(waves);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(waves));
}
BENCHMARK(BM_FrontierDense)->Unit(benchmark::kMillisecond);

// Whole Δ-stepping runs on the sparse-heavy road family, on a shared
// context — one SplitCsr for all iterations — so the row times the kernel,
// not the presplit. The denominator of the ρ-vs-Δ ratio below.
void BM_DeltaSteppingRoad(benchmark::State& state) {
  const Graph& g = road_graph();
  exec::Context ctx;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sssp::delta_stepping(g, 0, {}, &ctx));
  }
}
BENCHMARK(BM_DeltaSteppingRoad)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// ρ-vs-Δ whole-run A/B (sssp/rho_stepping.hpp): the same two families, same
// shared-context setup as the BM_DeltaStepping{Road,Rmat} runs above, so
// the JSON ratio isolates the kernel policy — bucket-by-distance vs
// batch-by-work. Road (high diameter: Δ pays rounds ∝ diameter/Δ) is where
// ρ-stepping is expected to win; rmat (low diameter) is the guard rail.

void BM_RhoSteppingRoad(benchmark::State& state) {
  const Graph& g = road_graph();
  sssp::DeltaSteppingOptions o;
  o.algorithm = exec::Algorithm::kRhoStepping;
  exec::Context ctx;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sssp::rho_stepping(g, 0, o, &ctx));
  }
}
BENCHMARK(BM_RhoSteppingRoad)->Unit(benchmark::kMillisecond);

void BM_RhoSteppingRmat(benchmark::State& state) {
  const Graph& g = rmat_graph();
  sssp::DeltaSteppingOptions o;
  o.algorithm = exec::Algorithm::kRhoStepping;
  exec::Context ctx;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sssp::rho_stepping(g, 0, o, &ctx));
  }
}
BENCHMARK(BM_RhoSteppingRmat)->Unit(benchmark::kMillisecond);

// The size-query primitive in isolation: the exact popcount scan of a dense
// bitmap that sizes every dense frontier round (O(n/64)).
constexpr gdiam::NodeId kSizeBenchNodes = 1u << 22;

void BM_FrontierSizeExact(benchmark::State& state) {
  std::vector<std::uint64_t> bits(kSizeBenchNodes / 64);
  util::Xoshiro256 rng(21);
  for (auto& w : bits) w = rng.next() & rng.next();  // ~25% occupancy
  for (auto _ : state) {
    std::size_t count = 0;
    for (const std::uint64_t w : bits) {
      count += static_cast<std::size_t>(std::popcount(w));
    }
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_FrontierSizeExact)->Unit(benchmark::kMicrosecond);

void BM_GrowingStepPush(benchmark::State& state) {
  const Graph& g = mesh_graph();
  for (auto _ : state) {
    state.PauseTiming();
    core::GrowingEngine e(g, core::GrowingPolicy::kPush);
    util::Xoshiro256 rng(11);
    for (int c = 0; c < 64; ++c) {
      const auto u = static_cast<NodeId>(rng.next_bounded(g.num_nodes()));
      e.set_source(u, u);
    }
    core::GrowingStepParams p;
    p.light_threshold = p.uniform_budget = 8.0 * g.avg_weight();
    e.rebuild_frontier(p);
    state.ResumeTiming();
    while (e.step(p).updates > 0) {
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_directed_edges()));
}
BENCHMARK(BM_GrowingStepPush)->Unit(benchmark::kMillisecond);

void BM_GrowingStepPull(benchmark::State& state) {
  const Graph& g = mesh_graph();
  for (auto _ : state) {
    state.PauseTiming();
    core::GrowingEngine e(g, core::GrowingPolicy::kPull);
    util::Xoshiro256 rng(11);
    for (int c = 0; c < 64; ++c) {
      const auto u = static_cast<NodeId>(rng.next_bounded(g.num_nodes()));
      e.set_source(u, u);
    }
    core::GrowingStepParams p;
    p.light_threshold = p.uniform_budget = 8.0 * g.avg_weight();
    e.rebuild_frontier(p);
    state.ResumeTiming();
    while (e.step(p).updates > 0) {
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_directed_edges()));
}
BENCHMARK(BM_GrowingStepPull)->Unit(benchmark::kMillisecond);

void BM_DeltaSteppingMesh(benchmark::State& state) {
  const Graph& g = mesh_graph();
  sssp::DeltaSteppingOptions o;
  o.delta = static_cast<double>(state.range(0)) * g.avg_weight();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sssp::delta_stepping(g, 0, o));
  }
}
BENCHMARK(BM_DeltaSteppingMesh)->Arg(1)->Arg(8)->Arg(64)
    ->Unit(benchmark::kMillisecond);

void BM_DeltaSteppingRmat(benchmark::State& state) {
  const Graph& g = rmat_graph();
  exec::Context ctx;  // mirrors BM_DeltaSteppingRoad
  for (auto _ : state) {
    benchmark::DoNotOptimize(sssp::delta_stepping(g, 0, {}, &ctx));
  }
}
BENCHMARK(BM_DeltaSteppingRmat)->Unit(benchmark::kMillisecond);

void BM_DijkstraMesh(benchmark::State& state) {
  const Graph& g = mesh_graph();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sssp::dijkstra_distances(g, 0));
  }
}
BENCHMARK(BM_DijkstraMesh)->Unit(benchmark::kMillisecond);

void BM_ClusterRoad(benchmark::State& state) {
  const Graph& g = road_graph();
  core::ClusterOptions o;
  o.tau = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::cluster(g, o));
  }
}
BENCHMARK(BM_ClusterRoad)->Arg(4)->Arg(64)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Context-reuse A/B — the tentpole of the unified execution runtime
// (exec/context.hpp), measured end to end. The Fresh variants run every
// CLUSTER / CL-DIAM call on its own context (what every caller paid before
// the runtime existed: engine arrays reallocated, every Δ of the doubling
// search re-presplit per call); the Reuse variants share one context across
// the loop, so steady-state calls hit the pooled engine and the keyed layout
// caches. Results are bit-identical (tests/test_exec_context.cpp); only the
// wall time moves. Road (sparse, many doubling stages) and rmat (dense,
// heavy presplits) cover both cost profiles.

core::ClusterOptions cluster_bench_options() {
  core::ClusterOptions o;
  o.tau = 16;
  o.seed = 3;
  return o;
}

void BM_ClusterContextReuseRoad(benchmark::State& state) {
  const Graph& g = road_graph();
  const core::ClusterOptions o = cluster_bench_options();
  exec::Context ctx;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::cluster(g, o, &ctx));
  }
}
BENCHMARK(BM_ClusterContextReuseRoad)->Unit(benchmark::kMillisecond);

void BM_ClusterContextFreshRoad(benchmark::State& state) {
  const Graph& g = road_graph();
  const core::ClusterOptions o = cluster_bench_options();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::cluster(g, o));
  }
}
BENCHMARK(BM_ClusterContextFreshRoad)->Unit(benchmark::kMillisecond);

void BM_ClusterContextReuseRmat(benchmark::State& state) {
  const Graph& g = rmat_graph();
  const core::ClusterOptions o = cluster_bench_options();
  exec::Context ctx;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::cluster(g, o, &ctx));
  }
}
BENCHMARK(BM_ClusterContextReuseRmat)->Unit(benchmark::kMillisecond);

void BM_ClusterContextFreshRmat(benchmark::State& state) {
  const Graph& g = rmat_graph();
  const core::ClusterOptions o = cluster_bench_options();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::cluster(g, o));
  }
}
BENCHMARK(BM_ClusterContextFreshRmat)->Unit(benchmark::kMillisecond);

// Same A/B over the whole CL-DIAM pipeline (decompose + quotient +
// quotient diameter) on the road family.
void BM_DiameterContextReuseRoad(benchmark::State& state) {
  const Graph& g = road_graph();
  core::DiameterApproxOptions o;
  o.cluster = cluster_bench_options();
  exec::Context ctx;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::approximate_diameter(g, o, &ctx));
  }
}
BENCHMARK(BM_DiameterContextReuseRoad)->Unit(benchmark::kMillisecond);

void BM_DiameterContextFreshRoad(benchmark::State& state) {
  const Graph& g = road_graph();
  core::DiameterApproxOptions o;
  o.cluster = cluster_bench_options();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::approximate_diameter(g, o));
  }
}
BENCHMARK(BM_DiameterContextFreshRoad)->Unit(benchmark::kMillisecond);

void BM_ConnectedComponents(benchmark::State& state) {
  const Graph& g = rmat_graph();
  for (auto _ : state) {
    benchmark::DoNotOptimize(connected_components(g));
  }
}
BENCHMARK(BM_ConnectedComponents)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Fault-injection layer (util/fault.hpp): the acceptance contract is that a
// disarmed fault point costs one relaxed atomic load — cheap enough to leave
// compiled into the I/O and scheduling hot paths unconditionally. Disarmed is
// the production configuration; ArmedMiss is the worst armed case a hot path
// can see (a schedule is live but names only other sites, so every check
// pays the full table scan without firing).

void BM_FaultCheckDisarmed(benchmark::State& state) {
  util::fault::disarm();
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::fault::check("bench.never.armed").fail);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FaultCheckDisarmed)->Unit(benchmark::kNanosecond);

void BM_FaultCheckArmedMiss(benchmark::State& state) {
  util::fault::arm("bench.other.site=delay:1@1");
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::fault::check("bench.never.armed").fail);
  }
  util::fault::disarm();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FaultCheckArmedMiss)->Unit(benchmark::kNanosecond);

// ---------------------------------------------------------------------------
// NUMA shard-touch A/B (util/topology.hpp, DESIGN.md §13): a shard-sized
// buffer is first-touched while bound to node 0, then streamed either under
// the same binding (Local — what the placement plan arranges) or bound to
// the highest node (Remote — the mismatch an unplaced shard risks). On a
// single-node machine the two bindings coincide and the rows read equal;
// that graceful degradation is itself part of the contract. On multi-socket
// hardware the gap is the per-access cost numa placement exists to avoid.

constexpr std::size_t kShardTouchDoubles = std::size_t{1} << 22;  // 32 MiB

void shard_touch(benchmark::State& state, bool remote) {
  const auto topo = util::topo::discover();
  std::vector<double> shard;
  {
    util::topo::ScopedAffinity home(topo.cpus(0));
    shard.assign(kShardTouchDoubles, 0.0);
    util::topo::first_touch(shard.data(), shard.size() * sizeof(double));
    for (std::size_t i = 0; i < shard.size(); ++i) {
      shard[i] = static_cast<double>(i & 1023);
    }
  }
  util::topo::ScopedAffinity touch(
      topo.cpus(remote ? topo.num_nodes() - 1 : 0));
  for (auto _ : state) {
    double sum = 0.0;
    for (const double v : shard) sum += v;
    benchmark::DoNotOptimize(sum);
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(shard.size() * sizeof(double)));
}

void BM_ShardTouchLocal(benchmark::State& state) {
  shard_touch(state, /*remote=*/false);
}
BENCHMARK(BM_ShardTouchLocal)->Unit(benchmark::kMillisecond);

void BM_ShardTouchRemote(benchmark::State& state) {
  shard_touch(state, /*remote=*/true);
}
BENCHMARK(BM_ShardTouchRemote)->Unit(benchmark::kMillisecond);

void BM_RmatGeneration(benchmark::State& state) {
  for (auto _ : state) {
    util::Xoshiro256 rng(13);
    benchmark::DoNotOptimize(gen::rmat(12, 8, rng));
  }
}
BENCHMARK(BM_RmatGeneration)->Unit(benchmark::kMillisecond);

void BM_RoadGeneration(benchmark::State& state) {
  for (auto _ : state) {
    util::Xoshiro256 rng(17);
    benchmark::DoNotOptimize(gen::road_network(100, 100, rng));
  }
}
BENCHMARK(BM_RoadGeneration)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// BENCH_micro_kernels.json trajectory: the console output stays untouched,
// but every run is also captured into a JSON row, and the headline
// split-vs-branch speedup is computed at the end.

class TrajectoryReporter : public benchmark::ConsoleReporter {
 public:
  struct Measured {
    std::string name;
    double real_time = 0.0;  // in the run's time unit
    double cpu_time = 0.0;
    std::int64_t iterations = 0;
    std::string time_unit;
  };

  void ReportRuns(const std::vector<Run>& report) override {
    for (const Run& r : report) {
      runs.push_back(Measured{r.benchmark_name(), r.GetAdjustedRealTime(),
                              r.GetAdjustedCPUTime(),
                              static_cast<std::int64_t>(r.iterations),
                              benchmark::GetTimeUnitString(r.time_unit)});
    }
    ConsoleReporter::ReportRuns(report);
  }

  std::vector<Measured> runs;
};

double real_time_of(const std::vector<TrajectoryReporter::Measured>& runs,
                    const std::string& name) {
  for (const auto& r : runs) {
    if (r.name == name) return r.real_time;
  }
  return 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  TrajectoryReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);

  bench::JsonReport report("micro_kernels");
  report.put("threads", util::num_threads());
  report.put("relax_graph_nodes", static_cast<std::uint64_t>(
                                      rmat_graph().num_nodes()));
  report.put("relax_graph_arcs", rmat_graph().num_directed_edges());
  report.put("relax_delta", relax_delta());
  const double branch = real_time_of(reporter.runs, "BM_RelaxLightBranch");
  const double split = real_time_of(reporter.runs, "BM_RelaxLightSplit");
  if (branch > 0.0 && split > 0.0) {
    report.put("relax_light_split_speedup", branch / split);
  }

  // Adaptive frontier engine: the representation A/B and the mode mix of one
  // run per family (road = sparse-heavy, rmat = dense-heavy), so regressions
  // in either the switch threshold or the representations show up in the
  // trajectory.
  report.put("frontier_dense_fraction", core::FrontierOptions{}.dense_fraction);
  const double fdense = real_time_of(reporter.runs, "BM_FrontierDense");
  const double fsparse = real_time_of(reporter.runs, "BM_FrontierSparse");
  if (fdense > 0.0 && fsparse > 0.0) {
    report.put("frontier_sparse_speedup", fdense / fsparse);
  }
  const double road_on = real_time_of(reporter.runs, "BM_DeltaSteppingRoad");
  const double rmat_on = real_time_of(reporter.runs, "BM_DeltaSteppingRmat");
  const auto road_run = sssp::delta_stepping(road_graph(), 0, {});
  report.put("road_sparse_rounds", road_run.stats.sparse_rounds);
  report.put("road_dense_rounds", road_run.stats.dense_rounds);
  const auto rmat_run = sssp::delta_stepping(rmat_graph(), 0, {});
  report.put("rmat_sparse_rounds", rmat_run.stats.sparse_rounds);
  report.put("rmat_dense_rounds", rmat_run.stats.dense_rounds);

  // ρ-vs-Δ whole-run kernel A/B (> 1.0 means ρ-stepping wins) plus the ρ
  // runs' step/round shape, per family.
  const double road_rho = real_time_of(reporter.runs, "BM_RhoSteppingRoad");
  if (road_on > 0.0 && road_rho > 0.0) {
    report.put("rho_vs_delta_speedup_road", road_on / road_rho);
  }
  const double rmat_rho = real_time_of(reporter.runs, "BM_RhoSteppingRmat");
  if (rmat_on > 0.0 && rmat_rho > 0.0) {
    report.put("rho_vs_delta_speedup_rmat", rmat_on / rmat_rho);
  }
  sssp::DeltaSteppingOptions rho_opts;
  rho_opts.algorithm = exec::Algorithm::kRhoStepping;
  const auto road_rho_run = sssp::rho_stepping(road_graph(), 0, rho_opts);
  report.put("road_rho_used", road_rho_run.rho_used);
  report.put("road_rho_steps", road_rho_run.buckets_processed);
  report.put("road_delta_buckets", road_run.buckets_processed);
  const auto rmat_rho_run = sssp::rho_stepping(rmat_graph(), 0, rho_opts);
  report.put("rmat_rho_used", rmat_rho_run.rho_used);
  report.put("rmat_rho_steps", rmat_rho_run.buckets_processed);
  report.put("rmat_delta_buckets", rmat_run.buckets_processed);

  // Context-reuse A/B (exec/context.hpp): reused-context CLUSTER / CL-DIAM
  // over fresh-context, per family. >= 1.0 means reuse pays.
  const auto reuse_ratio = [&](const char* fresh, const char* reuse) {
    const double f = real_time_of(reporter.runs, fresh);
    const double r = real_time_of(reporter.runs, reuse);
    return (f > 0.0 && r > 0.0) ? f / r : 0.0;
  };
  if (const double s = reuse_ratio("BM_ClusterContextFreshRoad",
                                   "BM_ClusterContextReuseRoad")) {
    report.put("cluster_context_reuse_speedup_road", s);
  }
  if (const double s = reuse_ratio("BM_ClusterContextFreshRmat",
                                   "BM_ClusterContextReuseRmat")) {
    report.put("cluster_context_reuse_speedup_rmat", s);
  }
  if (const double s = reuse_ratio("BM_DiameterContextFreshRoad",
                                   "BM_DiameterContextReuseRoad")) {
    report.put("diameter_context_reuse_speedup_road", s);
  }
  // NUMA shard-touch A/B (util/topology.hpp): remote-over-local streaming
  // time. ~1.0 on single-node machines by construction (both bindings
  // coincide); > 1.0 on multi-socket hardware quantifies the remote-DRAM
  // penalty placement avoids. Deliberately not a "_speedup" field — on CI it
  // is pure noise around 1.0 and must not trip the higher-is-better gate.
  report.put("shard_touch_topology_nodes",
             static_cast<std::uint64_t>(util::topo::discover().num_nodes()));
  const double touch_local = real_time_of(reporter.runs, "BM_ShardTouchLocal");
  const double touch_remote =
      real_time_of(reporter.runs, "BM_ShardTouchRemote");
  if (touch_local > 0.0 && touch_remote > 0.0) {
    report.put("shard_touch_remote_penalty", touch_remote / touch_local);
  }
  // Disarmed fault points (util/fault.hpp) must stay in the noise: these are
  // absolute nanoseconds per check, not a ratio, so the gate can watch them.
  if (const double ns = real_time_of(reporter.runs, "BM_FaultCheckDisarmed")) {
    report.put("fault_check_disarmed_ns", ns);
  }
  if (const double ns = real_time_of(reporter.runs, "BM_FaultCheckArmedMiss")) {
    report.put("fault_check_armed_miss_ns", ns);
  }
  for (const auto& r : reporter.runs) {
    report.add_row()
        .put("name", r.name)
        .put("real_time", r.real_time)
        .put("cpu_time", r.cpu_time)
        .put("time_unit", r.time_unit)
        .put("iterations", static_cast<std::int64_t>(r.iterations));
  }
  report.write();
  benchmark::Shutdown();
  return 0;
}
