// gdiam — command-line interface to the library.
//
// Subcommands:
//   generate  — synthesize a benchmark graph and write it to a file
//   stats     — structural statistics of a graph file
//   estimate  — CL-DIAM diameter approximation of a graph file
//   sssp      — Δ-stepping SSSP / eccentricity from a source node
//   convert   — translate between dimacs / edgelist / binary formats
//
// File formats are selected by extension: .gr (DIMACS), .txt/.el (edge
// list), .bin (gdiam binary stream), .gcsr (versioned mmap binary CSR;
// zero-copy ingest, see tools/gdiam_convert for presplit sidecars). Examples:
//   gdiam generate --family mesh --side 512 --weights uniform --out m.bin
//   gdiam estimate m.bin --tau 64
//   gdiam sssp m.gcsr --source 0 --delta 0.5
//   gdiam convert m.bin m.gr

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "analysis/hop.hpp"
#include "gdiam.hpp"
#include "serve/render.hpp"
#include "util/fault.hpp"

namespace {

using namespace gdiam;

[[noreturn]] void usage(const char* error = nullptr) {
  if (error != nullptr) std::fprintf(stderr, "error: %s\n\n", error);
  std::fprintf(stderr, R"(usage: gdiam <command> [args]

commands:
  generate --family mesh|torus|rmat|road|gnm|path --out FILE
           [--side N] [--scale S] [--edge-factor F] [--nodes N] [--edges M]
           [--weights unit|uniform|int|bimodal] [--seed S]
  stats    FILE [--sweeps K]
  estimate FILE [--tau T] [--seed S] [--cluster2] [--classic] [--pull]
           [--partitions K] [--range-partition]
           [--transport local|process|pool]
           [--processes P] [--placement none|round-robin|capacity]
           [--repeat N] [--reuse-context | --no-reuse-context]
  decompose FILE --out CLUSTERING.gdcl [--tau T] [--seed S]
            [--quotient QUOTIENT_GRAPH_FILE]
  sssp     FILE [--source U] [--algorithm delta|rho] [--delta D] [--rho N]
           [--partitions K] [--range-partition]
           [--transport local|process|pool]
           [--processes P] [--placement none|round-robin|capacity]
           [--repeat N] [--reuse-context | --no-reuse-context]
  convert  IN OUT

--algorithm picks the stepping kernel: delta (Meyer-Sanders buckets of width
--delta; the default) or rho (PASGAL-style batches of the ~N closest frontier
nodes, --rho N, 0 = auto). Both return exact, bit-identical distances; they
trade rounds against work differently (DESIGN.md section 11).

--partitions K > 1 runs the kernels on the sharded BSP engine (K shards,
hash partitioner unless --range-partition) and reports the cross-partition
communication volume alongside rounds and work.

--processes P (or --transport process) additionally fans each BSP superstep
out over P forked worker processes exchanging messages over Unix-domain
sockets: results are bit-identical to the in-process transport, and the cost
line gains the genuinely-crossed wire=.../... traffic. Requires
--partitions K > 1. --transport pool keeps those P workers resident across
supersteps (fork once, ship per-step inputs over persistent sockets) — the
serving configuration gdiamd runs hot graphs on; results stay bit-identical.

--placement maps the K shards onto the machine's NUMA nodes (round-robin or
capacity-balanced; DESIGN.md section 13): shard compute is pinned to its
node, shard layouts are first-touched there, and the cost line gains the
xnode=.../... cross-node traffic. The GDIAM_TOPOLOGY env var overrides the
detected topology (e.g. "0-3;4-7"). Distances and model counters are
bit-identical across placements; requires --partitions K > 1.

--repeat N runs the estimate / sssp kernel N times and prints per-run wall
times. By default every repetition shares one exec::Context (pooled engines
and buffers, cached Δ-presplit and shard layouts — the steady-state serving
configuration); --no-reuse-context gives each repetition a fresh context
instead, making the context-reuse A/B of bench/micro_kernels reproducible
from the command line. Results are identical either way.

A flag the command does not take is a usage error.
)");
  std::exit(error == nullptr ? 0 : 2);
}

Graph load(const std::string& path) {
  if (path.ends_with(".gr")) return io::read_dimacs_file(path);
  if (path.ends_with(".bin")) return io::read_binary_file(path);
  if (path.ends_with(".gcsr")) return io::open_mmap(path).graph();
  return io::read_edge_list_file(path);
}

void store(const Graph& g, const std::string& path) {
  if (path.ends_with(".gr")) {
    io::write_dimacs_file(g, path);
  } else if (path.ends_with(".bin")) {
    io::write_binary_file(g, path);
  } else if (path.ends_with(".gcsr")) {
    // Bare conversion; `gdiam_convert --presplit` adds warm-start sidecars.
    io::write_gcsr(g, path);
  } else {
    std::ofstream f(path);
    if (!f) throw std::runtime_error("cannot open " + path);
    io::write_edge_list(g, f);
  }
}

/// Warms a context from the presplit sidecars of a .gcsr-mapped graph (no-op
/// for every other format). Must be called with the same Graph object the
/// kernels will run on — the context's split cache keys on its address.
void warm_from_mapping(const Graph& g, exec::Context& ctx) {
  if (const auto m = io::mapped_view(g)) ctx.adopt_presplits(g, *m);
}

/// Fails with a usage error on any flag the command never read — a typo
/// like --partitons would otherwise silently run with the default. Call
/// once every flag the command takes has been read.
void reject_unread(const util::Options& o) {
  const std::vector<std::string> unread = o.unread();
  if (!unread.empty()) {
    usage(("unknown flag --" + unread.front() + " for this command").c_str());
  }
}

/// Shared --partitions / --range-partition parsing for estimate and sssp.
mr::PartitionOptions parse_partition(const util::Options& o) {
  mr::PartitionOptions p;
  p.num_partitions = o.get_uint32("partitions", 1);
  if (p.num_partitions == 0) usage("--partitions must be >= 1");
  p.strategy = o.get_bool("range-partition", false)
                   ? mr::PartitionStrategy::kRange
                   : mr::PartitionStrategy::kHash;
  return p;
}

/// Shared --transport / --processes parsing (estimate and sssp). --processes
/// alone implies the process transport; the multi-process backends only
/// exist behind the BSP engine, so they require --partitions K > 1.
mr::TransportOptions parse_transport(const util::Options& o,
                                     const mr::PartitionOptions& p) {
  mr::TransportOptions t;
  const std::string kind = o.get_string("transport", "");
  if (!kind.empty() && kind != "local" && kind != "process" &&
      kind != "pool") {
    usage("--transport must be local, process or pool");
  }
  if (kind == "local" && o.has("processes")) {
    usage("--transport local and --processes conflict");
  }
  if (kind == "process" || kind == "pool" || o.has("processes")) {
    t.kind = kind == "pool" ? mr::TransportKind::kPool
                            : mr::TransportKind::kProcess;
    t.processes = o.get_uint32("processes", 2);
    if (t.processes == 0) usage("--processes must be >= 1");
    if (p.num_partitions <= 1) {
      usage("--transport process/pool / --processes requires --partitions K > 1");
    }
  }
  return t;
}

/// Shared --placement parsing (estimate and sssp). Placement only exists
/// behind the BSP engine, so a non-none strategy requires --partitions K > 1.
mr::PlacementOptions parse_placement(const util::Options& o,
                                     const mr::PartitionOptions& p) {
  mr::PlacementOptions pl;
  const std::string name = o.get_string("placement", "none");
  const auto strategy = mr::parse_placement_strategy(name);
  if (!strategy) usage("--placement must be none, round-robin or capacity");
  pl.strategy = *strategy;
  if (pl.strategy != mr::PlacementStrategy::kNone && p.num_partitions <= 1) {
    usage("--placement requires --partitions K > 1");
  }
  return pl;
}

/// Shared --repeat / --reuse-context / --no-reuse-context parsing.
struct RepeatOptions {
  unsigned repeat = 1;
  bool reuse_context = true;
};

RepeatOptions parse_repeat(const util::Options& o) {
  RepeatOptions r;
  const std::int64_t repeat = o.get_int("repeat", 1);
  if (repeat < 1) usage("--repeat must be >= 1");
  r.repeat = static_cast<unsigned>(repeat);
  if (o.has("reuse-context") && o.has("no-reuse-context")) {
    usage("--reuse-context and --no-reuse-context conflict");
  }
  r.reuse_context = o.has("reuse-context")
                        ? o.get_bool("reuse-context", true)
                        : !o.get_bool("no-reuse-context", false);
  return r;
}

/// Prints the context's per-phase cost breakdown (exec::StatsSink). The sink
/// accumulates across every run on the context, so with --repeat N the
/// phase lines total N times the single-run cost line — label them so.
void print_phase_stats(const exec::Context& ctx, unsigned runs) {
  if (ctx.stats().phases().empty()) return;
  if (runs > 1) {
    std::printf("phases (cumulative over %u runs):\n", runs);
  }
  for (const auto& [name, stats] : ctx.stats().phases()) {
    std::printf("  phase %-10s %s\n", name.c_str(),
                mr::to_string(stats).c_str());
  }
}

Graph apply_weights(const Graph& g, const std::string& kind,
                    std::uint64_t seed) {
  if (kind == "unit") return gen::unit_weights(g);
  if (kind == "uniform") return gen::uniform_weights(g, seed);
  if (kind == "int") return gen::uniform_int_weights(g, 1, 1000, seed);
  if (kind == "bimodal") return gen::bimodal_weights(g, 1.0, 1e-6, 0.1, seed);
  if (kind == "keep") return g;
  throw std::invalid_argument("unknown --weights " + kind);
}

int cmd_generate(const util::Options& o) {
  const std::string family = o.get_string("family", "mesh");
  const std::string out = o.get_string("out", "");
  if (out.empty()) usage("generate requires --out");
  const auto seed = static_cast<std::uint64_t>(o.get_int("seed", 1));
  util::Xoshiro256 rng(seed);

  Graph g;
  if (family == "mesh") {
    g = gen::mesh(static_cast<NodeId>(o.get_int("side", 256)));
  } else if (family == "torus") {
    g = gen::torus(static_cast<NodeId>(o.get_int("side", 256)));
  } else if (family == "rmat") {
    g = gen::rmat(static_cast<unsigned>(o.get_int("scale", 16)),
                  static_cast<EdgeIndex>(o.get_int("edge-factor", 16)), rng);
  } else if (family == "road") {
    const auto side = static_cast<NodeId>(o.get_int("side", 256));
    g = gen::road_network(side, side, rng);
  } else if (family == "gnm") {
    g = gen::gnm(static_cast<NodeId>(o.get_int("nodes", 10000)),
                 static_cast<EdgeIndex>(o.get_int("edges", 30000)), rng,
                 /*ensure_connected=*/true);
  } else if (family == "path") {
    g = gen::path(static_cast<NodeId>(o.get_int("nodes", 10000)));
  } else {
    usage("unknown --family");
  }
  const std::string weights = o.get_string("weights", "keep");
  reject_unread(o);
  g = apply_weights(g, weights, seed ^ 0xabcd);
  store(g, out);
  std::printf("wrote %s: n=%u m=%llu, weights [%g, %g]\n", out.c_str(),
              g.num_nodes(), static_cast<unsigned long long>(g.num_edges()),
              g.min_weight(), g.max_weight());
  return 0;
}

int cmd_stats(const util::Options& o) {
  if (o.positional().size() < 2) usage("stats requires a graph file");
  const auto sweeps = static_cast<unsigned>(o.get_int("sweeps", 4));
  reject_unread(o);
  const Graph g = load(o.positional()[1]);
  const Components cc = connected_components(g);
  const DegreeStats deg = degree_stats(g);
  std::printf("nodes:       %u\n", g.num_nodes());
  std::printf("edges:       %llu\n",
              static_cast<unsigned long long>(g.num_edges()));
  std::printf("components:  %u (giant: %u nodes)\n", cc.count,
              cc.count != 0 ? cc.sizes[0] : 0);
  std::printf("degree:      min %llu, avg %.2f, max %llu\n",
              static_cast<unsigned long long>(deg.min), deg.avg,
              static_cast<unsigned long long>(deg.max));
  std::printf("weights:     min %g, avg %g, max %g\n", g.min_weight(),
              g.avg_weight(), g.max_weight());
  const Graph giant = cc.count > 1 ? largest_component(g).graph : g;
  std::printf("diameter:    >= %.6g (weighted, %u sweeps, giant component)\n",
              sssp::diameter_lower_bound(giant, sweeps, 1).lower_bound,
              sweeps);
  std::printf("hop diam:    >= %u\n",
              analysis::hop_diameter_lower_bound(giant, sweeps, 1));
  return 0;
}

int cmd_estimate(const util::Options& o) {
  if (o.positional().size() < 2) usage("estimate requires a graph file");
  const Graph g = load(o.positional()[1]);
  core::DiameterApproxOptions opt;
  opt.cluster.tau = static_cast<std::uint32_t>(o.get_int(
      "tau", core::tau_for_cluster_target(g.num_nodes(), g.num_nodes() / 4)));
  opt.cluster.seed = static_cast<std::uint64_t>(o.get_int("seed", 1));
  opt.use_cluster2 = o.get_bool("cluster2", false);
  opt.radius_aware = !o.get_bool("classic", false);
  if (o.get_bool("pull", false)) {
    opt.cluster.policy = core::GrowingPolicy::kPull;
  }
  opt.cluster.partition = parse_partition(o);
  if (opt.cluster.partition.num_partitions > 1) {
    if (o.get_bool("pull", false)) {
      usage("--pull and --partitions K>1 select conflicting engines");
    }
    opt.cluster.policy = core::GrowingPolicy::kPartitioned;
  }
  opt.cluster.transport = parse_transport(o, opt.cluster.partition);
  opt.cluster.placement = parse_placement(o, opt.cluster.partition);
  const RepeatOptions rep = parse_repeat(o);
  reject_unread(o);

  // One context for every repetition (the default), or a fresh one per run
  // (--no-reuse-context): the reproducible command-line version of the
  // BM_ClusterContextReuse A/B. The result is identical either way; only the
  // wall time moves.
  exec::Context shared_ctx;
  warm_from_mapping(g, shared_ctx);
  core::DiameterApproxResult r;
  util::Timer total;
  for (unsigned run = 0; run < rep.repeat; ++run) {
    exec::Context fresh_ctx;
    exec::Context& ctx = rep.reuse_context ? shared_ctx : fresh_ctx;
    util::Timer t;
    r = core::approximate_diameter(g, opt, &ctx);
    if (rep.repeat > 1) {
      std::printf("run %-3u        %s  (%s context)\n", run + 1,
                  util::format_duration(t.seconds()).c_str(),
                  rep.reuse_context ? "reused" : "fresh");
    }
  }
  // The result block renders through serve/render.hpp — the same function
  // the gdiamd daemon uses — so one-shot and served outputs diff cleanly.
  std::fputs(serve::render_estimate(r, opt.cluster.tau).c_str(), stdout);
  if (rep.reuse_context) print_phase_stats(shared_ctx, rep.repeat);
  std::printf("time:          %s\n",
              util::format_duration(total.seconds()).c_str());
  return 0;
}

int cmd_decompose(const util::Options& o) {
  if (o.positional().size() < 2) usage("decompose requires a graph file");
  const std::string out = o.get_string("out", "");
  if (out.empty()) usage("decompose requires --out");
  const std::string qout = o.get_string("quotient", "");
  const Graph g = load(o.positional()[1]);
  core::ClusterOptions opt;
  opt.tau = static_cast<std::uint32_t>(o.get_int(
      "tau", core::tau_for_cluster_target(g.num_nodes(), g.num_nodes() / 4)));
  opt.seed = static_cast<std::uint64_t>(o.get_int("seed", 1));
  reject_unread(o);
  util::Timer t;
  const core::Clustering c = core::cluster(g, opt);
  core::write_clustering_file(c, out);
  std::printf("decomposed in %s: %u clusters, radius %.6g (tau=%u)\n",
              util::format_duration(t.seconds()).c_str(), c.num_clusters(),
              c.radius, opt.tau);
  std::printf("clustering written to %s\n", out.c_str());
  if (!qout.empty()) {
    const core::QuotientGraph q = core::build_quotient(g, c);
    store(q.graph, qout);
    std::printf("quotient graph (%u nodes, %llu edges) written to %s\n",
                q.graph.num_nodes(),
                static_cast<unsigned long long>(q.graph.num_edges()),
                qout.c_str());
  }
  return 0;
}

int cmd_sssp(const util::Options& o) {
  if (o.positional().size() < 2) usage("sssp requires a graph file");
  const Graph g = load(o.positional()[1]);
  const auto source = static_cast<NodeId>(o.get_int("source", 0));
  sssp::DeltaSteppingOptions opt;
  const std::string algo = o.get_string("algorithm", "delta");
  if (algo == "rho") {
    opt.algorithm = exec::Algorithm::kRhoStepping;
  } else if (algo != "delta") {
    usage("--algorithm must be delta or rho");
  }
  opt.delta = o.get_double("delta", 0.0);
  opt.rho = static_cast<std::uint64_t>(o.get_int("rho", 0));
  opt.partition = parse_partition(o);
  opt.transport = parse_transport(o, opt.partition);
  opt.placement = parse_placement(o, opt.partition);
  const RepeatOptions rep = parse_repeat(o);
  reject_unread(o);

  exec::Context shared_ctx;
  warm_from_mapping(g, shared_ctx);
  sssp::DeltaSteppingResult r;
  util::Timer total;
  for (unsigned run = 0; run < rep.repeat; ++run) {
    exec::Context fresh_ctx;
    exec::Context& ctx = rep.reuse_context ? shared_ctx : fresh_ctx;
    util::Timer t;
    r = sssp::shortest_paths(g, source, opt, &ctx);
    if (rep.repeat > 1) {
      std::printf("run %-3u        %s  (%s context)\n", run + 1,
                  util::format_duration(t.seconds()).c_str(),
                  rep.reuse_context ? "reused" : "fresh");
    }
  }
  // Same shared renderer as the daemon (see cmd_estimate).
  std::fputs(serve::render_sssp(source, r).c_str(), stdout);
  std::printf("time:          %s\n",
              util::format_duration(total.seconds()).c_str());
  return 0;
}

int cmd_convert(const util::Options& o) {
  if (o.positional().size() < 3) usage("convert requires IN and OUT files");
  reject_unread(o);
  const Graph g = load(o.positional()[1]);
  store(g, o.positional()[2]);
  std::printf("converted %s -> %s (n=%u, m=%llu)\n",
              o.positional()[1].c_str(), o.positional()[2].c_str(),
              g.num_nodes(), static_cast<unsigned long long>(g.num_edges()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  try {
    // Chaos runs drive the one-shot CLI through the same fault schedules as
    // the daemon (GDIAM_FAULTS; DESIGN.md §12).
    util::fault::arm_from_env();
    const util::Options opts(argc, argv);
    if (cmd == "generate") return cmd_generate(opts);
    if (cmd == "stats") return cmd_stats(opts);
    if (cmd == "estimate") return cmd_estimate(opts);
    if (cmd == "decompose") return cmd_decompose(opts);
    if (cmd == "sssp") return cmd_sssp(opts);
    if (cmd == "convert") return cmd_convert(opts);
    if (cmd == "--help" || cmd == "help") usage();
    usage(("unknown command '" + cmd + "'").c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gdiam %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
}
