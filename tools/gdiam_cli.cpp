// gdiam — command-line interface to the library.
//
// Subcommands:
//   stats     — structural statistics of a graph file
//   estimate  — CL-DIAM diameter approximation of a graph file
//   decompose — write a clustering (and optionally its quotient graph)
//   sssp      — Δ-stepping SSSP / eccentricity from a source node
//   convert   — write a graph file from a graph file or a gen: spec
//
// File formats are selected by extension: .gr (DIMACS), .gcsr (versioned
// mmap binary CSR; zero-copy ingest, optional presplit sidecars), anything
// else an edge list. Examples:
//   gdiam convert gen:mesh:side=512:weights=uniform m.gcsr --presplit 0.5
//   gdiam estimate m.gcsr --tau 64
//   gdiam sssp m.gcsr --source 0 --delta 0.5
//   gdiam convert m.gcsr m.gr

#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/hop.hpp"
#include "gdiam.hpp"
#include "serve/graphs.hpp"
#include "serve/render.hpp"
#include "util/fault.hpp"

namespace {

using namespace gdiam;

[[noreturn]] void usage(const char* error = nullptr) {
  if (error != nullptr) std::fprintf(stderr, "error: %s\n\n", error);
  std::fprintf(stderr, R"(usage: gdiam <command> [args]

commands:
  stats    FILE [--sweeps K]
  estimate FILE [--tau T] [--seed S] [--cluster2] [--classic] [--pull]
           [--partitions K] [--range-partition]
           [--transport local|pool]
           [--processes P]
           [--repeat N] [--reuse-context | --no-reuse-context]
  decompose FILE --out CLUSTERING.gdcl [--tau T] [--seed S]
            [--quotient QUOTIENT_GRAPH_FILE]
  sssp     FILE [--source U] [--delta D]
           [--partitions K] [--range-partition]
           [--transport local|pool]
           [--processes P]
           [--repeat N] [--reuse-context | --no-reuse-context]
  convert  IN OUT [--presplit D[,D...]] [--verify]

Graph files go by extension: .gr DIMACS, .gcsr mmap binary CSR, anything
else an edge list.

convert reads IN, a graph file or a generator spec, and writes OUT. A spec
is gen:FAMILY[:KEY=VALUE...] (defaults in brackets):
  gen:mesh, gen:torus, gen:road   side [256]
  gen:rmat                        scale [16], edge-factor [16]
  gen:gnm                         nodes [10000], edges [30000]
  gen:path                        nodes [10000]
and for every family seed [1] and weights=keep|unit|uniform|int|bimodal
[keep]; an unknown key is an error. For a .gcsr OUT, --presplit persists the
Delta-presplit layout for each listed Delta, and --verify re-opens the file
and checks it bit for bit against IN.

sssp runs Delta-stepping (Meyer-Sanders buckets of width --delta, 0 = the
average edge weight); distances are exact.

--partitions K > 1 runs the kernels on the sharded BSP engine (K shards,
hash partitioner unless --range-partition) and reports the cross-partition
communication volume alongside rounds and work.

--processes P (or --transport pool, P = 2 by default) additionally fans each
BSP superstep out over P forked worker processes that stay resident across
supersteps (fork once, ship per-step inputs over persistent Unix-domain
sockets) — the serving configuration gdiamd runs hot graphs on. Results are
bit-identical to the in-process transport, and the cost line gains the
genuinely-crossed wire=.../... traffic. Requires --partitions K > 1.

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

/// Output paths are checked with the flags, before the load: a .bin OUT
/// would otherwise be written as an edge list named like the removed
/// legacy binary format.
void check_output_path(const std::string& path) {
  if (path.ends_with(".bin")) {
    usage(("'" + path + "': the legacy .bin graph format was removed; "
           "write .gcsr instead").c_str());
  }
}

/// Writes `g` in the format the path's extension names; `gcsr` lists the
/// presplit sidecars of a .gcsr file.
void store(const Graph& g, const std::string& path,
           const io::GcsrWriteOptions& gcsr = {}) {
  if (path.ends_with(".gr")) {
    io::write_dimacs_file(g, path);
  } else if (path.ends_with(".gcsr")) {
    io::write_gcsr(g, path, gcsr);
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

/// --tau for estimate and decompose. It is read before the graph is loaded,
/// so reject_unread can run first; its default depends on n, so
/// resolve_tau fills it in after the load.
std::optional<std::int64_t> read_tau(const util::Options& o) {
  if (!o.has("tau")) return std::nullopt;
  return o.get_int("tau", 0);
}

std::uint32_t resolve_tau(std::optional<std::int64_t> tau, const Graph& g) {
  return static_cast<std::uint32_t>(tau.value_or(
      core::tau_for_cluster_target(g.num_nodes(), g.num_nodes() / 4)));
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

/// Shared --transport / --processes parsing (estimate and sssp), with the
/// daemon's exact rules (mr::parse_transport_options).
mr::TransportOptions parse_transport(const util::Options& o,
                                     const mr::PartitionOptions& p) {
  std::optional<std::uint32_t> processes;
  if (o.has("processes")) processes = o.get_uint32("processes", 2);
  try {
    return mr::parse_transport_options(o.get_string("transport", ""),
                                       processes, p.num_partitions);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
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

int cmd_stats(const util::Options& o) {
  if (o.positional().size() < 2) usage("stats requires a graph file");
  const auto sweeps = static_cast<unsigned>(o.get_int("sweeps", 4));
  reject_unread(o);
  const Graph g = io::load_graph(o.positional()[1]);
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
  const std::optional<std::int64_t> tau = read_tau(o);
  core::DiameterApproxOptions opt;
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
  const RepeatOptions rep = parse_repeat(o);
  reject_unread(o);
  const Graph g = io::load_graph(o.positional()[1]);
  opt.cluster.tau = resolve_tau(tau, g);

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
  if (!qout.empty()) check_output_path(qout);
  const std::optional<std::int64_t> tau = read_tau(o);
  core::ClusterOptions opt;
  opt.seed = static_cast<std::uint64_t>(o.get_int("seed", 1));
  reject_unread(o);
  const Graph g = io::load_graph(o.positional()[1]);
  opt.tau = resolve_tau(tau, g);
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
  const auto source = static_cast<NodeId>(o.get_int("source", 0));
  sssp::DeltaSteppingOptions opt;
  opt.delta = o.get_double("delta", 0.0);
  opt.partition = parse_partition(o);
  opt.transport = parse_transport(o, opt.partition);
  const RepeatOptions rep = parse_repeat(o);
  reject_unread(o);
  const Graph g = io::load_graph(o.positional()[1]);

  exec::Context shared_ctx;
  warm_from_mapping(g, shared_ctx);
  sssp::DeltaSteppingResult r;
  util::Timer total;
  for (unsigned run = 0; run < rep.repeat; ++run) {
    exec::Context fresh_ctx;
    exec::Context& ctx = rep.reuse_context ? shared_ctx : fresh_ctx;
    util::Timer t;
    r = sssp::delta_stepping(g, source, opt, &ctx);
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

std::vector<Weight> parse_deltas(const std::string& arg) {
  std::vector<Weight> out;
  std::size_t pos = 0;
  while (pos <= arg.size()) {
    const std::size_t comma = arg.find(',', pos);
    const std::size_t end = comma == std::string::npos ? arg.size() : comma;
    const std::string part = arg.substr(pos, end - pos);
    std::size_t used = 0;
    double d = 0.0;
    try {
      d = std::stod(part, &used);
    } catch (const std::exception&) {
      used = 0;
    }
    if (part.empty() || used != part.size()) {
      usage(("--presplit: bad delta '" + part + "'").c_str());
    }
    out.push_back(d);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

template <typename T>
bool bits_equal(std::span<const T> a, std::span<const T> b) {
  if (a.size() != b.size()) return false;
  return a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

/// The parity contract in full: mapped CSR arrays identical to the source's,
/// and every persisted sidecar identical to a freshly computed presplit.
bool verify_output(const Graph& src, const std::string& path) {
  const io::MappedGraph m = io::open_mmap(path);  // full checksum pass
  const Graph& g = m.graph();
  if (!bits_equal(src.offsets(), g.offsets()) ||
      !bits_equal(src.targets(), g.targets()) ||
      !bits_equal(src.edge_weights(), g.edge_weights())) {
    std::fprintf(stderr, "verify: mapped CSR differs from source\n");
    return false;
  }
  if (src.min_weight() != g.min_weight() ||
      src.max_weight() != g.max_weight() ||
      src.avg_weight() != g.avg_weight()) {
    std::fprintf(stderr, "verify: persisted weight stats differ\n");
    return false;
  }
  // The mapped CSR equals the source's (checked above), so a sidecar view
  // that validates against it is exactly a fresh presplit of the source:
  // SplitCsr::validate checks the stable light-first permutation arc by arc.
  for (const Weight delta : m.presplit_deltas()) {
    const std::optional<SplitCsr> loaded = m.presplit(g, delta);
    if (!loaded) {
      std::fprintf(stderr, "verify: sidecar for delta=%g missing\n", delta);
      return false;
    }
    if (!loaded->validate()) {
      std::fprintf(stderr, "verify: sidecar for delta=%g differs from a"
                           " fresh presplit\n", delta);
      return false;
    }
  }
  return true;
}

int cmd_convert(const util::Options& o) {
  if (o.positional().size() < 3) usage("convert requires IN and OUT");
  const std::string& in = o.positional()[1];
  const std::string& out = o.positional()[2];
  check_output_path(out);
  io::GcsrWriteOptions gcsr;
  if (o.has("presplit")) {
    gcsr.presplit_deltas = parse_deltas(o.get_string("presplit", ""));
  }
  const bool verify = o.get_bool("verify", false);
  if ((o.has("presplit") || verify) && !out.ends_with(".gcsr")) {
    usage("--presplit and --verify need a .gcsr OUT");
  }
  reject_unread(o);
  util::Timer t;
  Graph g;
  try {
    g = serve::make_graph(in);
  } catch (const std::invalid_argument& e) {
    usage(e.what());  // a malformed gen: spec
  }
  store(g, out, gcsr);
  std::printf("converted %s -> %s (n=%u, m=%llu)\n", in.c_str(), out.c_str(),
              g.num_nodes(), static_cast<unsigned long long>(g.num_edges()));
  if (out.ends_with(".gcsr")) {
    const io::MappedGraph m = io::open_mmap(out, {.verify_checksums = false});
    std::printf("fingerprint:   %016llx\n",
                static_cast<unsigned long long>(m.fingerprint()));
    for (const Weight d : m.presplit_deltas()) {
      std::printf("presplit:      delta=%g\n", d);
    }
    if (verify) {
      if (!verify_output(g, out)) return 1;
      std::printf("verified:      CSR and %zu sidecar(s) bit-identical\n",
                  m.presplit_deltas().size());
    }
  }
  std::printf("time:          %s\n",
              util::format_duration(t.seconds()).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  try {
    // Chaos runs drive the one-shot CLI through the same fault schedules as
    // the daemon (GDIAM_FAULTS; DESIGN.md §11).
    util::fault::arm_from_env();
    const util::Options opts(argc, argv);
    if (cmd == "generate") {
      usage("generate was removed; write the graph with "
            "gdiam convert gen:FAMILY[:KEY=VALUE...] OUT");
    }
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
