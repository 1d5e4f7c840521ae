// gdiam_convert — convert any readable graph to the mmap-ready .gcsr format
// (graph/binfmt.hpp; DESIGN.md §12), optionally persisting Δ-presplit
// sidecars so a serving cold start adopts ready-made layouts instead of
// paying the O(m) reorder before its first query.
//
// usage:
//   gdiam_convert INPUT --out FILE.gcsr [--presplit D[,D...]] [--verify]
//
// INPUT is a graph file (.gr DIMACS, .bin gdiam binary, .gcsr, else edge
// list) or a gen: spec ("gen:mesh:side=64:weights=uniform" — the same
// grammar gdiamd serves, serve/graphs.hpp). --presplit takes a
// comma-separated list of Δ values; each adds one persisted presplit
// layout. --verify re-opens the written file (full checksum pass) and
// checks the mapped CSR and every sidecar bit-for-bit against the source.
//
// examples:
//   gdiam generate --family mesh --side 512 --weights uniform --out m.bin
//   gdiam_convert m.bin --out m.gcsr --presplit 0.05,0.1 --verify
//   gdiamd --socket /tmp/g.sock &   # then query spec "file:m.gcsr"

#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "graph/binfmt.hpp"
#include "graph/split_csr.hpp"
#include "serve/graphs.hpp"
#include "util/fault.hpp"
#include "util/options.hpp"
#include "util/timer.hpp"

namespace {

using namespace gdiam;

[[noreturn]] void usage(const char* error = nullptr) {
  if (error != nullptr) std::fprintf(stderr, "error: %s\n\n", error);
  std::fprintf(stderr,
               "usage: gdiam_convert INPUT --out FILE.gcsr"
               " [--presplit D[,D...]] [--verify]\n"
               "  INPUT       graph file (.gr/.bin/.gcsr/edge list) or a"
               " gen: spec\n"
               "  --presplit  persist the Δ-presplit layout for each listed"
               " Δ value\n"
               "  --verify    re-open the output and check it bit-for-bit"
               " against the source\n");
  std::exit(error == nullptr ? 0 : 2);
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

}  // namespace

int main(int argc, char** argv) {
  try {
    util::fault::arm_from_env();  // chaos runs cover "io.write" here too
    const util::Options o(argc, argv);
    if (o.has("help")) usage();
    if (o.positional().empty()) usage("missing INPUT");
    const std::string input = o.positional().front();
    const std::string out = o.get_string("out", "");
    if (out.empty()) usage("--out FILE.gcsr is required");
    if (!out.ends_with(".gcsr")) usage("--out must end in .gcsr");

    io::GcsrWriteOptions wopts;
    if (o.has("presplit")) {
      wopts.presplit_deltas = parse_deltas(o.get_string("presplit", ""));
    }

    util::Timer t_load;
    const Graph g = serve::make_graph(input);
    const double load_s = t_load.seconds();

    util::Timer t_write;
    io::write_gcsr(g, out, wopts);
    const double write_s = t_write.seconds();

    const io::MappedGraph m = io::open_mmap(out, {.verify_checksums = false});
    std::printf("wrote %s: n=%u m=%llu arcs=%llu bytes=%zu\n", out.c_str(),
                g.num_nodes(), static_cast<unsigned long long>(g.num_edges()),
                static_cast<unsigned long long>(g.num_directed_edges()),
                m.file_bytes());
    std::printf("fingerprint:   %016llx\n",
                static_cast<unsigned long long>(m.fingerprint()));
    if (!m.presplit_deltas().empty()) {
      std::printf("presplit:     ");
      for (const Weight d : m.presplit_deltas()) std::printf(" %g", d);
      std::printf("\n");
    }
    std::printf("load %.3fs, write %.3fs\n", load_s, write_s);

    if (o.get_bool("verify", false)) {
      util::Timer t_verify;
      if (!verify_output(g, out)) return 1;
      std::printf("verified in %.3fs: CSR and %zu sidecar(s) bit-identical\n",
                  t_verify.seconds(), m.presplit_deltas().size());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gdiam_convert: %s\n", e.what());
    return 1;
  }
}
