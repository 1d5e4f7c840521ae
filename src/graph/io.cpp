#include "graph/io.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <unordered_map>

#include "graph/binfmt.hpp"
#include "graph/builder.hpp"

namespace gdiam::io {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("gdiam::io: " + what);
}

std::ifstream open_in(const std::string& path, std::ios::openmode mode) {
  std::ifstream f(path, mode);
  if (!f) fail("cannot open '" + path + "' for reading");
  return f;
}

std::ofstream open_out(const std::string& path, std::ios::openmode mode) {
  std::ofstream f(path, mode);
  if (!f) fail("cannot open '" + path + "' for writing");
  return f;
}

}  // namespace

Graph read_dimacs(std::istream& in) {
  std::string line;
  NodeId n = 0;
  bool have_header = false;
  GraphBuilder builder(0);
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    char tag = 0;
    ls >> tag;
    if (tag == 'c') continue;  // comment
    if (tag == 'p') {
      std::string kind;
      std::uint64_t hn = 0, hm = 0;
      ls >> kind >> hn >> hm;
      if (!ls || kind != "sp") fail("bad DIMACS problem line: " + line);
      n = static_cast<NodeId>(hn);
      builder = GraphBuilder(n);
      have_header = true;
    } else if (tag == 'a') {
      if (!have_header) fail("DIMACS arc before problem line");
      std::uint64_t u = 0, v = 0;
      double w = 0.0;
      ls >> u >> v >> w;
      if (!ls || u == 0 || v == 0 || u > n || v > n) {
        fail("bad DIMACS arc line: " + line);
      }
      if (u != v) {
        builder.add_edge(static_cast<NodeId>(u - 1),
                         static_cast<NodeId>(v - 1), w);
      }
    } else {
      fail("unknown DIMACS line tag '" + std::string(1, tag) + "'");
    }
  }
  if (!have_header) fail("missing DIMACS problem line");
  return builder.build();
}

Graph read_dimacs_file(const std::string& path) {
  auto f = open_in(path, std::ios::in);
  return read_dimacs(f);
}

void write_dimacs(const Graph& g, std::ostream& out) {
  out << "c gdiam export\n";
  out << "p sp " << g.num_nodes() << ' ' << g.num_directed_edges() << '\n';
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto nbr = g.neighbors(u);
    const auto wts = g.weights(u);
    for (std::size_t i = 0; i < nbr.size(); ++i) {
      const auto w =
          static_cast<std::uint64_t>(std::max(1.0, std::ceil(wts[i])));
      out << "a " << (u + 1) << ' ' << (nbr[i] + 1) << ' ' << w << '\n';
    }
  }
}

void write_dimacs_file(const Graph& g, const std::string& path) {
  auto f = open_out(path, std::ios::out);
  write_dimacs(g, f);
}

Graph read_edge_list(std::istream& in, std::size_t size_hint_bytes) {
  EdgeList raw;
  std::unordered_map<std::uint64_t, NodeId> remap;
  if (size_hint_bytes > 0) {
    // ~16 bytes per "u v [w]" line on real SNAP dumps; a slight
    // over-estimate only wastes capacity, an under-estimate costs rehashes
    // and edge-buffer reallocations mid-scan.
    const std::size_t edges_hint = size_hint_bytes / 16 + 16;
    raw.reserve(edges_hint);
    // Real edge lists have far fewer nodes than edges (web/social graphs
    // average well over 10 edges per node); a small fraction of the edge
    // estimate avoids rehashing without ballooning the bucket array on
    // billion-line inputs. Under-estimates just rehash a couple of times.
    remap.reserve(edges_hint / 16 + 16);
  }
  auto map_id = [&](std::uint64_t id) -> NodeId {
    auto [it, inserted] = remap.try_emplace(
        id, static_cast<NodeId>(remap.size()));
    return it->second;
  };

  // Streaming scan: fixed 1 MiB read chunks, lines parsed in place with
  // from_chars, and a bounded carry buffer for the line straddling a chunk
  // boundary. Peak transient memory is one chunk + one line regardless of
  // input size (the old per-line istringstream also paid an allocation and
  // a locale-aware numeric parse per line).
  constexpr std::size_t kChunk = std::size_t{1} << 20;
  constexpr std::size_t kMaxLine = std::size_t{1} << 16;

  auto skip_ws = [](const char*& b, const char* e) {
    while (b < e && (*b == ' ' || *b == '\t' || *b == '\r')) ++b;
  };
  auto parse_line = [&](const char* b, const char* e) {
    while (e > b && (e[-1] == '\r' || e[-1] == ' ' || e[-1] == '\t')) --e;
    skip_ws(b, e);
    if (b == e || *b == '#' || *b == '%') return;
    const std::string_view line(b, static_cast<std::size_t>(e - b));
    std::uint64_t u = 0, v = 0;
    const auto ru = std::from_chars(b, e, u);
    const char* q = ru.ptr;
    skip_ws(q, e);
    const auto rv = std::from_chars(q, e, v);
    if (ru.ec != std::errc{} || rv.ec != std::errc{}) {
      fail("bad edge list line: " + std::string(line));
    }
    q = rv.ptr;
    skip_ws(q, e);
    double w = 1.0;
    if (q < e) {
      // Optional third column; junk there falls back to weight 1, matching
      // the historical stream-extraction semantics.
      const auto rw = std::from_chars(q, e, w);
      if (rw.ec != std::errc{}) w = 1.0;
    }
    const NodeId mu = map_id(u), mv = map_id(v);
    if (mu != mv) raw.push_back(Edge{mu, mv, w});
  };

  std::vector<char> buf(kChunk);
  std::string carry;
  auto append_carry = [&](const char* b, std::size_t len) {
    if (carry.size() + len > kMaxLine) {
      fail("edge list line longer than 64 KiB");
    }
    carry.append(b, len);
  };
  for (;;) {
    in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    const auto got = static_cast<std::size_t>(in.gcount());
    if (got == 0) break;
    const char* p = buf.data();
    const char* const end = p + got;
    while (p < end) {
      const auto* nl = static_cast<const char*>(
          std::memchr(p, '\n', static_cast<std::size_t>(end - p)));
      if (nl == nullptr) {
        append_carry(p, static_cast<std::size_t>(end - p));
        break;
      }
      if (!carry.empty()) {
        append_carry(p, static_cast<std::size_t>(nl - p));
        parse_line(carry.data(), carry.data() + carry.size());
        carry.clear();
      } else {
        parse_line(p, nl);
      }
      p = nl + 1;
    }
    if (got < buf.size()) break;  // short read = end of stream
  }
  if (!carry.empty()) {  // final line without a trailing newline
    parse_line(carry.data(), carry.data() + carry.size());
  }
  return build_graph(static_cast<NodeId>(remap.size()), raw);
}

Graph read_edge_list_file(const std::string& path) {
  auto f = open_in(path, std::ios::in);
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(path, ec);
  return read_edge_list(f, ec ? 0 : static_cast<std::size_t>(bytes));
}

void write_edge_list(const Graph& g, std::ostream& out) {
  out << "# gdiam edge list: u v w (one line per undirected edge)\n";
  for (const Edge& e : to_edge_list(g)) {
    out << e.u << ' ' << e.v << ' ' << e.w << '\n';
  }
}

Graph load_graph(const std::string& path) {
  if (path.ends_with(".gr")) return read_dimacs_file(path);
  if (path.ends_with(".bin")) {
    fail("'" + path + "': the legacy .bin graph format was removed; "
         ".gcsr is the binary format (gdiam convert writes it)");
  }
  if (path.ends_with(".gcsr")) return open_mmap(path).graph();
  return read_edge_list_file(path);
}

}  // namespace gdiam::io
