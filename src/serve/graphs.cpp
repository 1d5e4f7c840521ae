#include "serve/graphs.hpp"

#include <charconv>
#include <cstdint>
#include <limits>
#include <set>
#include <stdexcept>
#include <utility>

#include "gen/basic.hpp"
#include "gen/mesh.hpp"
#include "gen/rmat.hpp"
#include "gen/road.hpp"
#include "gen/weights.hpp"
#include "graph/binfmt.hpp"
#include "graph/io.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace gdiam::serve {
namespace {

/// "gen:mesh:side=64:weights=uniform" -> {"mesh", {side: "64", ...}}.
/// check_all_read() rejects every key no num() / str() call asked for: a
/// typo like "sidee" would otherwise serve the default graph under the
/// typo's cache key.
struct GenSpec {
  std::string family;
  std::map<std::string, std::string> params;
  mutable std::set<std::string> read;

  [[nodiscard]] std::string str(const std::string& key,
                                const std::string& fallback) const {
    read.insert(key);
    const auto it = params.find(key);
    return it != params.end() ? it->second : fallback;
  }
  /// A decimal value that fits T: no sign, no blanks, no overflow.
  template <typename T>
  [[nodiscard]] T num(const std::string& key, T fallback) const {
    read.insert(key);
    const auto it = params.find(key);
    if (it == params.end()) return fallback;
    const std::string& text = it->second;
    std::uint64_t v = 0;
    const auto [end, ec] =
        std::from_chars(text.data(), text.data() + text.size(), v);
    if (ec != std::errc{} || end != text.data() + text.size() ||
        v > std::numeric_limits<T>::max()) {
      throw std::invalid_argument("graph spec: bad value for '" + key +
                                  "': " + text);
    }
    return static_cast<T>(v);
  }
  void check_all_read() const {
    for (const auto& [key, value] : params) {
      if (!read.contains(key)) {
        throw std::invalid_argument("graph spec: unknown key '" + key +
                                    "' for family " + family);
      }
    }
  }
};

/// The side of a side × side grid family. Its node count must fit NodeId
/// too: the generators compute it in NodeId, and a wrapped count sizes the
/// arrays too small for the ids they then write.
NodeId grid_side(const GenSpec& gs) {
  const auto side = gs.num<NodeId>("side", 256);
  if (std::uint64_t{side} * side > std::numeric_limits<NodeId>::max()) {
    throw std::invalid_argument("graph spec: side " + std::to_string(side) +
                                " gives more nodes than a node id holds");
  }
  return side;
}

GenSpec parse_gen(const std::string& spec) {
  GenSpec out;
  std::size_t pos = 4;  // past "gen:"
  while (pos <= spec.size()) {
    const std::size_t sep = spec.find(':', pos);
    const std::size_t end = sep == std::string::npos ? spec.size() : sep;
    const std::string part = spec.substr(pos, end - pos);
    if (part.empty()) throw std::invalid_argument("graph spec: empty segment");
    if (out.family.empty()) {
      out.family = part;
    } else {
      const std::size_t eq = part.find('=');
      if (eq == std::string::npos) {
        throw std::invalid_argument("graph spec: expected key=value, got '" +
                                    part + "'");
      }
      if (!out.params.emplace(part.substr(0, eq), part.substr(eq + 1))
               .second) {
        throw std::invalid_argument("graph spec: duplicate key '" +
                                    part.substr(0, eq) + "'");
      }
    }
    if (sep == std::string::npos) break;
    pos = sep + 1;
  }
  if (out.family.empty()) {
    throw std::invalid_argument("graph spec: missing family after gen:");
  }
  return out;
}

}  // namespace

Graph make_graph(const std::string& spec) {
  // A .gcsr file maps zero-copy; GraphStore::get() adopts its persisted
  // presplit sidecars into the entry's context after the graph lands in its
  // final slot.
  if (spec.starts_with("file:")) return io::load_graph(spec.substr(5));
  if (!spec.starts_with("gen:")) return io::load_graph(spec);

  const GenSpec gs = parse_gen(spec);
  const auto seed = gs.num<std::uint64_t>("seed", 1);
  const std::string weights = gs.str("weights", "keep");
  util::Xoshiro256 rng(seed);
  Graph g;
  if (gs.family == "mesh") {
    g = gen::mesh(grid_side(gs));
  } else if (gs.family == "torus") {
    g = gen::torus(grid_side(gs));
  } else if (gs.family == "rmat") {
    const auto scale = gs.num<unsigned>("scale", 16);
    g = gen::rmat(scale, gs.num<EdgeIndex>("edge-factor", 16), rng);
  } else if (gs.family == "road") {
    const NodeId side = grid_side(gs);
    g = gen::road_network(side, side, rng);
  } else if (gs.family == "gnm") {
    const auto nodes = gs.num<NodeId>("nodes", 10000);
    g = gen::gnm(nodes, gs.num<EdgeIndex>("edges", 30000), rng,
                 /*ensure_connected=*/true);
  } else if (gs.family == "path") {
    g = gen::path(gs.num<NodeId>("nodes", 10000));
  } else {
    throw std::invalid_argument("graph spec: unknown family '" + gs.family +
                                "'");
  }
  gs.check_all_read();

  // The weight seed is derived from the structure seed, so one spec names
  // one weighted graph.
  const std::uint64_t wseed = seed ^ 0xabcd;
  if (weights == "keep") return g;
  if (weights == "unit") return gen::unit_weights(g);
  if (weights == "uniform") return gen::uniform_weights(g, wseed);
  if (weights == "int") return gen::uniform_int_weights(g, 1, 1000, wseed);
  if (weights == "bimodal") {
    return gen::bimodal_weights(g, 1.0, 1e-6, 0.1, wseed);
  }
  throw std::invalid_argument("graph spec: unknown weights '" + weights + "'");
}

GraphStore::Entry& GraphStore::get(const std::string& spec) {
  Entry* e = nullptr;
  {
    const std::lock_guard<std::mutex> lk(mu_);
    auto& slot = entries_[spec];
    if (slot == nullptr) {
      slot = std::make_unique<Entry>();
      slot->spec = spec;
    }
    e = slot.get();
  }
  // Load outside the store lock: a cold road network must not stall queries
  // on other (hot) graphs. Racing loaders of one spec serialize on the
  // entry's own mutex; losers find `loaded` set and return immediately.
  const std::lock_guard<std::mutex> elk(e->mu);
  if (!e->loaded) {
    // Fault point: a transient load failure (I/O error on a graph file,
    // allocation pressure) — the entry stays retryable, so the *next*
    // request for this spec loads cleanly.
    if (util::fault::check("serve.load").fail) {
      throw std::runtime_error("serve: graph load failed: " + spec);
    }
    e->graph = make_graph(spec);  // a throw leaves the entry retryable
    e->loaded = true;
    // Cold-start warming: a .gcsr graph carries its presplit layouts; adopt
    // them into the entry's context now that the graph sits at its final
    // address (the split cache keys on it). All-or-nothing inside.
    if (const auto m = io::mapped_view(e->graph)) {
      e->ctx.adopt_presplits(e->graph, *m);
    }
    const std::lock_guard<std::mutex> lk(mu_);
    order_.push_back(e);
  }
  return *e;
}

std::vector<GraphStore::Snapshot> GraphStore::snapshot() {
  std::vector<Entry*> loaded;
  {
    const std::lock_guard<std::mutex> lk(mu_);
    loaded = order_;
  }
  std::vector<Snapshot> out;
  out.reserve(loaded.size());
  for (Entry* e : loaded) {
    // graph is immutable once the entry reached order_; served is a racy
    // monotonic counter by contract.
    out.push_back({e->spec, e->graph.num_nodes(), e->graph.num_edges(),
                   e->served.load(std::memory_order_relaxed)});
  }
  return out;
}

std::size_t GraphStore::size() {
  const std::lock_guard<std::mutex> lk(mu_);
  return order_.size();
}

}  // namespace gdiam::serve
