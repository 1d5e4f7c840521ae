#include "util/topology.hpp"

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <fstream>
#include <string>

#include "util/rng.hpp"

namespace gdiam::util::topo {

namespace {

/// Parses one sysfs cpulist file ("0,2,4-6") into CPU ids. Empty result on
/// any failure: discovery falls back, it never throws.
std::vector<int> read_cpulist_file(const std::string& path) {
  std::ifstream f(path);
  std::string list;
  if (!f || !std::getline(f, list)) return {};
  while (!list.empty() && (list.back() == '\n' || list.back() == ' ')) {
    list.pop_back();
  }
  std::vector<int> cpus;
  std::size_t i = 0;
  auto number = [&](int& out) {
    if (i >= list.size() ||
        std::isdigit(static_cast<unsigned char>(list[i])) == 0) {
      return false;
    }
    long v = 0;
    while (i < list.size() &&
           std::isdigit(static_cast<unsigned char>(list[i])) != 0) {
      v = v * 10 + (list[i] - '0');
      if (v > 1 << 20) return false;
      ++i;
    }
    out = static_cast<int>(v);
    return true;
  };
  for (;;) {
    int lo = 0;
    if (!number(lo)) return {};
    int hi = lo;
    if (i < list.size() && list[i] == '-') {
      ++i;
      if (!number(hi) || hi < lo) return {};
    }
    for (int c = lo; c <= hi; ++c) cpus.push_back(c);
    if (i == list.size()) return cpus;
    if (list[i] != ',') return {};
    ++i;
  }
}

Topology scan() {
  Topology t;
  // node ids are dense in practice, but holes are legal — scan until a
  // reasonable bound and keep whatever exists.
  for (int node = 0; node < 1024; ++node) {
    std::vector<int> cpus = read_cpulist_file(
        "/sys/devices/system/node/node" + std::to_string(node) + "/cpulist");
    if (cpus.empty()) {
      if (node > 0) break;  // past the last node
      continue;             // node0 absent: fall through to the fallback
    }
    t.cpus_of_node.push_back(std::move(cpus));
  }
  if (t.cpus_of_node.empty()) {
    const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
    std::vector<int> cpus;
    for (int c = 0; c < std::max(1L, n); ++c) cpus.push_back(c);
    t.cpus_of_node.push_back(std::move(cpus));
  }
  return t;
}

}  // namespace

std::uint64_t Topology::fingerprint() const noexcept {
  // SplitMix64 chaining over the structure; 0 is reserved, so a real
  // topology never hashes to it.
  std::uint64_t h = SplitMix64(0x746f706f6c6f6779ULL /* "topology" */).next();
  h ^= SplitMix64(num_nodes()).next();
  for (const auto& node : cpus_of_node) {
    h = SplitMix64(h ^ SplitMix64(node.size()).next()).next();
    for (const int c : node) {
      h = SplitMix64(h ^ static_cast<std::uint64_t>(c)).next();
    }
  }
  return h == 0 ? 1 : h;
}

Topology discover() {
  static const Topology cached = scan();
  return cached;
}

}  // namespace gdiam::util::topo
