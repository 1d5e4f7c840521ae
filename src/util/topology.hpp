#pragma once
// Machine topology discovery: which CPUs live on which NUMA node.
//
// Nothing in gdiam places memory or threads by node; the topology is a
// description of the machine a measurement ran on. perfbench records its
// fingerprint next to every run so numbers from different machines are
// never compared as if they were one.
//
// Discovery order:
//   1. /sys/devices/system/node/node*/cpulist — the real machine.
//   2. Single node holding every online CPU (non-Linux, masked-out sysfs).

#include <cstdint>
#include <vector>

namespace gdiam::util::topo {

/// One machine: which CPUs live on which NUMA node. Node ids are dense
/// [0, num_nodes()).
struct Topology {
  std::vector<std::vector<int>> cpus_of_node;

  [[nodiscard]] std::uint32_t num_nodes() const noexcept {
    return static_cast<std::uint32_t>(cpus_of_node.size());
  }

  /// Structural hash: a pure function of (node count, per-node CPU lists).
  /// Never 0.
  [[nodiscard]] std::uint64_t fingerprint() const noexcept;
};

/// The real machine, from /sys/devices/system/node (scanned once — the files
/// are immutable for the process lifetime). Falls back to one node holding
/// every online CPU when sysfs is absent or unreadable.
[[nodiscard]] Topology discover();

}  // namespace gdiam::util::topo
