#include "graph/split_csr.hpp"

#include <algorithm>
#include <utility>

namespace gdiam {

CsrSplit presplit_csr(std::span<const EdgeIndex> offsets,
                      std::span<const NodeId> targets,
                      std::span<const Weight> weights, Weight delta) {
  const std::size_t n = offsets.empty() ? 0 : offsets.size() - 1;
  CsrSplit out;
  out.split.resize(n);
  out.targets.resize(targets.size());
  out.weights.resize(weights.size());

  // Each node owns a disjoint slice of the output arrays, so the stable
  // two-pass partition of its segment needs no synchronization.
#pragma omp parallel for schedule(dynamic, 1024)
  for (std::size_t u = 0; u < n; ++u) {
    const EdgeIndex lo = offsets[u];
    const EdgeIndex hi = offsets[u + 1];
    EdgeIndex light = lo;
    for (EdgeIndex i = lo; i < hi; ++i) {
      if (weights[i] <= delta) {
        out.targets[light] = targets[i];
        out.weights[light] = weights[i];
        ++light;
      }
    }
    out.split[u] = light;
    for (EdgeIndex i = lo; i < hi; ++i) {
      if (!(weights[i] <= delta)) {
        out.targets[light] = targets[i];
        out.weights[light] = weights[i];
        ++light;
      }
    }
  }
  return out;
}

SplitCsr::SplitCsr(const Graph& g, Weight delta) : g_(&g), delta_(delta) {
  auto own = std::make_shared<const CsrSplit>(
      presplit_csr(g.offsets(), g.targets(), g.edge_weights(), delta));
  split_ = own->split;
  targets_ = own->targets;
  weights_ = own->weights;
  backing_ = std::move(own);
}

SplitCsr::SplitCsr(const Graph& g, Weight delta,
                   std::span<const EdgeIndex> split,
                   std::span<const NodeId> targets,
                   std::span<const Weight> weights,
                   std::shared_ptr<const void> backing)
    : g_(&g),
      delta_(delta),
      backing_(std::move(backing)),
      split_(split),
      targets_(targets),
      weights_(weights) {}

bool SplitCsr::validate() const {
  if (g_ == nullptr) return false;
  const Graph& g = *g_;
  const NodeId n = g.num_nodes();
  if (split_.size() != n) return false;
  if (targets_.size() != g.targets().size()) return false;
  if (weights_.size() != g.edge_weights().size()) return false;

  bool ok = true;
#pragma omp parallel for schedule(dynamic, 512) reduction(&& : ok)
  for (NodeId u = 0; u < n; ++u) {
    const EdgeIndex lo = g.offsets()[u];
    const EdgeIndex hi = g.offsets()[u + 1];
    const EdgeIndex sp = split_[u];
    if (sp < lo || sp > hi) {
      ok = false;
      continue;
    }
    // Class purity, and stability within each class: light (then heavy)
    // entries must appear in their original relative order, which also
    // proves the segment is a permutation of the original adjacency.
    EdgeIndex light = lo, heavy = sp;
    bool node_ok = true;
    for (EdgeIndex i = lo; i < hi; ++i) {
      if (g.edge_weights()[i] <= delta_) {
        node_ok = node_ok && light < sp &&
                  targets_[light] == g.targets()[i] &&
                  weights_[light] == g.edge_weights()[i];
        ++light;
      } else {
        node_ok = node_ok && heavy < hi &&
                  targets_[heavy] == g.targets()[i] &&
                  weights_[heavy] == g.edge_weights()[i];
        ++heavy;
      }
    }
    ok = ok && node_ok && light == sp && heavy == hi;
  }
  return ok;
}

}  // namespace gdiam
