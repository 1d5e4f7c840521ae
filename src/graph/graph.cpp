#include "graph/graph.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace gdiam {

Graph::Graph() : offsets_own_{0} { rebind_views(); }

Graph::Graph(std::vector<EdgeIndex> offsets, std::vector<NodeId> targets,
             std::vector<Weight> weights)
    : offsets_own_(std::move(offsets)),
      targets_own_(std::move(targets)),
      weights_own_(std::move(weights)) {
  if (offsets_own_.empty()) offsets_own_.push_back(0);
  if (offsets_own_.back() != targets_own_.size() ||
      targets_own_.size() != weights_own_.size()) {
    throw std::invalid_argument("Graph: inconsistent CSR array sizes");
  }
  rebind_views();
  compute_weight_stats();
}

Graph::Graph(std::span<const EdgeIndex> offsets,
             std::span<const NodeId> targets, std::span<const Weight> weights,
             std::shared_ptr<const void> backing, Weight min_weight,
             Weight max_weight, Weight avg_weight)
    : backing_(std::move(backing)),
      offsets_v_(offsets),
      targets_v_(targets),
      weights_v_(weights),
      min_weight_(min_weight),
      max_weight_(max_weight),
      avg_weight_(avg_weight) {
  if (backing_ == nullptr) {
    throw std::invalid_argument("Graph: mapped view requires a keep-alive");
  }
  if (offsets_v_.empty() || offsets_v_.back() != targets_v_.size() ||
      targets_v_.size() != weights_v_.size()) {
    throw std::invalid_argument("Graph: inconsistent mapped CSR array sizes");
  }
}

Graph::Graph(const Graph& other)
    : offsets_own_(other.offsets_own_),
      targets_own_(other.targets_own_),
      weights_own_(other.weights_own_),
      backing_(other.backing_),
      min_weight_(other.min_weight_),
      max_weight_(other.max_weight_),
      avg_weight_(other.avg_weight_) {
  if (backing_ != nullptr) {
    // Mapped: the copy shares the mapping, views stay valid as-is.
    offsets_v_ = other.offsets_v_;
    targets_v_ = other.targets_v_;
    weights_v_ = other.weights_v_;
  } else {
    rebind_views();  // owned: views must point at *our* vector copies
  }
}

Graph& Graph::operator=(const Graph& other) {
  if (this != &other) {
    Graph tmp(other);
    *this = std::move(tmp);
  }
  return *this;
}

Graph::Graph(Graph&& other) noexcept
    : offsets_own_(std::move(other.offsets_own_)),
      targets_own_(std::move(other.targets_own_)),
      weights_own_(std::move(other.weights_own_)),
      backing_(std::move(other.backing_)),
      // Vector move transfers the heap buffer, so views into it stay valid.
      offsets_v_(other.offsets_v_),
      targets_v_(other.targets_v_),
      weights_v_(other.weights_v_),
      min_weight_(other.min_weight_),
      max_weight_(other.max_weight_),
      avg_weight_(other.avg_weight_) {
  other.reset_to_empty();
}

Graph& Graph::operator=(Graph&& other) noexcept {
  if (this != &other) {
    offsets_own_ = std::move(other.offsets_own_);
    targets_own_ = std::move(other.targets_own_);
    weights_own_ = std::move(other.weights_own_);
    backing_ = std::move(other.backing_);
    offsets_v_ = other.offsets_v_;
    targets_v_ = other.targets_v_;
    weights_v_ = other.weights_v_;
    min_weight_ = other.min_weight_;
    max_weight_ = other.max_weight_;
    avg_weight_ = other.avg_weight_;
    other.reset_to_empty();
  }
  return *this;
}

void Graph::rebind_views() noexcept {
  offsets_v_ = offsets_own_;
  targets_v_ = targets_own_;
  weights_v_ = weights_own_;
}

void Graph::reset_to_empty() noexcept {
  offsets_own_.clear();
  offsets_own_.push_back(0);
  targets_own_.clear();
  weights_own_.clear();
  backing_.reset();
  rebind_views();
  min_weight_ = max_weight_ = avg_weight_ = 0.0;
}

void Graph::compute_weight_stats() noexcept {
  if (weights_v_.empty()) {
    min_weight_ = max_weight_ = avg_weight_ = 0.0;
    return;
  }
  // The sum runs over fixed-size blocks whose partial sums are added
  // serially in block order: the block size does not depend on the thread
  // count, so avg_weight (the default Δ) is the same double at any thread
  // count. A reduction(+) would add the partials in arrival order.
  constexpr std::size_t kBlock = std::size_t{1} << 14;
  const std::size_t m = weights_v_.size();
  std::vector<Weight> block_sum((m + kBlock - 1) / kBlock);
  Weight mn = kInfiniteWeight, mx = 0.0;
  const Weight* w = weights_v_.data();
#pragma omp parallel for reduction(min : mn) reduction(max : mx) \
    schedule(static)
  for (std::size_t b = 0; b < block_sum.size(); ++b) {
    const std::size_t end = std::min(m, (b + 1) * kBlock);
    Weight sum = 0.0;
    for (std::size_t i = b * kBlock; i < end; ++i) {
      mn = std::min(mn, w[i]);
      mx = std::max(mx, w[i]);
      sum += w[i];
    }
    block_sum[b] = sum;
  }
  Weight sum = 0.0;
  for (const Weight s : block_sum) sum += s;
  min_weight_ = mn;
  max_weight_ = mx;
  avg_weight_ = sum / static_cast<Weight>(m);
}

bool Graph::validate() const {
  if (offsets_v_.empty() || offsets_v_.front() != 0) return false;
  if (offsets_v_.back() != targets_v_.size()) return false;
  if (targets_v_.size() != weights_v_.size()) return false;
  // One parallel pass over each array: the check runs on every cold open of
  // a mapped graph, where a serial scan costs as much as the checksums.
  const NodeId n = num_nodes();
  const EdgeIndex* off = offsets_v_.data();
  const NodeId* tgt = targets_v_.data();
  const Weight* w = weights_v_.data();
  const std::size_t m = targets_v_.size();
  // Branch-free accumulation so the loops vectorize.
  int bad = 0;
#pragma omp parallel for schedule(static) reduction(| : bad)
  for (NodeId u = 0; u < n; ++u) {
    bad |= static_cast<int>(off[u] > off[u + 1]);
  }
  if (bad != 0) return false;
#pragma omp parallel for schedule(static) reduction(| : bad)
  for (std::size_t i = 0; i < m; ++i) {
    bad |= static_cast<int>(tgt[i] >= n) | static_cast<int>(!(w[i] > 0.0)) |
           static_cast<int>(w[i] == kInfiniteWeight);
  }
  return bad == 0;
}

bool Graph::is_symmetric() const {
  const NodeId n = num_nodes();
  bool ok = true;
#pragma omp parallel for schedule(dynamic, 1024) reduction(&& : ok)
  for (NodeId u = 0; u < n; ++u) {
    const auto nbr = neighbors(u);
    const auto wts = weights(u);
    for (std::size_t i = 0; i < nbr.size(); ++i) {
      const NodeId v = nbr[i];
      if (v == u) {
        ok = false;  // self-loop
        continue;
      }
      // Look for the reverse arc with equal weight.
      const auto rn = neighbors(v);
      const auto rw = weights(v);
      bool found = false;
      for (std::size_t j = 0; j < rn.size(); ++j) {
        if (rn[j] == u && rw[j] == wts[i]) {
          found = true;
          break;
        }
      }
      ok = ok && found;
    }
  }
  return ok;
}

}  // namespace gdiam
