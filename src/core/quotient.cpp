#include "core/quotient.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sssp/dijkstra.hpp"
#include "util/rng.hpp"

namespace gdiam::core {

QuotientGraph build_quotient(const Graph& g, const Clustering& clustering,
                             exec::Context* /*ctx*/) {
  const NodeId n = g.num_nodes();
  if (clustering.center_of.size() != n) {
    throw std::invalid_argument("build_quotient: clustering/graph mismatch");
  }

  QuotientGraph out;
  out.center_of_cluster = clustering.centers;
  const auto k = static_cast<NodeId>(clustering.centers.size());

  // center node id -> cluster index (centers are sorted ascending).
  std::vector<NodeId> index_of_center(n, kInvalidNode);
  for (NodeId i = 0; i < k; ++i) {
    if (clustering.centers[i] >= n) {
      throw std::invalid_argument("build_quotient: center out of range");
    }
    index_of_center[clustering.centers[i]] = i;
  }
  out.cluster_of_node.resize(n);
  bool orphan = false;
#pragma omp parallel for schedule(static, 4096) reduction(|| : orphan)
  for (NodeId u = 0; u < n; ++u) {
    const NodeId center = clustering.center_of[u];
    const NodeId cu = center < n ? index_of_center[center] : kInvalidNode;
    out.cluster_of_node[u] = cu;
    orphan = orphan || cu == kInvalidNode;
  }
  if (orphan) {
    throw std::invalid_argument("build_quotient: node outside every cluster");
  }

  // Members grouped by cluster (counting sort, ascending ids per cluster).
  std::vector<NodeId> member_start(static_cast<std::size_t>(k) + 1, 0);
  for (NodeId u = 0; u < n; ++u) ++member_start[out.cluster_of_node[u] + 1];
  for (NodeId c = 0; c < k; ++c) member_start[c + 1] += member_start[c];
  std::vector<NodeId> members(n);
  {
    std::vector<NodeId> cursor(member_start.begin(), member_start.end() - 1);
    for (NodeId u = 0; u < n; ++u) {
      members[cursor[out.cluster_of_node[u]]++] = u;
    }
  }

  // Cluster-major rows: row c of G_C is the set of clusters its members'
  // arcs reach, each at the minimum cut weight w(u,v) + d_u + d_v (the
  // paper's parallel-edge rule). A counting pass sizes the rows (and takes
  // the radii), a prefix sum places them, a fill pass writes them sorted.
  // Each row is a pure function of its cluster, so the CSR arrays do not
  // depend on the schedule. Both arcs of a cut edge compute the same weight:
  // the CSR stores symmetric weights, and the d-terms are added in id order.
  const NodeId* cluster_of = out.cluster_of_node.data();
  const Weight* d = clustering.dist_to_center.data();
  out.cluster_radius.assign(k, 0.0);
  std::vector<EdgeIndex> offsets(static_cast<std::size_t>(k) + 1, 0);
  std::vector<NodeId> targets;
  std::vector<Weight> weights;
  bool bad_weight = false;
#pragma omp parallel reduction(|| : bad_weight)
  {
    // Per-thread dense scratch: stamp[x] == c marks cluster x as already in
    // row c's touched list, so nothing is cleared between rows.
    std::vector<Weight> best(k);
    std::vector<NodeId> stamp(k, kInvalidNode);
    std::vector<NodeId> touched;
    const auto scan_row = [&](NodeId c, bool weigh) {
      touched.clear();
      for (NodeId i = member_start[c]; i < member_start[c + 1]; ++i) {
        const NodeId u = members[i];
        const auto nbr = g.neighbors(u);
        const auto wts = g.weights(u);
        for (std::size_t j = 0; j < nbr.size(); ++j) {
          const NodeId v = nbr[j];
          const NodeId cv = cluster_of[v];
          if (cv == c) continue;  // intra-cluster edges vanish
          if (stamp[cv] != c) {
            stamp[cv] = c;
            touched.push_back(cv);
            best[cv] = kInfiniteWeight;
          }
          if (!weigh) continue;
          const Weight w = wts[j] + d[std::min(u, v)] + d[std::max(u, v)];
          bad_weight = bad_weight || !(w > 0.0) || !std::isfinite(w);
          best[cv] = std::min(best[cv], w);
        }
      }
    };

#pragma omp for schedule(dynamic, 16)
    for (NodeId c = 0; c < k; ++c) {
      scan_row(c, false);
      offsets[c + 1] = touched.size();
      Weight r = 0.0;
      for (NodeId i = member_start[c]; i < member_start[c + 1]; ++i) {
        r = std::max(r, d[members[i]]);
      }
      out.cluster_radius[c] = r;
    }
#pragma omp single
    {
      for (NodeId c = 0; c < k; ++c) offsets[c + 1] += offsets[c];
      targets.resize(offsets[k]);
      weights.resize(offsets[k]);
    }
    std::fill(stamp.begin(), stamp.end(), kInvalidNode);
#pragma omp for schedule(dynamic, 16)
    for (NodeId c = 0; c < k; ++c) {
      scan_row(c, true);
      std::sort(touched.begin(), touched.end());
      for (std::size_t i = 0; i < touched.size(); ++i) {
        targets[offsets[c] + i] = touched[i];
        weights[offsets[c] + i] = best[touched[i]];
      }
    }
  }
  if (bad_weight) {
    throw std::invalid_argument(
        "build_quotient: cut weight must be positive and finite");
  }
  out.graph = Graph(std::move(offsets), std::move(targets), std::move(weights));
  return out;
}

QuotientDiametersResult quotient_diameters(
    const QuotientGraph& quotient, const QuotientDiameterOptions& opts) {
  QuotientDiametersResult out;
  const Graph& q = quotient.graph;
  const NodeId k = q.num_nodes();
  if (k == 0) return out;
  const std::vector<Weight>& radius = quotient.cluster_radius;

  // Intra-cluster pairs: dist(u, v) ≤ 2·r(C).
  for (const Weight r : radius) out.augmented = std::max(out.augmented, 2.0 * r);

  // One Dijkstra feeds both metrics: plain eccentricity and the
  // radius-augmented eccentricity (max_j dist + r_j, plus r_c).
  struct Ecc {
    Weight plain = 0.0;
    Weight augmented = 0.0;
    NodeId far = 0;  // argmax in the augmented metric (sweep continuation)
  };
  auto both_ecc = [&](NodeId c) {
    const auto dist = sssp::dijkstra_distances(q, c);
    Ecc e;
    e.far = c;
    Weight aug_ecc = 0.0;
    for (NodeId j = 0; j < k; ++j) {
      if (dist[j] == kInfiniteWeight) continue;
      e.plain = std::max(e.plain, dist[j]);
      const Weight v = dist[j] + radius[j];
      if (v > aug_ecc) {
        aug_ecc = v;
        e.far = j;
      }
    }
    e.augmented = aug_ecc + radius[c];
    return e;
  };

  Weight plain = 0.0, augmented = out.augmented;
  if (k <= opts.exact_threshold) {
#pragma omp parallel for schedule(dynamic, 16) \
    reduction(max : plain, augmented)
    for (NodeId c = 0; c < k; ++c) {
      const Ecc e = both_ecc(c);
      plain = std::max(plain, e.plain);
      augmented = std::max(augmented, e.augmented);
    }
    out.plain = plain;
    out.augmented = augmented;
    out.exact = true;
    return out;
  }

  // Large quotient: iterated sweeps (augmented metric drives the farthest
  // hop), restarting from several seeds so disconnected quotients are
  // probed too. The seeds are drawn up front in stream order; the restart
  // chains are independent and max is exact, so running them concurrently
  // gives the serial loop's result at any thread count.
  util::Xoshiro256 rng(opts.seed);
  std::vector<NodeId> seeds(std::max(1u, opts.restarts));
  for (NodeId& s : seeds) s = static_cast<NodeId>(rng.next_bounded(k));
  const unsigned sweeps = std::max(1u, opts.sweeps);
#pragma omp parallel for schedule(dynamic, 1) \
    reduction(max : plain, augmented)
  for (std::size_t r = 0; r < seeds.size(); ++r) {
    NodeId source = seeds[r];
    std::vector<NodeId> visited;
    for (unsigned s = 0; s < sweeps; ++s) {
      if (std::find(visited.begin(), visited.end(), source) != visited.end()) {
        break;
      }
      visited.push_back(source);
      const Ecc e = both_ecc(source);
      plain = std::max(plain, e.plain);
      augmented = std::max(augmented, e.augmented);
      source = e.far;
    }
  }
  out.plain = plain;
  out.augmented = augmented;
  out.exact = false;
  return out;
}

}  // namespace gdiam::core
