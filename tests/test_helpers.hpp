#pragma once
// Shared fixtures for the gdiam test suite: small-graph factories with known
// answers, a brute-force APSP reference, and serial references for the
// Δ-growing step, CLUSTER and Δ-stepping that the parity suites compare
// against.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/cluster.hpp"
#include "core/growing.hpp"
#include "core/labels.hpp"
#include "gen/basic.hpp"
#include "gen/mesh.hpp"
#include "gen/rmat.hpp"
#include "gen/weights.hpp"
#include "graph/builder.hpp"
#include "graph/components.hpp"
#include "graph/graph.hpp"
#include "mr/partition.hpp"
#include "mr/stats.hpp"
#include "sssp/delta_stepping.hpp"
#include "sssp/dijkstra.hpp"
#include "util/rng.hpp"

namespace gdiam::test {

/// Materializes a span as a vector so EXPECT_EQ can compare (and pretty-
/// print) the CSR accessors, which hand out spans.
template <typename T>
std::vector<T> vec(std::span<const T> s) {
  return {s.begin(), s.end()};
}

/// Floyd–Warshall APSP; O(n³), for n up to a few hundred.
inline std::vector<std::vector<Weight>> brute_force_apsp(const Graph& g) {
  const NodeId n = g.num_nodes();
  std::vector<std::vector<Weight>> d(n,
                                     std::vector<Weight>(n, kInfiniteWeight));
  for (NodeId u = 0; u < n; ++u) {
    d[u][u] = 0.0;
    const auto nbr = g.neighbors(u);
    const auto wts = g.weights(u);
    for (std::size_t i = 0; i < nbr.size(); ++i) {
      d[u][nbr[i]] = std::min(d[u][nbr[i]], wts[i]);
    }
  }
  for (NodeId k = 0; k < n; ++k) {
    for (NodeId i = 0; i < n; ++i) {
      if (d[i][k] == kInfiniteWeight) continue;
      for (NodeId j = 0; j < n; ++j) {
        if (d[k][j] == kInfiniteWeight) continue;
        d[i][j] = std::min(d[i][j], d[i][k] + d[k][j]);
      }
    }
  }
  return d;
}

/// Largest finite entry of a brute-force APSP matrix (diameter).
inline Weight brute_force_diameter(const Graph& g) {
  const auto d = brute_force_apsp(g);
  Weight diam = 0.0;
  for (const auto& row : d) {
    for (const Weight x : row) {
      if (x != kInfiniteWeight) diam = std::max(diam, x);
    }
  }
  return diam;
}

/// Named families of small random connected weighted graphs for
/// parameterized property sweeps.
enum class Family {
  kTreePlusChords,
  kMeshUniform,
  kGnmUniform,
  kRmatGiant,
  kPathHeavyTail,
};

inline const char* family_name(Family f) {
  switch (f) {
    case Family::kTreePlusChords: return "tree_plus_chords";
    case Family::kMeshUniform: return "mesh_uniform";
    case Family::kGnmUniform: return "gnm_uniform";
    case Family::kRmatGiant: return "rmat_giant";
    case Family::kPathHeavyTail: return "path_heavy_tail";
  }
  return "?";
}

/// Builds a connected weighted instance of roughly `n` nodes.
inline Graph make_family(Family f, NodeId n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  switch (f) {
    case Family::kTreePlusChords: {
      Graph tree = gen::random_tree(n, rng);
      EdgeList edges = to_edge_list(tree);
      const EdgeIndex extra = n / 2;
      for (EdgeIndex i = 0; i < extra; ++i) {
        const auto u = static_cast<NodeId>(rng.next_bounded(n));
        const auto v = static_cast<NodeId>(rng.next_bounded(n));
        if (u != v) edges.push_back(Edge{u, v, 1.0});
      }
      return gen::uniform_weights(build_graph(n, edges), seed ^ 0xabcd);
    }
    case Family::kMeshUniform: {
      const auto side = static_cast<NodeId>(
          std::max(2.0, std::floor(std::sqrt(static_cast<double>(n)))));
      return gen::uniform_weights(gen::mesh(side), seed ^ 0xabcd);
    }
    case Family::kGnmUniform:
      return gen::uniform_weights(
          gen::gnm(n, static_cast<EdgeIndex>(n) * 3, rng,
                   /*ensure_connected=*/true),
          seed ^ 0xabcd);
    case Family::kRmatGiant: {
      unsigned scale = 1;
      while ((NodeId{1} << scale) < n) ++scale;
      Graph r = gen::rmat(scale, 8, rng);
      return gen::uniform_weights(largest_component(r).graph, seed ^ 0xabcd);
    }
    case Family::kPathHeavyTail: {
      // A path with occasional very heavy edges: stresses the light-edge
      // logic (ℓ_Δ large, weights spanning six orders of magnitude).
      GraphBuilder b(n);
      for (NodeId u = 0; u + 1 < n; ++u) {
        const Weight w = rng.next_bernoulli(0.1) ? 1e6 : 1.0 + rng.next_double();
        b.add_edge(u, u + 1, w);
      }
      return b.build();
    }
  }
  return Graph{};
}

inline std::vector<Family> all_families() {
  return {Family::kTreePlusChords, Family::kMeshUniform, Family::kGnmUniform,
          Family::kRmatGiant, Family::kPathHeavyTail};
}

// ---------------------------------------------------------------------------
// Serial references. Single-threaded loops over each node's full adjacency
// with the light/heavy weight test as a branch, no Frontier and no presplit
// layout: the round semantics every frontier representation, adjacency
// layout, policy and transport must reproduce bit-for-bit, counters
// included. Cross counters classify a message by Partition::owner of its
// two endpoints, which is where the BSP backends route it.

/// The shard layout the partitioned kernels build for `popts` (a pure
/// function of graph and options), or null for the flat kernels (K ≤ 1).
inline std::unique_ptr<mr::Partition> shards_for(
    const Graph& g, const mr::PartitionOptions& popts) {
  if (popts.num_partitions <= 1 || g.num_nodes() == 0) return nullptr;
  return std::make_unique<mr::Partition>(g, popts);
}

/// Δ-growing state stepped by reference_growing_step: labels, the blocked
/// (contracted) set, and the senders of the next step.
struct GrowingReference {
  std::vector<core::PackedLabel> labels;
  std::vector<std::uint8_t> blocked;
  std::vector<std::uint8_t> senders;

  explicit GrowingReference(NodeId n)
      : labels(n, core::kUnassignedLabel), blocked(n, 0), senders(n, 0) {}

  void set_source(NodeId u, NodeId center, Weight dist = 0.0) {
    labels[u] = core::pack_label(static_cast<float>(dist), center);
  }
  void block(NodeId u) { blocked[u] = 1; }
  /// GrowingEngine::rebuild_frontier: every labeled node proposes again
  /// (one beyond its budget proposes nothing, so the params are not needed).
  void rebuild_frontier(const core::GrowingStepParams& /*params*/ = {}) {
    for (std::size_t u = 0; u < labels.size(); ++u) {
      senders[u] = core::label_assigned(labels[u]) ? 1 : 0;
    }
  }
};

/// One synchronous Δ-growing step: every sender whose label is within its
/// center's budget proposes d_u + w over each light edge that stays within
/// the budget to each unblocked neighbor; each node keeps the minimum of its
/// label and its proposals. Nodes whose label changed send next step.
inline core::GrowingStepResult reference_growing_step(
    const Graph& g, GrowingReference& st, const core::GrowingStepParams& params,
    const mr::Partition* part = nullptr) {
  core::GrowingStepResult out;
  const NodeId n = g.num_nodes();
  std::vector<core::PackedLabel> next = st.labels;
  for (NodeId u = 0; u < n; ++u) {
    if (!st.senders[u]) continue;
    const core::PackedLabel lab = st.labels[u];
    if (!core::label_assigned(lab)) continue;
    const float b = core::label_dist(lab);
    const NodeId c = core::label_center(lab);
    const Weight budget = params.center_budget == nullptr
                              ? params.uniform_budget
                              : (*params.center_budget)[c];
    if (!(static_cast<Weight>(b) < budget)) continue;
    const auto nbr = g.neighbors(u);
    const auto wts = g.weights(u);
    for (std::size_t i = 0; i < nbr.size(); ++i) {
      const Weight w = wts[i];
      if (w > params.light_threshold) continue;
      const Weight nb = static_cast<Weight>(b) + w;
      if (nb > budget) continue;
      const NodeId v = nbr[i];
      if (st.blocked[v]) continue;
      ++out.messages;
      if (part != nullptr && part->owner(u) != part->owner(v)) {
        ++out.cross_messages;
        out.cross_bytes += sizeof(core::LabelProposal);
      }
      next[v] = std::min(next[v], core::pack_label(static_cast<float>(nb), c));
    }
  }
  for (NodeId v = 0; v < n; ++v) {
    st.senders[v] = next[v] != st.labels[v] ? 1 : 0;
    if (st.senders[v] == 0) continue;
    ++out.updates;
    if (st.labels[v] == core::kUnassignedLabel) ++out.newly_labeled;
  }
  st.labels.swap(next);
  return out;
}

/// A kernel step's model counters against the reference step's.
inline void expect_step_matches(const core::GrowingStepResult& got,
                                const core::GrowingStepResult& want) {
  EXPECT_EQ(got.messages, want.messages);
  EXPECT_EQ(got.updates, want.updates);
  EXPECT_EQ(got.newly_labeled, want.newly_labeled);
  EXPECT_EQ(got.cross_messages, want.cross_messages);
  EXPECT_EQ(got.cross_bytes, want.cross_bytes);
}

/// Steps `engine` and `ref` in lockstep under `params` until the reference
/// reaches its fixpoint or `max_steps` ran, comparing every step's counters
/// and the labels after it; cross traffic is classified by the engine's own
/// shard layout. Every step must be classified sparse or dense. Returns the
/// engine's counters summed over the steps.
inline core::GrowingStepResult step_against_reference(
    const Graph& g, core::GrowingEngine& engine, GrowingReference& ref,
    const core::GrowingStepParams& params, int max_steps) {
  core::GrowingStepResult total;
  for (int step = 0; step < max_steps; ++step) {
    SCOPED_TRACE(testing::Message()
                 << "policy " << static_cast<int>(engine.policy()) << " step "
                 << step);
    const core::GrowingStepResult got = engine.step(params);
    const core::GrowingStepResult want =
        reference_growing_step(g, ref, params, engine.partition());
    expect_step_matches(got, want);
    EXPECT_EQ(engine.labels(), ref.labels);
    EXPECT_EQ(got.sparse_rounds + got.dense_rounds, 1u);
    if (testing::Test::HasFailure()) break;
    total.sparse_rounds += got.sparse_rounds;
    total.dense_rounds += got.dense_rounds;
    total.wire_bytes += got.wire_bytes;
    if (want.updates == 0) break;
  }
  return total;
}

/// What reference_cluster computes: the clustering, and how many nodes took
/// label_chain_bound's fallback instead of a finalized same-cluster
/// neighbor during contraction (so a test can show that path is exercised).
struct ClusterReference {
  core::Clustering clustering;
  std::uint64_t fallbacks = 0;
  /// Relaxation rounds of each stage, in stage order (a crash test aims a
  /// fault at the first step of a stage, the one after a contraction).
  std::vector<std::uint64_t> stage_rounds;
};

/// CLUSTER's contraction as one serial global sweep: every uncovered node
/// with a stage label, by increasing (float label, id). A node's distance is
/// the best dist(u) + w over neighbors u already covered into the same
/// cluster (in an earlier stage or earlier in this sweep); with none, it is
/// label_chain_bound over the cluster's boundary offset. Afterwards each
/// offset rises to its cluster's farthest new member.
inline std::uint64_t reference_contract(const Graph& g, GrowingReference& st,
                                        std::vector<Weight>& offset,
                                        std::uint64_t steps,
                                        core::Clustering& out,
                                        NodeId& uncovered) {
  const NodeId n = g.num_nodes();
  std::vector<NodeId> wave;
  for (NodeId u = 0; u < n; ++u) {
    if (!st.blocked[u] && core::label_assigned(st.labels[u])) wave.push_back(u);
  }
  std::sort(wave.begin(), wave.end(), [&](NodeId a, NodeId b) {
    const float da = core::label_dist(st.labels[a]);
    const float db = core::label_dist(st.labels[b]);
    if (da != db) return da < db;
    return a < b;
  });
  std::uint64_t fallbacks = 0;
  for (const NodeId v : wave) {
    const NodeId c = core::label_center(st.labels[v]);
    const float bv = core::label_dist(st.labels[v]);
    Weight best = kInfiniteWeight;
    if (bv == 0.0f) {
      best = 0.0;
    } else {
      const auto nbr = g.neighbors(v);
      const auto wts = g.weights(v);
      for (std::size_t i = 0; i < nbr.size(); ++i) {
        const NodeId u = nbr[i];
        if (st.blocked[u] && out.center_of[u] == c &&
            out.dist_to_center[u] != kInfiniteWeight) {
          best = std::min(best, out.dist_to_center[u] + wts[i]);
        }
      }
      if (best == kInfiniteWeight) {
        best = core::label_chain_bound(offset[c], bv, steps);
        ++fallbacks;
      }
    }
    st.block(v);
    out.center_of[v] = c;
    out.dist_to_center[v] = best;
  }
  for (const NodeId v : wave) {
    offset[out.center_of[v]] =
        std::max(offset[out.center_of[v]], out.dist_to_center[v]);
  }
  uncovered -= static_cast<NodeId>(wave.size());
  return fallbacks;
}

/// CLUSTER(G, τ), serially (core/cluster.cpp): the same center draws, the
/// Δ-doubling growth on reference_growing_step with the same coverage stop
/// and step cap, reference_contract, then singletons, centers and radius.
/// Cross counters are classified by `part`, as in reference_growing_step;
/// the sparse/dense and wire counters describe an execution and stay zero.
inline ClusterReference reference_cluster(const Graph& g,
                                          const core::ClusterOptions& opts,
                                          const mr::Partition* part = nullptr) {
  const NodeId n = g.num_nodes();
  ClusterReference ref;
  core::Clustering& out = ref.clustering;
  out.center_of.assign(n, kInvalidNode);
  out.dist_to_center.assign(n, kInfiniteWeight);
  if (n == 0) return ref;

  GrowingReference st(n);
  std::vector<Weight> offset(n, 0.0);
  NodeId uncovered = n;
  const double logn = std::max(1.0, std::log2(static_cast<double>(n)));
  const double stop_threshold =
      opts.stop_factor * static_cast<double>(opts.tau) * logn;
  const Weight max_useful_delta =
      std::max(1.0, static_cast<Weight>(n) * std::max(1.0, g.max_weight()));
  Weight delta = 1.0;
  switch (opts.delta_init) {
    case core::DeltaInit::kMinWeight:
      delta = g.min_weight() > 0.0 ? g.min_weight() : 1.0;
      break;
    case core::DeltaInit::kFixed: delta = opts.delta_fixed; break;
    case core::DeltaInit::kAverageWeight:
      delta = g.avg_weight() > 0.0 ? g.avg_weight() : 1.0;
      break;
  }
  util::Xoshiro256 rng(opts.seed);

  while (static_cast<double>(uncovered) >= stop_threshold && uncovered > 0) {
    out.stages++;
    out.stats.auxiliary_rounds++;
    // Center selection.
    const double p = std::min(1.0, opts.gamma * static_cast<double>(opts.tau) *
                                       logn / static_cast<double>(uncovered));
    std::fill(st.labels.begin(), st.labels.end(), core::kUnassignedLabel);
    std::vector<NodeId> centers;
    for (NodeId u = 0; u < n; ++u) {
      if (!st.blocked[u] && rng.next_bernoulli(p)) centers.push_back(u);
    }
    if (centers.empty()) {
      std::uint64_t skip = rng.next_bounded(uncovered);
      for (NodeId u = 0; u < n; ++u) {
        if (!st.blocked[u] && skip-- == 0) {
          centers.push_back(u);
          break;
        }
      }
    }
    for (NodeId u = 0; u < n; ++u) {
      if (st.blocked[u]) st.set_source(u, out.center_of[u]);
    }
    for (const NodeId c : centers) st.set_source(c, c);

    // Growth with doubling Δ.
    const auto target = static_cast<std::uint64_t>((uncovered + 1) / 2);
    std::uint64_t labeled = centers.size();
    std::uint64_t stage_steps = 0;
    while (true) {
      core::GrowingStepParams params;
      params.light_threshold = delta;
      params.uniform_budget = delta;
      st.rebuild_frontier();
      std::uint64_t steps = 0, newly = 0;
      bool fixpoint = false;
      while (opts.max_steps_per_growth == 0 ||
             steps < opts.max_steps_per_growth) {
        const core::GrowingStepResult r =
            reference_growing_step(g, st, params, part);
        ++steps;
        ++stage_steps;
        out.stats.relaxation_rounds++;
        out.stats.messages += r.messages;
        out.stats.node_updates += r.updates;
        out.stats.cross_messages += r.cross_messages;
        out.stats.cross_bytes += r.cross_bytes;
        newly += r.newly_labeled;
        if (r.updates == 0) {
          fixpoint = true;
          break;
        }
        if (labeled + newly >= target) break;
      }
      const bool hit_cap = !fixpoint && opts.max_steps_per_growth != 0 &&
                           steps >= opts.max_steps_per_growth;
      labeled += newly;
      out.stats.auxiliary_rounds++;
      if (labeled >= target || hit_cap || delta >= max_useful_delta) break;
      delta *= 2.0;
    }

    // Contraction.
    out.stats.auxiliary_rounds++;
    ref.stage_rounds.push_back(stage_steps);
    ref.fallbacks +=
        reference_contract(g, st, offset, stage_steps, out, uncovered);
  }

  // Singletons, centers, radius.
  out.stats.auxiliary_rounds++;
  for (NodeId u = 0; u < n; ++u) {
    if (out.center_of[u] == kInvalidNode) {
      out.center_of[u] = u;
      out.dist_to_center[u] = 0.0;
    }
  }
  std::vector<std::uint8_t> is_center(n, 0);
  for (NodeId u = 0; u < n; ++u) is_center[out.center_of[u]] = 1;
  for (NodeId u = 0; u < n; ++u) {
    if (is_center[u]) out.centers.push_back(u);
  }
  for (NodeId u = 0; u < n; ++u) {
    out.radius = std::max(out.radius, out.dist_to_center[u]);
  }
  out.delta_end = delta;
  return ref;
}

/// A clustering against reference_cluster's: the assignment, the derived
/// centers/radius, Δ_end, the stage count and every model counter, bit for
/// bit. Each relaxation round must be classified sparse or dense.
inline void expect_cluster_matches(const core::Clustering& got,
                                   const core::Clustering& want) {
  EXPECT_EQ(got.center_of, want.center_of);
  EXPECT_EQ(got.dist_to_center, want.dist_to_center);
  EXPECT_EQ(got.centers, want.centers);
  EXPECT_EQ(got.radius, want.radius);
  EXPECT_EQ(got.delta_end, want.delta_end);
  EXPECT_EQ(got.stages, want.stages);
  EXPECT_EQ(got.stats.relaxation_rounds, want.stats.relaxation_rounds);
  EXPECT_EQ(got.stats.auxiliary_rounds, want.stats.auxiliary_rounds);
  EXPECT_EQ(got.stats.messages, want.stats.messages);
  EXPECT_EQ(got.stats.node_updates, want.stats.node_updates);
  EXPECT_EQ(got.stats.cross_messages, want.stats.cross_messages);
  EXPECT_EQ(got.stats.cross_bytes, want.stats.cross_bytes);
  EXPECT_EQ(got.stats.sparse_rounds + got.stats.dense_rounds,
            got.stats.relaxation_rounds);
}

/// dist_to_center upper-bounds the true distance to the assigned center —
/// the property that makes the quotient estimate conservative. Exact, with
/// no float slack: Dijkstra's double path sums are the yardstick.
inline void expect_distance_upper_bounds(const Graph& g,
                                         const core::Clustering& c) {
  const std::set<NodeId> centers(c.centers.begin(), c.centers.end());
  for (const NodeId ctr : centers) {
    const auto d = sssp::dijkstra_distances(g, ctr);
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      if (c.center_of[u] != ctr) continue;
      ASSERT_NE(d[u], kInfiniteWeight)
          << "cluster spans disconnected parts: " << u;
      EXPECT_GE(c.dist_to_center[u], d[u])
          << "node " << u << " center " << ctr;
    }
  }
}

/// What reference_delta_stepping computes: the distances, the outer step
/// count and the model counters of sssp::DeltaSteppingResult (the
/// sparse/dense and wire counters excepted — they describe an execution,
/// not the algorithm).
struct DeltaReference {
  std::vector<Weight> dist;
  Weight eccentricity = 0.0;
  NodeId farthest = kInvalidNode;
  std::uint64_t buckets_processed = 0;
  mr::RoundStats stats;
};

/// Meyer–Sanders Δ-stepping, serially: buckets by absolute index with one
/// queued marker per node (a node re-queued into the bucket it already sits
/// in is not added twice; draining forgets the marker), light phases until
/// the current bucket stays empty or `max_phases_per_bucket` fires, then one
/// heavy phase from every node settled in the bucket, unless Δ is at least
/// the heaviest edge weight (then there is no heavy arc and no heavy
/// phase). Each phase relaxes from distances snapshotted at phase start; a
/// node improved several times in one phase is one update. `delta` 0 picks
/// sssp::default_delta, as the kernel does (DeltaStepping.DefaultDelta* pin
/// that function itself).
inline DeltaReference reference_delta_stepping(
    const Graph& g, NodeId source, Weight delta = 0.0,
    const mr::Partition* part = nullptr,
    std::uint64_t max_phases_per_bucket = 0) {
  const NodeId n = g.num_nodes();
  if (delta <= 0.0) delta = sssp::default_delta(g);
  DeltaReference out;
  out.dist.assign(n, kInfiniteWeight);
  out.dist[source] = 0.0;
  auto bucket_of = [&](Weight d) { return static_cast<std::uint64_t>(d / delta); };

  constexpr std::uint64_t kNoBucket = ~0ULL;
  std::map<std::uint64_t, std::vector<NodeId>> buckets;
  std::vector<std::uint64_t> queued_in(n, kNoBucket);
  std::uint64_t queued = 0;
  auto push = [&](NodeId v, std::uint64_t b) {
    if (queued_in[v] == b) return;
    queued_in[v] = b;
    buckets[b].push_back(v);
    ++queued;
  };
  auto relax = [&](const std::vector<NodeId>& from, bool light) {
    ++out.stats.relaxation_rounds;
    std::vector<std::pair<NodeId, Weight>> snapshot;
    for (const NodeId v : from) snapshot.emplace_back(v, out.dist[v]);
    std::vector<NodeId> improved;
    std::vector<std::uint8_t> seen(n, 0);
    for (const auto& [u, du] : snapshot) {
      const auto nbr = g.neighbors(u);
      const auto wts = g.weights(u);
      for (std::size_t i = 0; i < nbr.size(); ++i) {
        const Weight w = wts[i];
        if ((w <= delta) != light) continue;
        const NodeId v = nbr[i];
        ++out.stats.messages;
        if (part != nullptr && part->owner(u) != part->owner(v)) {
          ++out.stats.cross_messages;
          out.stats.cross_bytes += sizeof(sssp::DistProposal);
        }
        if (du + w < out.dist[v]) {
          out.dist[v] = du + w;
          if (seen[v] == 0) {
            seen[v] = 1;
            improved.push_back(v);
          }
        }
      }
    }
    out.stats.node_updates += improved.size();
    return improved;
  };

  push(source, 0);
  std::uint64_t cur = 0;
  while (queued > 0) {
    ++out.stats.auxiliary_rounds;  // bucket selection
    const auto next = buckets.lower_bound(cur);
    if (next == buckets.end()) break;
    cur = next->first;

    std::vector<NodeId> settled;
    std::vector<std::uint8_t> is_settled(n, 0);
    std::uint64_t phases = 0;
    while (buckets.count(cur) != 0) {
      std::vector<NodeId> drained = std::move(buckets[cur]);
      buckets.erase(cur);
      queued -= drained.size();
      std::vector<NodeId> active;
      for (const NodeId v : drained) {
        queued_in[v] = kNoBucket;
        if (bucket_of(out.dist[v]) == cur) active.push_back(v);
      }
      if (active.empty()) break;
      for (const NodeId v : active) {
        if (is_settled[v] == 0) {
          is_settled[v] = 1;
          settled.push_back(v);
        }
      }
      for (const NodeId v : relax(active, /*light=*/true)) {
        const std::uint64_t b = bucket_of(out.dist[v]);
        if (b >= cur) push(v, b);
      }
      if (max_phases_per_bucket != 0 && ++phases >= max_phases_per_bucket) {
        break;
      }
    }
    if (delta < g.max_weight() && !settled.empty()) {  // else no heavy arc
      for (const NodeId v : relax(settled, /*light=*/false)) {
        push(v, bucket_of(out.dist[v]));
      }
    }
    ++out.buckets_processed;
    if (buckets.count(cur) == 0) ++cur;
  }

  out.farthest = source;
  for (NodeId u = 0; u < n; ++u) {
    if (out.dist[u] != kInfiniteWeight && out.dist[u] > out.eccentricity) {
      out.eccentricity = out.dist[u];
      out.farthest = u;
    }
  }
  return out;
}

/// A Δ-stepping run against the reference: distances, eccentricity,
/// farthest node, buckets and every model counter.
inline void expect_delta_matches(const sssp::DeltaSteppingResult& got,
                                 const DeltaReference& want) {
  EXPECT_EQ(got.dist, want.dist);
  EXPECT_EQ(got.eccentricity, want.eccentricity);
  EXPECT_EQ(got.farthest, want.farthest);
  EXPECT_EQ(got.buckets_processed, want.buckets_processed);
  EXPECT_EQ(got.stats.relaxation_rounds, want.stats.relaxation_rounds);
  EXPECT_EQ(got.stats.auxiliary_rounds, want.stats.auxiliary_rounds);
  EXPECT_EQ(got.stats.messages, want.stats.messages);
  EXPECT_EQ(got.stats.node_updates, want.stats.node_updates);
  EXPECT_EQ(got.stats.cross_messages, want.stats.cross_messages);
  EXPECT_EQ(got.stats.cross_bytes, want.stats.cross_bytes);
}

}  // namespace gdiam::test
