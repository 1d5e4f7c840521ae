// Using the decomposition as a primitive in its own right.
//
// CLUSTER(G, τ) is useful beyond diameter estimation: it partitions a
// weighted graph into low-radius clusters in few parallel rounds (graph
// sparsification, sharding, landmark selection...). This example decomposes
// a road network at several granularities and reports cluster-size and
// radius distributions, then materializes the quotient graph and saves it.
//
// Usage:
//   decomposition [--side 150] [--tau 16] [--out quotient.gcsr]

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "gdiam.hpp"

namespace {

using namespace gdiam;

void describe(const Graph& g, const core::Clustering& c) {
  // Cluster size histogram.
  std::vector<NodeId> size_of(c.num_clusters(), 0);
  std::vector<NodeId> index_of(g.num_nodes(), kInvalidNode);
  for (NodeId i = 0; i < c.num_clusters(); ++i) index_of[c.centers[i]] = i;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    size_of[index_of[c.center_of[u]]]++;
  }
  std::sort(size_of.rbegin(), size_of.rend());

  const NodeId singletons = static_cast<NodeId>(
      std::count(size_of.begin(), size_of.end(), NodeId{1}));
  double mean_dist = 0.0;
  for (const Weight d : c.dist_to_center) mean_dist += d;
  mean_dist /= g.num_nodes();

  std::printf("  clusters:        %u (largest %u, median %u, singletons %u)\n",
              c.num_clusters(), size_of.front(),
              size_of[size_of.size() / 2], singletons);
  std::printf("  radius:          %.1f (mean node-to-center distance %.1f)\n",
              c.radius, mean_dist);
  std::printf("  final Delta:     %.1f after %u stages\n", c.delta_end,
              c.stages);
  std::printf("  MR cost:         %s\n", mr::to_string(c.stats).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gdiam;
  const util::Options opts(argc, argv);
  const auto side = static_cast<NodeId>(opts.get_int("side", 150));

  util::Xoshiro256 rng(21);
  const Graph g = gen::road_network(side, side, rng);
  std::printf("road network: n=%u m=%llu\n\n", g.num_nodes(),
              static_cast<unsigned long long>(g.num_edges()));

  // One exec::Context for the whole granularity sweep: every CLUSTER call
  // below reuses the same pooled growing engine, and any Δ-presplit the
  // doubling search builds is shared across the tau values. The
  // decompositions are identical to context-free calls.
  exec::Context ctx;

  // Sweep granularities: radius and rounds shrink as tau grows.
  for (const std::uint32_t tau : {2u, 16u, 128u}) {
    std::printf("CLUSTER(G, tau=%u):\n", tau);
    core::ClusterOptions o;
    o.tau = tau;
    o.seed = 5;
    describe(g, core::cluster(g, o, &ctx));
    std::printf("\n");
  }

  // Materialize the quotient of the user-chosen granularity and persist it:
  // a compressed summary of the network usable by downstream tooling.
  core::ClusterOptions o;
  o.tau = static_cast<std::uint32_t>(opts.get_int("tau", 16));
  o.seed = 5;
  const core::Clustering c = core::cluster(g, o, &ctx);
  const core::QuotientGraph q = core::build_quotient(g, c, &ctx);
  std::printf("quotient at tau=%u: %u nodes, %llu edges (%.1f%% of input)\n",
              o.tau, q.graph.num_nodes(),
              static_cast<unsigned long long>(q.graph.num_edges()),
              100.0 * q.graph.num_edges() / g.num_edges());

  const std::string out = opts.get_string("out", "");
  if (!out.empty()) {
    io::write_gcsr(q.graph, out);
    std::printf("quotient graph written to %s\n", out.c_str());
  }
  return 0;
}
