// Figure 5* (ours, beyond the paper) — communication volume versus number of
// partitions K. The paper's MR analysis counts rounds and work; the
// partitioned BSP engine additionally measures what the flat kernels cannot:
// the *actual* cross-partition messages and bytes a sharded deployment
// shuffles per run. This bench sweeps K for CLUSTER (Δ-growing on the BSP
// engine) and Δ-stepping on a mesh (high diameter, good locality) and an
// R-MAT giant component (low diameter, no locality), and contrasts the hash
// and range partitioners at a fixed K.
//
// Expected shape: rounds and work are K-invariant (the engine is BSP-
// synchronous, so K only moves *where* relaxations run); cross traffic is 0
// at K=1 and grows toward the hash partitioner's edge-cut ceiling
// (1 - 1/K of all messages) as K rises, while range partitioning keeps a
// mesh's cut — and so its traffic — far lower.

#include <cstdio>
#include <iostream>
#include <string>
#include <utility>

#include "comparison_common.hpp"
#include "core/cluster.hpp"
#include "gen/mesh.hpp"
#include "gen/rmat.hpp"
#include "gen/weights.hpp"
#include "graph/components.hpp"
#include "mr/bsp_engine.hpp"
#include "sssp/delta_stepping.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"
#include "util/scale.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace gdiam;

namespace {

struct Instance {
  std::string name;
  Graph graph;
};

std::vector<Instance> build_suite(util::Scale scale) {
  const auto side = util::pick<NodeId>(scale, 48, 128, 512);
  const auto rmat_scale = util::pick<unsigned>(scale, 10, 14, 18);
  util::Xoshiro256 rng(7);
  std::vector<Instance> out;
  out.push_back({"mesh", gen::uniform_weights(gen::mesh(side), 7)});
  Graph r = gen::rmat(rmat_scale, 8, rng);
  out.push_back(
      {"rmat", gen::uniform_weights(largest_component(r).graph, 7)});
  return out;
}

mr::RoundStats run_cluster(const Graph& g, std::uint32_t k,
                           mr::PartitionStrategy strategy,
                           std::vector<NodeId>* labels,
                           const mr::TransportOptions& transport = {}) {
  core::ClusterOptions opt;
  opt.tau = core::tau_for_cluster_target(g.num_nodes(), g.num_nodes() / 4);
  opt.policy = core::GrowingPolicy::kPartitioned;
  opt.partition.num_partitions = k;
  opt.partition.strategy = strategy;
  opt.transport = transport;
  const core::Clustering c = core::cluster(g, opt);
  if (labels != nullptr) *labels = c.center_of;
  return c.stats;
}

mr::RoundStats run_sssp(const Graph& g, std::uint32_t k,
                        mr::PartitionStrategy strategy,
                        const mr::TransportOptions& transport = {},
                        std::vector<Weight>* dist = nullptr) {
  sssp::DeltaSteppingOptions opt;
  opt.partition.num_partitions = k;
  opt.partition.strategy = strategy;
  opt.transport = transport;
  sssp::DeltaSteppingResult r = sssp::delta_stepping(g, 0, opt);
  if (dist != nullptr) *dist = std::move(r.dist);
  return r.stats;
}

void add_row(util::Table& t, const std::string& graph, const char* algo,
             std::uint32_t k, const mr::RoundStats& s, bool labels_match) {
  const double frac =
      s.messages == 0 ? 0.0
                      : static_cast<double>(s.cross_messages) /
                            static_cast<double>(s.messages);
  t.row()
      .cell(graph)
      .cell(algo)
      .count(k)
      .count(s.rounds())
      .sci(static_cast<double>(s.work()))
      .sci(static_cast<double>(s.cross_messages))
      .sci(static_cast<double>(s.cross_bytes))
      .num(100.0 * frac, 1)
      .cell(labels_match ? "yes" : "NO");
}

}  // namespace

int main(int argc, char** argv) {
  const util::Options opts(argc, argv);
  const util::Scale scale =
      opts.has("scale") ? util::parse_scale(opts.get_string("scale", "ci"))
                        : util::scale_from_env();
  bench::print_preamble("fig5_partitions: cross-partition traffic vs K",
                        "Figure 5* (ours)", scale);

  const std::vector<std::uint32_t> ks{1, 2, 4, 8, 16};
  util::Table table({"graph", "algo", "K", "rounds", "work", "cross msgs",
                     "cross bytes", "cross %", "exact"});

  const std::vector<Instance> suite = build_suite(scale);
  for (const auto& inst : suite) {
    {
      mr::Partition p(inst.graph,
                      {.num_partitions = 8,
                       .strategy = mr::PartitionStrategy::kHash});
      std::printf("%s: n=%u m=%llu; %s\n", inst.name.c_str(),
                  inst.graph.num_nodes(),
                  static_cast<unsigned long long>(inst.graph.num_edges()),
                  mr::describe(p).c_str());
    }
    std::vector<NodeId> reference;  // K=1 labels: the exactness baseline
    for (const std::uint32_t k : ks) {
      std::vector<NodeId> labels;
      const mr::RoundStats cl =
          run_cluster(inst.graph, k, mr::PartitionStrategy::kHash, &labels);
      if (k == 1) reference = labels;
      add_row(table, inst.name, "CLUSTER", k, cl, labels == reference);
      const mr::RoundStats ds =
          run_sssp(inst.graph, k, mr::PartitionStrategy::kHash);
      add_row(table, inst.name, "Δ-step", k, ds, true);
    }
  }
  table.print(std::cout);

  // Hash vs range at fixed K: the partitioner is the whole ballgame for
  // locality-rich graphs.
  std::printf("\nhash vs range partitioner (K=8):\n");
  util::Table cut({"graph", "algo", "partitioner", "cross msgs", "cross %"});
  for (const auto& inst : suite) {
    for (const auto strategy :
         {mr::PartitionStrategy::kHash, mr::PartitionStrategy::kRange}) {
      const char* sname =
          strategy == mr::PartitionStrategy::kHash ? "hash" : "range";
      const mr::RoundStats stats_by_algo[2] = {
          run_cluster(inst.graph, 8, strategy, nullptr),
          run_sssp(inst.graph, 8, strategy)};
      const char* algo_names[2] = {"CLUSTER", "Δ-step"};
      for (int a = 0; a < 2; ++a) {
        const mr::RoundStats& s = stats_by_algo[a];
        const double frac =
            s.messages == 0 ? 0.0
                            : 100.0 * static_cast<double>(s.cross_messages) /
                                  static_cast<double>(s.messages);
        cut.row()
            .cell(inst.name)
            .cell(algo_names[a])
            .cell(sname)
            .sci(static_cast<double>(s.cross_messages))
            .num(frac, 1);
      }
    }
  }
  cut.print(std::cout);

  // Local vs pool transport at fixed K (DESIGN.md §9): the same
  // supersteps, compute fanned out over resident forked workers exchanging
  // messages over Unix-domain sockets. Model-level counters and results must
  // match bit-for-bit; the wire columns and the wall clock show what the
  // process boundary actually costs (λ per superstep: ship inputs +
  // serialize + read back, plus a fork wave per new Δ).
  std::printf("\nlocal vs pool transport (K=4, P=2):\n");
  util::Table ab({"graph", "algo", "transport", "wall", "wire msgs",
                  "wire bytes", "exact"});
  for (const auto& inst : suite) {
    for (const char* algo : {"CLUSTER", "Δ-step"}) {
      std::vector<NodeId> ref_labels, labels;
      std::vector<Weight> ref_dist, dist;
      for (const auto kind :
           {mr::TransportKind::kLocal, mr::TransportKind::kPool}) {
        const mr::TransportOptions transport{.kind = kind, .processes = 2};
        const bool is_local = kind == mr::TransportKind::kLocal;
        util::Timer t;
        mr::RoundStats s;
        bool exact;
        if (std::string(algo) == "CLUSTER") {
          s = run_cluster(inst.graph, 4, mr::PartitionStrategy::kHash,
                          &labels, transport);
          if (is_local) ref_labels = labels;
          exact = labels == ref_labels;
        } else {
          s = run_sssp(inst.graph, 4, mr::PartitionStrategy::kHash,
                       transport, &dist);
          if (is_local) ref_dist = dist;
          exact = dist == ref_dist;
        }
        ab.row()
            .cell(inst.name)
            .cell(algo)
            .cell(is_local ? "local" : "pool")
            .cell(util::format_duration(t.seconds()))
            .sci(static_cast<double>(s.wire_messages))
            .sci(static_cast<double>(s.wire_bytes))
            .cell(exact ? "yes" : "NO");
      }
    }
  }
  ab.print(std::cout);

  std::printf(
      "\nexpected shape: cross traffic is exactly 0 at K=1, approaches the\n"
      "hash edge-cut ceiling (1-1/K of messages) as K grows, and range\n"
      "partitioning cuts it by an order of magnitude on the mesh; labels\n"
      "stay bit-identical to the flat engine at every K — and to the\n"
      "pool transport, whose wire columns are nonzero (the price tag\n"
      "the paper's round-efficiency thesis is about).\n");
  return 0;
}
