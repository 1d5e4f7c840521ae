// Figure 4 — strong scaling of CL-DIAM with the degree of parallelism.
// The paper scales Spark over 2..16 machines on R-MAT(26) and roads(3)
// (similar node counts, different topology); here the parallel resource is
// OpenMP threads.

#include <cstdio>
#include <iostream>
#include <vector>

#include "comparison_common.hpp"
#include "core/diameter.hpp"
#include "report.hpp"
#include "gen/product.hpp"
#include "gen/rmat.hpp"
#include "gen/road.hpp"
#include "gen/weights.hpp"
#include "graph/components.hpp"
#include "sssp/delta_stepping.hpp"
#include "util/options.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace gdiam;

namespace {

double time_cldiam(const Graph& g, std::uint64_t seed) {
  core::DiameterApproxOptions o;
  o.cluster.tau = core::tau_for_cluster_target(
      g.num_nodes(), bench::auto_quotient_target(g.num_nodes()));
  o.cluster.seed = seed;
  o.quotient.exact_threshold = 1024;
  util::Timer t;
  (void)core::approximate_diameter(g, o);
  return t.seconds();
}

// Whole-run Δ-stepping from a fixed source, timed at every thread count of
// the CL-DIAM sweep so the two curves compare at each parallelism level.
double time_sssp(const Graph& g) {
  util::Timer t;
  (void)sssp::delta_stepping(g, 0);
  return t.seconds();
}

}  // namespace

int main(int argc, char** argv) {
  const util::Options opts(argc, argv);
  const util::Scale scale = opts.has("scale")
                                ? util::parse_scale(opts.get_string("scale", "ci"))
                                : util::scale_from_env();
  bench::print_preamble("fig4_scalability: CL-DIAM time vs parallelism",
                        "Figure 4 (2..16 Spark machines -> OpenMP threads)",
                        scale);

  const int max_threads = static_cast<int>(opts.get_int(
      "max-threads", util::num_threads()));

  std::cerr << "  [building] R-MAT instance\n";
  util::Xoshiro256 rng(311);
  const unsigned rs = util::pick<unsigned>(scale, 17, 20, 26);
  const Graph rmat_g = gen::uniform_weights(
      largest_component(gen::rmat(rs, 16, rng)).graph, 313);

  std::cerr << "  [building] roads product instance\n";
  const NodeId copies = util::pick<NodeId>(scale, 3, 3, 3);
  const NodeId side = util::pick<NodeId>(scale, 200, 420, 2800);
  util::Xoshiro256 rng2(317);
  const Graph roads_g =
      gen::roads_product(copies, gen::road_network(side, side, rng2));

  util::Table table({"threads", "R-MAT time", "R-MAT speedup", "roads time",
                     "roads speedup", "roads DS"});
  double rmat_t1 = 0.0, roads_t1 = 0.0;
  std::vector<int> threads;
  for (int t = 1; t <= max_threads; t *= 2) threads.push_back(t);
  if (threads.empty() || threads.back() != max_threads) {
    threads.push_back(max_threads);
  }
  bench::JsonReport report("fig4_scalability");
  report.put("scale", util::scale_name(scale));
  report.put("max_threads", max_threads);
  report.put("rmat_nodes", static_cast<std::uint64_t>(rmat_g.num_nodes()));
  report.put("rmat_edges", rmat_g.num_edges());
  report.put("roads_nodes", static_cast<std::uint64_t>(roads_g.num_nodes()));
  report.put("roads_edges", roads_g.num_edges());

  const int prev = util::num_threads();
  for (const int t : threads) {
    util::set_num_threads(t);
    std::cerr << "  [running] threads=" << t << "\n";
    const double rt = time_cldiam(rmat_g, 3);
    const double dt = time_cldiam(roads_g, 5);
    const double ds = time_sssp(roads_g);
    const double ds_rmat = time_sssp(rmat_g);
    if (t == 1) {
      rmat_t1 = rt;
      roads_t1 = dt;
    }
    table.row()
        .cell(std::to_string(t))
        .cell(util::format_duration(rt))
        .num(rmat_t1 / rt, 2)
        .cell(util::format_duration(dt))
        .num(roads_t1 / dt, 2)
        .cell(util::format_duration(ds));
    report.add_row()
        .put("threads", t)
        .put("rmat_seconds", rt)
        .put("rmat_speedup", rmat_t1 / rt)
        .put("roads_seconds", dt)
        .put("roads_speedup", roads_t1 / dt)
        .put("roads_delta_seconds", ds)
        .put("rmat_delta_seconds", ds_rmat);
  }
  util::set_num_threads(prev);

  table.print(std::cout);

  report.write();
  std::printf(
      "\nexpected shape (paper, Fig. 4): time decreases as parallelism\n"
      "grows for both topologies (speedup > 1 beyond one thread; perfect\n"
      "scaling is not expected -- the paper's own curves flatten too).\n");
  return 0;
}
