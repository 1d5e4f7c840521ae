#pragma once
// Umbrella header for the gdiam library: parallel diameter approximation of
// massive weighted graphs (Ceccarello, Pietracaprina, Pucci, Upfal — IPDPS
// 2016). Include this for the full public API; individual headers are
// cheaper to compile for targeted use.
//
// Quickstart:
//   #include "gdiam.hpp"
//   gdiam::util::Xoshiro256 rng(42);
//   gdiam::Graph g = gdiam::gen::uniform_weights(gdiam::gen::mesh(512), 42);
//   auto r = gdiam::core::approximate_diameter(g);
//   // r.estimate is a conservative diameter approximation.

#include "analysis/hop.hpp"    // IWYU pragma: export
#include "analysis/metrics.hpp"  // IWYU pragma: export
#include "core/cluster.hpp"    // IWYU pragma: export
#include "core/cluster2.hpp"   // IWYU pragma: export
#include "core/diameter.hpp"   // IWYU pragma: export
#include "core/growing.hpp"    // IWYU pragma: export
#include "core/labels.hpp"     // IWYU pragma: export
#include "core/quotient.hpp"   // IWYU pragma: export
#include "core/serialize.hpp"  // IWYU pragma: export
#include "exec/context.hpp"    // IWYU pragma: export
#include "exec/options.hpp"    // IWYU pragma: export
#include "gen/basic.hpp"       // IWYU pragma: export
#include "gen/mesh.hpp"        // IWYU pragma: export
#include "gen/product.hpp"     // IWYU pragma: export
#include "gen/rmat.hpp"        // IWYU pragma: export
#include "gen/road.hpp"        // IWYU pragma: export
#include "gen/weights.hpp"     // IWYU pragma: export
#include "graph/binfmt.hpp"    // IWYU pragma: export
#include "graph/builder.hpp"   // IWYU pragma: export
#include "graph/components.hpp"  // IWYU pragma: export
#include "graph/graph.hpp"     // IWYU pragma: export
#include "graph/io.hpp"        // IWYU pragma: export
#include "graph/ops.hpp"       // IWYU pragma: export
#include "mr/bsp_engine.hpp"   // IWYU pragma: export
#include "mr/exchange.hpp"     // IWYU pragma: export
#include "mr/partition.hpp"    // IWYU pragma: export
#include "mr/stats.hpp"        // IWYU pragma: export
#include "mr/transport.hpp"    // IWYU pragma: export
#include "sssp/delta_stepping.hpp"  // IWYU pragma: export
#include "sssp/dijkstra.hpp"   // IWYU pragma: export
#include "sssp/sweep.hpp"      // IWYU pragma: export
#include "util/options.hpp"    // IWYU pragma: export
#include "util/rng.hpp"        // IWYU pragma: export
#include "util/scale.hpp"      // IWYU pragma: export
#include "util/table.hpp"      // IWYU pragma: export
#include "util/timer.hpp"      // IWYU pragma: export
