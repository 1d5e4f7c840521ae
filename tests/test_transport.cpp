// Tests for the pluggable BSP transport (mr/transport.hpp, DESIGN.md §9):
// the Launcher's shard→process mapping, the one parser of the user-facing
// transport fields, the Exchange's loopback channel and row
// (de)serialization, and — the load-bearing part — bit-identical parity of
// the whole partitioned stack (Δ-stepping distances, CLUSTER labels, CL-DIAM
// estimates, every model-level RoundStats counter) between LocalTransport
// and the resident-worker PoolTransport for every graph family, K ∈ {2, 4}
// and P ∈ {1, 2}, with the wire counters nonzero exactly under the pool.
// The pool additionally pins its lifecycle contract: one spawn wave per
// resident epoch (per superstep without an input codec), per-superstep
// inputs and shard counters crossing the socket, a SIGKILLed worker
// restarted mid-run with bit-identical results, workers that stay resident
// across whole warm CLUSTER/CLUSTER2 and Δ-stepping runs (PoolResidency),
// a worker compute that may enter an OpenMP region without hanging, the
// spin-then-block wait falling back to blocking on one CPU (PoolWaits) and
// the count of workers that exited uncleanly (PoolLifecycle).

#include <gtest/gtest.h>

#include <sched.h>

#include <csignal>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <omp.h>

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstring>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/cluster.hpp"
#include "core/cluster2.hpp"
#include "core/diameter.hpp"
#include "core/growing.hpp"
#include "exec/context.hpp"
#include "mr/bsp_engine.hpp"
#include "mr/exchange.hpp"
#include "mr/partition.hpp"
#include "mr/transport.hpp"
#include "sssp/delta_stepping.hpp"
#include "test_helpers.hpp"
#include "util/net.hpp"

namespace gdiam::mr {
namespace {

using test::Family;

TransportOptions pool_opts(std::uint32_t p) {
  return {.kind = TransportKind::kPool, .processes = p};
}

/// The model-level view of a RoundStats: wire counters zeroed. Everything
/// else must be transport-invariant; the wire counters are transport-
/// dependent by design (they include loopback stand-ins plus framing).
RoundStats zero_wire(RoundStats s) {
  s.wire_messages = 0;
  s.wire_bytes = 0;
  return s;
}

// ---------------------------------------------------------------------------
// Launcher

TEST(Launcher, GroupsAreContiguousBalancedAndCoverEveryShard) {
  for (const std::uint32_t k : {1u, 2u, 5u, 7u, 16u}) {
    for (const std::uint32_t p : {1u, 2u, 3u, 4u}) {
      const Launcher l(k, p);
      EXPECT_LE(l.processes(), k);
      ShardId next = 0;
      std::uint32_t largest = 0, smallest = k;
      for (std::uint32_t g = 0; g < l.processes(); ++g) {
        const auto [first, last] = l.group(g);
        EXPECT_EQ(first, next) << "k=" << k << " p=" << p;  // contiguous
        EXPECT_LT(first, last);  // every worker owns at least one shard
        largest = std::max(largest, last - first);
        smallest = std::min(smallest, last - first);
        next = last;
      }
      EXPECT_EQ(next, k);                // covers every shard
      EXPECT_LE(largest - smallest, 1u);  // ceil-balanced
    }
  }
}

TEST(Launcher, ClampsProcessesToShardCount) {
  const Launcher l(3, 64);
  EXPECT_EQ(l.processes(), 3u);
  EXPECT_EQ(l.num_shards(), 3u);
}

TEST(Launcher, MakeTransportSelectsKind) {
  const auto local = Launcher::make_transport({}, 4);
  EXPECT_FALSE(local->remote_compute());
  EXPECT_EQ(local->processes(), 1u);
  const auto pool = Launcher::make_transport(pool_opts(2), 4);
  EXPECT_TRUE(pool->remote_compute());
  EXPECT_NE(dynamic_cast<PoolTransport*>(pool.get()), nullptr);
  EXPECT_EQ(pool->processes(), 2u);
}

// ---------------------------------------------------------------------------
// parse_transport_options: the transport vocabulary the CLI and the daemon
// share, so the two front ends cannot drift apart again.

TEST(ParseTransportOptions, AcceptsTheVocabulary) {
  const TransportOptions local{};
  EXPECT_EQ(parse_transport_options("", std::nullopt, 4), local);
  EXPECT_EQ(parse_transport_options("", std::nullopt, 1), local);
  EXPECT_EQ(parse_transport_options("local", std::nullopt, 4), local);
  EXPECT_EQ(parse_transport_options("local", std::nullopt, 1), local);
  EXPECT_EQ(parse_transport_options("pool", std::nullopt, 4), pool_opts(2));
  EXPECT_EQ(parse_transport_options("pool", 3u, 4), pool_opts(3));
  // A process count alone selects the pool.
  EXPECT_EQ(parse_transport_options("", 3u, 4), pool_opts(3));
  EXPECT_EQ(parse_transport_options("", 1u, 2), pool_opts(1));
}

TEST(ParseTransportOptions, RejectsEverythingElse) {
  auto message = [](const std::string& kind,
                    std::optional<std::uint32_t> processes,
                    std::uint32_t partitions) -> std::string {
    try {
      (void)parse_transport_options(kind, processes, partitions);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "accepted";
  };
  // The fork-per-superstep transport is gone, and says so.
  EXPECT_NE(message("process", std::nullopt, 4).find("removed"),
            std::string::npos);
  EXPECT_NE(message("process", 2u, 4).find("removed"), std::string::npos);
  EXPECT_NE(message("mpi", std::nullopt, 4).find("local or pool"),
            std::string::npos);
  EXPECT_NE(message("Pool", std::nullopt, 4), "accepted");
  EXPECT_NE(message("", 0u, 4).find("processes must be >= 1"),
            std::string::npos);
  EXPECT_NE(message("pool", 0u, 4).find("processes must be >= 1"),
            std::string::npos);
  // The pool only exists behind the BSP engine.
  for (const std::uint32_t partitions : {0u, 1u}) {
    EXPECT_NE(message("pool", std::nullopt, partitions).find("partitions > 1"),
              std::string::npos);
    EXPECT_NE(message("", 2u, partitions).find("partitions > 1"),
              std::string::npos);
  }
  EXPECT_NE(message("local", 2u, 4).find("conflict"), std::string::npos);
  EXPECT_NE(message("local", 1u, 4).find("conflict"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Exchange: loopback channel + row serialization

TEST(Exchange, LoopbackDeliversFirstAndIsNotTallied) {
  Exchange<int> ex(2);
  ex.send(1, 0, 10);    // routed, cross
  ex.loopback(0, 1);    // owned-write stand-in for shard 0
  ex.send(0, 0, 5);     // routed, shard-internal
  ex.loopback(0, 2);
  const ExchangeCounters c = ex.seal();
  const auto inbox = ex.inbox(0);
  ASSERT_EQ(inbox.size(), 4u);
  // Loopback records first (in staging order), then routed rows by source.
  EXPECT_EQ(inbox[0], 1);
  EXPECT_EQ(inbox[1], 2);
  EXPECT_EQ(inbox[2], 5);
  EXPECT_EQ(inbox[3], 10);
  // Model-level counters see only send() traffic.
  EXPECT_EQ(c.messages, 2u);
  EXPECT_EQ(c.bytes, 2u * sizeof(int));
  EXPECT_EQ(c.cross_messages, 1u);
  EXPECT_EQ(ex.loopback_staged(), 2u);
  ex.clear();
  EXPECT_EQ(ex.loopback_staged(), 0u);
}

TEST(Exchange, RowRoundTripsThroughEncodeDecode) {
  Exchange<std::uint64_t> src(3), dst(3);
  src.loopback(1, 111);
  src.send(1, 0, 7);
  src.send(1, 2, 9);
  src.loopback(1, 222);
  std::vector<std::byte> row;
  src.encode_row(1, row);
  EXPECT_EQ(dst.decode_row(1, row.data(), row.size()), 4u);

  const ExchangeCounters cs = src.seal();
  const ExchangeCounters cd = dst.seal();
  EXPECT_EQ(cs, cd);
  for (ShardId s = 0; s < 3; ++s) {
    const auto a = src.inbox(s);
    const auto b = dst.inbox(s);
    ASSERT_EQ(a.size(), b.size()) << "shard " << s;
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  }
}

TEST(Exchange, DecodeRejectsMalformedRow) {
  Exchange<std::uint64_t> ex(2);
  const std::byte junk[3] = {};
  EXPECT_THROW(ex.decode_row(0, junk, sizeof junk), std::invalid_argument);
  // A corrupt loopback count whose byte size would wrap the multiplication
  // must fail the framing check, not pass it and blow up the resize.
  std::vector<std::byte> row;
  const std::uint64_t huge = std::uint64_t{1} << 61;
  row.resize(sizeof huge);
  std::memcpy(row.data(), &huge, sizeof huge);
  EXPECT_THROW(ex.decode_row(0, row.data(), row.size()),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// PoolTransport superstep semantics: resident workers, shipped inputs

// Workers fork once, then run three supersteps whose input changes every
// step — the codec must carry it across (the frozen compute closure would
// otherwise see the fork-time values forever). A codec epoch bump must
// trigger exactly one fresh spawn wave.
TEST(PoolSuperstep, ResidentWorkersReceivePerStepInputs) {
  const Graph g = gen::path(40);
  const Partition part(
      g, {.num_partitions = 4, .strategy = PartitionStrategy::kRange});
  const std::uint32_t k = part.num_partitions();

  PoolTransport pool((Launcher(k, 2)));
  BspEngine engine(part, &pool);
  Exchange<std::uint64_t> ex(k);
  // The shipped per-step input. Allocated before the first superstep so its
  // address is stable at fork time: the worker's decode writes through it.
  std::vector<std::uint64_t> step_value(k, 0);
  StepInputCodec codec;
  codec.encode = [&step_value](ShardId s, std::vector<std::byte>& buf) {
    const auto* p = reinterpret_cast<const std::byte*>(&step_value[s]);
    buf.insert(buf.end(), p, p + sizeof(std::uint64_t));
  };
  codec.decode = [&step_value](ShardId s, const std::byte* p, std::size_t) {
    std::memcpy(&step_value[s], p, sizeof(std::uint64_t));
  };
  codec.epoch = 1;

  std::vector<std::uint64_t> counters(k, 0);
  std::vector<std::vector<std::uint64_t>> inboxes(k);
  auto compute = [&](const Shard& sh, Exchange<std::uint64_t>& out) {
    out.loopback(sh.id, step_value[sh.id]);
    out.send(sh.id, (sh.id + 1) % k, step_value[sh.id] * 10);
    counters[sh.id] = step_value[sh.id] + 1;
  };
  auto apply = [&](const Shard& sh, std::span<const std::uint64_t> inbox) {
    inboxes[sh.id].assign(inbox.begin(), inbox.end());
  };

  for (std::uint64_t round = 1; round <= 3; ++round) {
    for (ShardId s = 0; s < k; ++s) step_value[s] = round * 100 + s;
    const ExchangeCounters c = engine.superstep(
        ex, compute, apply, nullptr,
        std::span<std::uint64_t>(counters.data(), k), &codec);
    EXPECT_GT(c.wire_bytes, 0u);
    for (ShardId s = 0; s < k; ++s) {
      ASSERT_EQ(inboxes[s].size(), 2u) << "round " << round;
      // Loopback first, then the ring message — both carrying THIS round's
      // value, proving the input crossed into the resident worker.
      EXPECT_EQ(inboxes[s][0], round * 100 + s);
      EXPECT_EQ(inboxes[s][1], (round * 100 + (s + k - 1) % k) * 10);
      EXPECT_EQ(counters[s], round * 100 + s + 1);  // shipped back by wire
    }
  }
  EXPECT_EQ(pool.spawns(), 2u);  // one wave of two workers, resident since
  EXPECT_EQ(pool.restarts(), 0u);

  // Epoch bump = "fork-time resident state mutated": fresh snapshot wave.
  codec.epoch = 2;
  for (ShardId s = 0; s < k; ++s) step_value[s] = 777 + s;
  engine.superstep(ex, compute, apply, nullptr,
                   std::span<std::uint64_t>(counters.data(), k), &codec);
  for (ShardId s = 0; s < k; ++s) {
    ASSERT_EQ(inboxes[s].size(), 2u);
    EXPECT_EQ(inboxes[s][0], 777u + s);
  }
  EXPECT_EQ(pool.spawns(), 4u);
  EXPECT_EQ(pool.restarts(), 0u);
  pool.shutdown();
  EXPECT_EQ(pool.spawns(), 4u);  // shutdown is not a spawn
}

// A codec-less plan must still be correct under the pool: the transport
// falls back to a respawn per superstep, so every step forks from a current
// snapshot. Each step's inboxes and shard counters (which cross the socket
// alongside the rows) must match LocalTransport's, every staged record —
// one loopback plus one ring message per shard — must cross a socket, and
// the model-level stats must be transport-invariant.
TEST(PoolSuperstep, NoCodecFallsBackToRespawnPerSuperstep) {
  const Graph g = gen::path(40);
  for (const auto& [shards, workers] :
       {std::pair{3u, 3u}, std::pair{4u, 1u}, std::pair{4u, 2u},
        std::pair{4u, 4u}}) {
    const std::uint32_t k = shards;
    const std::uint32_t procs = workers;
    SCOPED_TRACE(testing::Message() << "k=" << k << " p=" << procs);
    const Partition part(
        g, {.num_partitions = k, .strategy = PartitionStrategy::kRange});
    ASSERT_EQ(part.num_partitions(), k);

    struct Step {
      std::vector<std::vector<std::uint64_t>> inboxes;
      std::vector<std::uint64_t> counters;
      ExchangeCounters traffic;
    };
    auto run = [&](Transport& transport, RoundStats& stats) {
      BspEngine engine(part, &transport);
      Exchange<std::uint64_t> ex(k);
      std::vector<Step> steps;
      for (std::uint64_t round = 1; round <= 2; ++round) {
        Step st{std::vector<std::vector<std::uint64_t>>(k),
                std::vector<std::uint64_t>(k, 0), {}};
        st.traffic = engine.superstep(
            ex,
            [&](const Shard& sh, Exchange<std::uint64_t>& out) {
              out.loopback(sh.id, round * 1000 + sh.id);
              out.send(sh.id, (sh.id + 1) % k, round * 10 + sh.id);
              st.counters[sh.id] = round * 100 + sh.id;
            },
            [&](const Shard& sh, std::span<const std::uint64_t> inbox) {
              st.inboxes[sh.id].assign(inbox.begin(), inbox.end());
            },
            &stats, st.counters);
        steps.push_back(std::move(st));
      }
      return steps;
    };

    LocalTransport local;
    RoundStats local_stats;
    const std::vector<Step> want = run(local, local_stats);
    PoolTransport pool((Launcher(k, procs)));
    RoundStats pool_stats;
    const std::vector<Step> got = run(pool, pool_stats);

    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      const std::uint64_t round = i + 1;
      for (ShardId s = 0; s < k; ++s) {
        // Loopback first, then the routed ring message — both from THIS
        // round, although no codec shipped it: the worker forked afresh.
        EXPECT_EQ(want[i].inboxes[s],
                  (std::vector<std::uint64_t>{round * 1000 + s,
                                              round * 10 + (s + k - 1) % k}));
      }
      EXPECT_EQ(got[i].inboxes, want[i].inboxes) << "round " << round;
      EXPECT_EQ(got[i].counters, want[i].counters);  // crossed the socket
      EXPECT_EQ(got[i].traffic.messages, want[i].traffic.messages);
      EXPECT_EQ(got[i].traffic.cross_messages, want[i].traffic.cross_messages);
      EXPECT_EQ(want[i].traffic.wire_bytes, 0u);
      EXPECT_EQ(got[i].traffic.wire_messages, 2u * k);
      EXPECT_GT(got[i].traffic.wire_bytes, 0u);
    }
    EXPECT_EQ(zero_wire(pool_stats), zero_wire(local_stats));
    EXPECT_EQ(pool_stats.wire_bytes,
              got[0].traffic.wire_bytes + got[1].traffic.wire_bytes);
    EXPECT_EQ(pool.spawns(), 2u * procs);  // one spawn wave per superstep
    EXPECT_EQ(pool.restarts(), 0u);
  }
}

// A forked worker inherits libgomp's thread pool state but none of its
// threads: in a child of a process that has run a parallel region, the next
// multi-threaded region never returns. Workers run with one OpenMP thread,
// so a compute that enters a region finishes — and matches LocalTransport.
TEST(PoolSuperstep, WorkerComputeMayEnterOpenMpRegion) {
  long warm = 0;
#pragma omp parallel num_threads(2) reduction(+ : warm)
  warm += 1;  // the coordinator's thread pool now exists
  ASSERT_GE(warm, 1);

  const Graph g = gen::path(40);
  const Partition part(
      g, {.num_partitions = 4, .strategy = PartitionStrategy::kRange});
  const std::uint32_t k = part.num_partitions();
  const pid_t coordinator = ::getpid();

  auto run = [&](Transport& transport) {
    BspEngine engine(part, &transport);
    Exchange<std::uint64_t> ex(k);
    std::vector<std::vector<std::uint64_t>> inboxes(k);
    std::vector<std::uint64_t> counters(k, 0);
    auto compute = [&](const Shard& sh, Exchange<std::uint64_t>& out) {
      // A hang here must fail the test, not stall the suite: a worker that
      // has not finished in 5 s dies, and the pool gives up after its
      // bounded restarts with a TransportError.
      if (::getpid() != coordinator) ::alarm(5);
      std::uint64_t sum = 0;
#pragma omp parallel for reduction(+ : sum)
      for (int i = 0; i < 1000; ++i) sum += static_cast<std::uint64_t>(i);
      if (::getpid() != coordinator) ::alarm(0);
      out.send(sh.id, (sh.id + 1) % k, sum + sh.id);
      counters[sh.id] = sum;
    };
    auto apply = [&](const Shard& sh, std::span<const std::uint64_t> inbox) {
      inboxes[sh.id].assign(inbox.begin(), inbox.end());
    };
    for (int step = 0; step < 2; ++step) {
      engine.superstep(ex, compute, apply, nullptr,
                       std::span<std::uint64_t>(counters.data(), k));
    }
    return std::make_pair(inboxes, counters);
  };

  LocalTransport local;
  PoolTransport pool((Launcher(k, 2)));
  const auto want = run(local);
  EXPECT_EQ(run(pool), want);
  EXPECT_EQ(want.second[0], 499500u);
  EXPECT_EQ(pool.restarts(), 0u);
}

// ---------------------------------------------------------------------------
// Whole-stack parity: LocalTransport vs PoolTransport

class TransportParity
    : public testing::TestWithParam<
          std::tuple<Family, std::uint32_t, std::uint32_t>> {};

TEST_P(TransportParity, DeltaSteppingBitIdentical) {
  const auto [family, k, p] = GetParam();
  const Graph g = test::make_family(family, 150, 42);

  sssp::DeltaSteppingOptions opts;
  opts.partition.num_partitions = k;
  const sssp::DeltaSteppingResult local = sssp::delta_stepping(g, 0, opts);

  EXPECT_EQ(local.stats.wire_bytes, 0u);
  EXPECT_EQ(local.processes_used, 1u);

  opts.transport = pool_opts(p);
  const sssp::DeltaSteppingResult pool = sssp::delta_stepping(g, 0, opts);
  EXPECT_EQ(pool.dist, local.dist);
  EXPECT_EQ(pool.eccentricity, local.eccentricity);
  EXPECT_EQ(pool.farthest, local.farthest);
  EXPECT_EQ(pool.buckets_processed, local.buckets_processed);
  EXPECT_EQ(zero_wire(pool.stats), zero_wire(local.stats));
  EXPECT_EQ(pool.processes_used, p);
  EXPECT_GT(pool.stats.wire_bytes, 0u);  // compute genuinely ran elsewhere
}

TEST_P(TransportParity, ClusterLabelsAndStatsBitIdentical) {
  const auto [family, k, p] = GetParam();
  const Graph g = test::make_family(family, 150, 42);

  core::ClusterOptions opts;
  // tau and stop_factor sized so stages actually run on a 150-node instance
  // (CLUSTER stops before the first stage once uncovered < 8·tau·log2 n).
  opts.tau = 2;
  opts.stop_factor = 1.0;
  opts.policy = core::GrowingPolicy::kPartitioned;
  opts.partition.num_partitions = k;
  const core::Clustering local = core::cluster(g, opts);

  EXPECT_EQ(local.stats.wire_bytes, 0u);

  opts.transport = pool_opts(p);
  const core::Clustering pool = core::cluster(g, opts);
  EXPECT_EQ(pool.center_of, local.center_of);
  EXPECT_EQ(pool.dist_to_center, local.dist_to_center);
  EXPECT_EQ(pool.centers, local.centers);
  EXPECT_EQ(pool.radius, local.radius);
  EXPECT_EQ(zero_wire(pool.stats), zero_wire(local.stats));
  EXPECT_GT(pool.stats.wire_bytes, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Families, TransportParity,
    testing::Combine(testing::ValuesIn(test::all_families()),
                     testing::Values(2u, 4u), testing::Values(1u, 2u)),
    [](const auto& info) {
      return std::string(test::family_name(std::get<0>(info.param))) + "_k" +
             std::to_string(std::get<1>(info.param)) + "_p" +
             std::to_string(std::get<2>(info.param));
    });

// Every transport against the serial references: the partitioned
// Δ-stepping run and a partitioned Δ-growing run, step by step, match
// test::reference_delta_stepping / test::reference_growing_step on
// distances, labels and every model counter (cross traffic included).
TEST(TransportParity, MatchesSerialReference) {
  const Graph g = test::make_family(Family::kGnmUniform, 150, 7);
  const PartitionOptions popts{.num_partitions = 4};
  const auto part = test::shards_for(g, popts);
  const test::DeltaReference dref =
      test::reference_delta_stepping(g, 0, 0.0, part.get());
  core::GrowingStepParams gp;
  gp.light_threshold = 2.0 * g.avg_weight();
  gp.uniform_budget = 3.0 * g.avg_weight();

  for (const TransportOptions& t :
       {TransportOptions{}, pool_opts(2)}) {
    SCOPED_TRACE(testing::Message() << "transport " << static_cast<int>(t.kind));
    sssp::DeltaSteppingOptions dopts;
    dopts.partition = popts;
    dopts.transport = t;
    const sssp::DeltaSteppingResult d = sssp::delta_stepping(g, 0, dopts);
    test::expect_delta_matches(d, dref);
    EXPECT_EQ(d.stats.wire_bytes > 0, t.kind != TransportKind::kLocal);

    core::GrowingEngine engine(g, core::GrowingPolicy::kPartitioned, popts);
    engine.set_transport_options(t);
    test::GrowingReference gref(g.num_nodes());
    for (const NodeId c : {NodeId{0}, NodeId{50}, NodeId{100}}) {
      engine.set_source(c, c);
      gref.set_source(c, c);
    }
    engine.block(50);
    gref.block(50);
    engine.rebuild_frontier(gp);
    gref.rebuild_frontier();
    const core::GrowingStepResult total =
        test::step_against_reference(g, engine, gref, gp, 64);
    EXPECT_EQ(total.wire_bytes > 0, t.kind != TransportKind::kLocal);
  }
}

// CL-DIAM end to end on the pool: bit-identical estimate and
// decomposition, nonzero wire traffic reported.
TEST(TransportParity, DiameterPipelineBitIdentical) {
  for (const Family family : test::all_families()) {
    const Graph g = test::make_family(family, 120, 11);

    core::DiameterApproxOptions opts;
    opts.cluster.tau = 2;
    opts.cluster.stop_factor = 1.0;
    opts.cluster.policy = core::GrowingPolicy::kPartitioned;
    opts.cluster.partition.num_partitions = 4;
    const core::DiameterApproxResult local = core::approximate_diameter(g, opts);

    EXPECT_EQ(local.stats.wire_bytes, 0u);

    opts.cluster.transport = pool_opts(2);
    const core::DiameterApproxResult pool = core::approximate_diameter(g, opts);
    EXPECT_EQ(pool.estimate, local.estimate) << test::family_name(family);
    EXPECT_EQ(pool.estimate_classic, local.estimate_classic);
    EXPECT_EQ(pool.quotient_diam, local.quotient_diam);
    EXPECT_EQ(pool.radius, local.radius);
    EXPECT_EQ(pool.clustering.center_of, local.clustering.center_of);
    EXPECT_EQ(zero_wire(pool.stats), zero_wire(local.stats));
    EXPECT_GT(pool.stats.wire_bytes, 0u) << test::family_name(family);
  }
}

// ---------------------------------------------------------------------------
// PoolTransport residency across whole CLUSTER/CLUSTER2 runs. A warm context
// has every Δ-presplit cached, so a pooled run's workers never re-fork: the
// blocked delta and the light threshold ride each step's input frame, and
// the workers look their presplit up in their snapshot of the cache. Only a
// presplit built after the workers forked makes them re-snapshot.

core::ClusterOptions residency_opts(std::uint64_t seed,
                                    const TransportOptions& t) {
  core::ClusterOptions o;
  o.tau = 2;  // sized so several stages run on a 300-node instance
  o.stop_factor = 1.0;
  o.seed = seed;
  o.policy = core::GrowingPolicy::kPartitioned;
  o.partition.num_partitions = 4;
  o.transport = t;
  return o;
}

/// The pool behind the context's pooled growing engine for `o`.
PoolTransport* pool_of(exec::Context& ctx, const Graph& g,
                       const core::ClusterOptions& o) {
  return dynamic_cast<PoolTransport*>(
      ctx.growing_engine(g, o.policy, o.partition).transport());
}

/// Same clustering and every RoundStats field but the wire counters.
void expect_same_clustering(const core::Clustering& got,
                            const core::Clustering& want) {
  EXPECT_EQ(got.center_of, want.center_of);
  EXPECT_EQ(got.dist_to_center, want.dist_to_center);
  EXPECT_EQ(got.centers, want.centers);
  EXPECT_EQ(got.radius, want.radius);
  EXPECT_EQ(got.delta_end, want.delta_end);
  EXPECT_EQ(got.stages, want.stages);
  EXPECT_EQ(zero_wire(got.stats), zero_wire(want.stats));
}

TEST(PoolResidency, WarmRunsForkNoWorkersAndMatchLocalAndReference) {
  const Graph g = test::make_family(Family::kMeshUniform, 300, 5);
  const auto part = test::shards_for(g, residency_opts(1, {}).partition);
  exec::Context pool_ctx;
  exec::Context local_ctx;
  std::uint64_t settled = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(testing::Message() << "pass " << pass << " seed " << seed);
      const core::ClusterOptions lo = residency_opts(seed, {});
      const core::ClusterOptions po = residency_opts(seed, pool_opts(2));
      auto labels_of = [&](exec::Context& ctx) {
        return ctx.growing_engine(g, lo.policy, lo.partition).labels();
      };

      const core::Clustering local = core::cluster(g, lo, &local_ctx);
      const core::Clustering pooled = core::cluster(g, po, &pool_ctx);
      expect_same_clustering(pooled, local);
      test::expect_cluster_matches(pooled,
                                   test::reference_cluster(g, lo, part.get())
                                       .clustering);
      EXPECT_EQ(labels_of(pool_ctx), labels_of(local_ctx));
      EXPECT_GT(pooled.stats.wire_bytes, 0u);

      const core::Cluster2Result local2 =
          core::cluster2(g, {.base = lo}, &local_ctx);
      const core::Cluster2Result pooled2 =
          core::cluster2(g, {.base = po}, &pool_ctx);
      expect_same_clustering(pooled2.clustering, local2.clustering);
      EXPECT_EQ(pooled2.radius_cluster1, local2.radius_cluster1);
      EXPECT_EQ(zero_wire(pooled2.bootstrap_stats),
                zero_wire(local2.bootstrap_stats));
      EXPECT_EQ(labels_of(pool_ctx), labels_of(local_ctx));

      PoolTransport* pool = pool_of(pool_ctx, g, po);
      ASSERT_NE(pool, nullptr);
      EXPECT_EQ(pool->restarts(), 0u);
      if (pass == 0) {
        settled = pool->spawns();
      } else {
        EXPECT_EQ(pool->spawns(), settled) << "a warm run re-forked";
      }
    }
  }
  EXPECT_GE(settled, 2u);  // the first run did spawn its two workers
}

TEST(PoolResidency, ColdContextRespawnsOncePerNewDelta) {
  const Graph g = test::make_family(Family::kMeshUniform, 300, 5);
  core::ClusterOptions o = residency_opts(1, pool_opts(2));
  o.delta_init = core::DeltaInit::kMinWeight;  // so the search doubles Δ
  exec::Context ctx;
  const core::Clustering cold = core::cluster(g, o, &ctx);
  // The doubling search steps every Δ from min_weight up to delta_end, and
  // each first use builds a presplit the resident workers lack: one spawn
  // wave of two workers per distinct Δ; blocking a wave re-forks nothing.
  std::uint64_t deltas = 0;
  for (Weight d = g.min_weight(); d <= cold.delta_end; d *= 2.0) ++deltas;
  ASSERT_GT(deltas, 1u) << "pick a graph whose growth doubles Δ";
  ASSERT_GT(cold.stages, 1u);  // a contraction wave was blocked mid-run
  PoolTransport* pool = pool_of(ctx, g, o);
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool->spawns(), 2u * deltas);

  const core::Clustering warm = core::cluster(g, o, &ctx);
  expect_same_clustering(warm, cold);
  EXPECT_EQ(pool->spawns(), 2u * deltas);  // every Δ cached: no re-fork
  EXPECT_EQ(pool->restarts(), 0u);
}

// Δ-stepping's pool lives in the context's RoundBuffers, keyed on (shard
// layout, worker count), with the context's presplit builds as its resident
// epoch: warm runs from new sources fork nothing, a new Δ re-forks once, a
// switch back to a cached Δ ships it instead, a local run leaves the pool
// alone, a new K builds a new pool, and a context-free call stops its
// workers before it returns.

/// Distances and every counter but the wire ones.
void expect_same_sssp(const sssp::DeltaSteppingResult& got,
                      const sssp::DeltaSteppingResult& want) {
  EXPECT_EQ(got.dist, want.dist);
  EXPECT_EQ(got.eccentricity, want.eccentricity);
  EXPECT_EQ(got.farthest, want.farthest);
  EXPECT_EQ(got.buckets_processed, want.buckets_processed);
  EXPECT_EQ(zero_wire(got.stats), zero_wire(want.stats));
}

/// True when this process has no child, running or unreaped.
bool no_children() {
  errno = 0;
  return ::waitpid(-1, nullptr, WNOHANG) == -1 && errno == ECHILD;
}

TEST(PoolResidency, DeltaSteppingWarmRunsForkNoWorkers) {
  constexpr std::uint32_t kProcs = 2;
  for (const Family family : test::all_families()) {
    SCOPED_TRACE(test::family_name(family));
    const Graph g = test::make_family(family, 150, 42);
    const NodeId n = g.num_nodes();
    sssp::DeltaSteppingOptions lo;
    lo.partition.num_partitions = 4;
    sssp::DeltaSteppingOptions po = lo;
    po.transport = pool_opts(kProcs);
    exec::Context ctx;
    exec::Context local_ctx;

    const PoolTotals before = pool_totals();
    for (const NodeId source : {NodeId{0}, n / 2, n - 1}) {
      const auto pooled = sssp::delta_stepping(g, source, po, &ctx);
      expect_same_sssp(pooled, sssp::delta_stepping(g, source, lo, &local_ctx));
      EXPECT_EQ(pooled.processes_used, kProcs);
      EXPECT_GT(pooled.stats.wire_bytes, 0u);
    }
    EXPECT_EQ(pool_totals().spawns - before.spawns, kProcs) << "a warm run re-forked";
    const mr::Transport* pool = ctx.round_buffers().transport.get();

    // A new Δ is a presplit the workers' snapshot lacks: one spawn wave.
    sssp::DeltaSteppingOptions po2 = po;
    sssp::DeltaSteppingOptions lo2 = lo;
    po2.delta = lo2.delta = 0.5 * g.avg_weight();
    expect_same_sssp(sssp::delta_stepping(g, 0, po2, &ctx),
                     sssp::delta_stepping(g, 0, lo2, &local_ctx));
    EXPECT_EQ(pool_totals().spawns - before.spawns, 2 * kProcs);
    EXPECT_EQ(ctx.round_buffers().transport.get(), pool);

    // Another shard layout is another pool.
    sssp::DeltaSteppingOptions po3 = po;
    sssp::DeltaSteppingOptions lo3 = lo;
    po3.partition.num_partitions = lo3.partition.num_partitions = 3;
    expect_same_sssp(sssp::delta_stepping(g, 0, po3, &ctx),
                     sssp::delta_stepping(g, 0, lo3, &local_ctx));
    EXPECT_EQ(pool_totals().spawns - before.spawns, 3 * kProcs);
    EXPECT_EQ(ctx.round_buffers().transport_part,
              &ctx.partition_for(g, po3.partition));
    EXPECT_EQ(pool_totals().restarts, before.restarts);
  }
}

TEST(PoolResidency, ContextFreeDeltaSteppingStopsItsWorkers) {
  const Graph g = test::make_family(Family::kGnmUniform, 150, 42);
  sssp::DeltaSteppingOptions po;
  po.partition.num_partitions = 4;
  po.transport = pool_opts(2);
  ASSERT_TRUE(no_children());
  const std::uint64_t before = pool_totals().spawns;
  const auto r = sssp::delta_stepping(g, 0, po);
  EXPECT_EQ(pool_totals().spawns - before, 2u);  // the call did fork
  EXPECT_GT(r.stats.wire_bytes, 0u);
  EXPECT_TRUE(no_children()) << "a worker outlived its context-free call";

  // A warm context's workers stay up until the context clears.
  exec::Context ctx;
  (void)sssp::delta_stepping(g, 0, po, &ctx);
  EXPECT_FALSE(no_children());
  ctx.clear();
  EXPECT_TRUE(no_children());
}

/// The resident sssp pool of `ctx`, or nullptr.
PoolTransport* sssp_pool(exec::Context& ctx) {
  return dynamic_cast<PoolTransport*>(ctx.round_buffers().transport.get());
}

TEST(PoolResidency, LocalSsspLeavesTheResidentPoolAlone) {
  const Graph g = test::make_family(Family::kGnmUniform, 150, 42);
  sssp::DeltaSteppingOptions lo;
  lo.partition.num_partitions = 4;
  sssp::DeltaSteppingOptions po = lo;
  po.transport = pool_opts(2);
  exec::Context ctx;
  exec::Context ref_ctx;
  const auto ref = sssp::delta_stepping(g, 0, lo, &ref_ctx);
  for (int pair = 0; pair < 2; ++pair) {
    SCOPED_TRACE(testing::Message() << "pair " << pair);
    const auto pooled = sssp::delta_stepping(g, 0, po, &ctx);
    expect_same_sssp(pooled, ref);
    EXPECT_EQ(pooled.processes_used, 2u);
    PoolTransport* pool = sssp_pool(ctx);
    ASSERT_NE(pool, nullptr);
    EXPECT_EQ(pool->spawns(), 2u);
    const auto local = sssp::delta_stepping(g, 0, lo, &ctx);
    EXPECT_EQ(local.stats, ref.stats);  // no wire traffic: in-process
    EXPECT_EQ(local.dist, ref.dist);
    EXPECT_EQ(local.processes_used, 1u);
    EXPECT_EQ(sssp_pool(ctx), pool);  // still resident
    EXPECT_EQ(pool->spawns(), 2u);
  }
}

// Once the workers' snapshot holds both presplits, a switch of Δ keeps the
// workers: every pooled run ships its Δ in its first superstep's input
// frames, so a run's stats, wire bytes included, do not depend on the run
// before it.
TEST(PoolResidency, DeltaSwitchShipsDeltaAndKeepsWorkers) {
  const Graph g = test::make_family(Family::kMeshUniform, 300, 5);
  sssp::DeltaSteppingOptions lo;
  lo.partition.num_partitions = 4;
  sssp::DeltaSteppingOptions po = lo;
  po.transport = pool_opts(2);
  sssp::DeltaSteppingOptions lo2 = lo;
  sssp::DeltaSteppingOptions po2 = po;
  lo2.delta = po2.delta = 0.5 * g.avg_weight();
  exec::Context ctx;
  exec::Context local_ctx;
  const auto ref1 = sssp::delta_stepping(g, 7, lo, &local_ctx);
  const auto ref2 = sssp::delta_stepping(g, 7, lo2, &local_ctx);

  const auto first1 = sssp::delta_stepping(g, 7, po, &ctx);
  const auto first2 = sssp::delta_stepping(g, 7, po2, &ctx);  // a build
  PoolTransport* pool = sssp_pool(ctx);
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool->spawns(), 4u);  // the second presplit re-forked once
  expect_same_sssp(first1, ref1);
  expect_same_sssp(first2, ref2);
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(testing::Message() << "round " << round);
    const auto again1 = sssp::delta_stepping(g, 7, po, &ctx);
    const auto again2 = sssp::delta_stepping(g, 7, po2, &ctx);
    expect_same_sssp(again1, ref1);
    expect_same_sssp(again2, ref2);
    EXPECT_EQ(again1.stats, first1.stats);
    EXPECT_EQ(again2.stats, first2.stats);
  }
  EXPECT_EQ(pool->spawns(), 4u);
  EXPECT_EQ(pool->restarts(), 0u);
  EXPECT_EQ(sssp::delta_stepping(g, 7, po2, &ctx).stats, first2.stats);
}

// ---------------------------------------------------------------------------
// Waiting for a superstep: both sides of a worker socket poll for a bounded
// time before they block, but only when every worker and every thread of
// the coordinator's OpenMP team can hold a CPU. A thread pinned to one CPU
// blocks at once, with the same output.

TEST(PoolWaits, PinnedToOneCpuTakesTheBlockingPath) {
  const Graph g = test::make_family(Family::kGnmUniform, 200, 13);
  sssp::DeltaSteppingOptions lo;
  lo.partition.num_partitions = 4;
  sssp::DeltaSteppingOptions po = lo;
  po.transport = pool_opts(2);
  const auto local = sssp::delta_stepping(g, 0, lo);
  // A one-thread team: 2 workers + 1 thread fit a box of 3 or more CPUs,
  // so there the unpinned pool spins. Run it first: OpenMP threads started
  // while pinned would stay on the one CPU.
  const int team = omp_get_max_threads();
  omp_set_num_threads(1);
  exec::Context spin_ctx;
  const auto spun = sssp::delta_stepping(g, 0, po, &spin_ctx);
  ASSERT_NE(sssp_pool(spin_ctx), nullptr);
  EXPECT_EQ(sssp_pool(spin_ctx)->spin_waits(), util::net::usable_cpus() >= 3);

  cpu_set_t saved;
  ASSERT_EQ(::sched_getaffinity(0, sizeof saved, &saved), 0);
  int cpu = 0;
  while (!CPU_ISSET(cpu, &saved)) ++cpu;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  ASSERT_EQ(::sched_setaffinity(0, sizeof one, &one), 0);  // this thread only
  EXPECT_EQ(util::net::usable_cpus(), 1u);
  exec::Context pinned_ctx;
  const auto blocked = sssp::delta_stepping(g, 0, po, &pinned_ctx);
  const bool pinned_spins = sssp_pool(pinned_ctx)->spin_waits();
  pinned_ctx.clear();  // reap the pinned workers before unpinning
  ASSERT_EQ(::sched_setaffinity(0, sizeof saved, &saved), 0);
  omp_set_num_threads(team);

  EXPECT_FALSE(pinned_spins);
  expect_same_sssp(spun, local);
  EXPECT_EQ(blocked.dist, spun.dist);
  EXPECT_EQ(blocked.stats, spun.stats);  // wire counters included
  EXPECT_EQ(blocked.buckets_processed, spun.buckets_processed);
}

// ---------------------------------------------------------------------------
// Worker exits: a reaped worker that exited nonzero, died by a signal or
// needed the SIGKILL escalation counts in PoolTotals::unclean_exits; a
// clean 'Q' shutdown adds nothing.

TEST(PoolLifecycle, UncleanExitsCountKilledWorkersOnly) {
  const Graph g = test::make_family(Family::kGnmUniform, 150, 42);
  sssp::DeltaSteppingOptions po;
  po.partition.num_partitions = 4;
  po.transport = pool_opts(2);
  exec::Context ctx;
  (void)sssp::delta_stepping(g, 0, po, &ctx);
  PoolTransport* pool = sssp_pool(ctx);
  ASSERT_NE(pool, nullptr);

  const std::uint64_t before = pool_totals().unclean_exits;
  pool->shutdown();
  EXPECT_EQ(pool_totals().unclean_exits, before);  // a clean shutdown

  (void)sssp::delta_stepping(g, 0, po, &ctx);  // a fresh wave
  const pid_t victim = pool->worker_pid(1);
  ASSERT_GT(victim, 0);
  ASSERT_EQ(::kill(victim, SIGKILL), 0);
  pool->shutdown();
  EXPECT_EQ(pool_totals().unclean_exits, before + 1);
  EXPECT_EQ(pool->restarts(), 0u);
}

// ---------------------------------------------------------------------------
// PoolTransport fault handling: a worker SIGKILLed mid-run is restarted by
// the launcher and the retried superstep is bit-identical — proposals are a
// pure function of (resident snapshot, shipped inputs), so replaying a
// group's compute from a fresh fork reproduces exactly the lost rows.

TEST(PoolFaultHandling, KilledWorkerIsRestartedBitIdentical) {
  const Graph g = test::make_family(Family::kGnmUniform, 200, 13);
  const Weight delta = 2.0 * g.avg_weight();
  const mr::PartitionOptions popts{.num_partitions = 4,
                                   .strategy = PartitionStrategy::kHash};
  const core::GrowingStepParams params{.light_threshold = delta,
                                       .uniform_budget = delta};

  auto seed = [&](core::GrowingEngine& e) {
    e.set_source(0, 0);
    e.set_source(g.num_nodes() / 2, g.num_nodes() / 2);
    e.rebuild_frontier(params);
  };

  // Reference: the same growth to fixpoint on the in-process transport.
  core::GrowingEngine ref(g, core::GrowingPolicy::kPartitioned, popts);
  seed(ref);
  std::vector<std::uint64_t> ref_updates;
  for (int step = 0; step < 64; ++step) {
    const auto r = ref.step(params);
    ref_updates.push_back(r.updates);
    if (r.updates == 0) break;
  }

  core::GrowingEngine eng(g, core::GrowingPolicy::kPartitioned, popts);
  eng.set_transport_options(pool_opts(2));
  seed(eng);
  auto* pool = dynamic_cast<PoolTransport*>(eng.transport());
  ASSERT_NE(pool, nullptr);

  std::vector<std::uint64_t> pool_updates;
  bool killed = false;
  for (int step = 0; step < 64; ++step) {
    const auto r = eng.step(params);
    pool_updates.push_back(r.updates);
    if (r.updates == 0) break;
    if (!killed && step == 1) {
      // Workers are resident between steps (no reset/block/Δ-change here, so
      // the epoch is stable and no respawn masks the crash path): the pid is
      // valid and the NEXT superstep must hit the dead socket and recover.
      const pid_t victim = pool->worker_pid(0);
      ASSERT_GT(victim, 0);
      ASSERT_EQ(kill(victim, SIGKILL), 0);
      killed = true;
    }
  }
  ASSERT_TRUE(killed) << "growth fixpointed before the fault was injected";
  EXPECT_GE(pool->restarts(), 1u);  // the launcher replaced the dead worker
  EXPECT_EQ(eng.labels(), ref.labels());
  EXPECT_EQ(pool_updates, ref_updates);
}

}  // namespace
}  // namespace gdiam::mr
