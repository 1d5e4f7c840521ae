// Chaos suite for the deterministic fault-injection layer (util/fault.hpp,
// DESIGN.md §11) and everything hardened against it: spec parsing and
// replayable schedules, util/net framing edge cases driven from outside
// (torn frames, short reads, peer-gone-mid-frame, zero-length payloads),
// reap_child's SIGTERM→SIGKILL escalation, PoolTransport crash-replay under
// injected kills/teardowns — pinned *bit-identical* to clean runs, not just
// "survived" — and the daemon's admission control, deadlines, graceful
// drain, slow-reader disconnects and pool→local degradation, each answering
// with its typed error code.
//
// Registered under the ctest label `chaos` (CI runs it separately under
// ASan). Every test disarms on exit: the fault table is process-global.

#include <gtest/gtest.h>

#include <csignal>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <omp.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/cluster.hpp"
#include "core/growing.hpp"
#include "exec/context.hpp"
#include "mr/bsp_engine.hpp"
#include "mr/exchange.hpp"
#include "mr/partition.hpp"
#include "mr/transport.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sssp/delta_stepping.hpp"
#include "test_helpers.hpp"
#include "util/fault.hpp"
#include "util/net.hpp"

namespace gdiam {
namespace {

namespace fault = util::fault;
namespace net = util::net;
using serve::Message;
using test::Family;

/// Every chaos test arms through this guard: the site table is shared by
/// the whole test binary, so a schedule must never outlive its test.
struct ScopedFaults {
  explicit ScopedFaults(const std::string& spec) { fault::arm(spec); }
  ~ScopedFaults() { fault::disarm(); }
};

std::string test_socket(const char* tag) {
  static int counter = 0;
  return "/tmp/gdiam_fault_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + "_" + std::to_string(counter++) +
         ".sock";
}

/// One request over a fresh connection; returns the response (no status
/// assertion — chaos tests care about *which* typed error came back).
Message roundtrip(const std::string& socket_path, const Message& req) {
  const int fd = net::connect_unix(socket_path);
  serve::write_message(fd, req);
  Message resp;
  EXPECT_TRUE(serve::read_message(fd, resp));
  ::close(fd);
  return resp;
}

// ---------------------------------------------------------------------------
// Spec parsing + deterministic triggers

TEST(FaultSpec, DisarmedCheckIsANoop) {
  fault::disarm();
  EXPECT_FALSE(fault::armed());
  const fault::Outcome o = fault::check("never.armed");
  EXPECT_FALSE(o.fail);
  EXPECT_FALSE(o.short_io);
}

TEST(FaultSpec, ArmDescribeDisarm) {
  const ScopedFaults f(
      "net.send=errno:EPIPE@3;pool.ship=kill@2;a.b=delay:20;c.d=short%0.5:7");
  EXPECT_TRUE(fault::armed());
  const std::string d = fault::describe();
  EXPECT_NE(d.find("net.send=errno:" + std::to_string(EPIPE) + "@3"),
            std::string::npos)
      << d;
  EXPECT_NE(d.find("pool.ship=kill@2"), std::string::npos) << d;
  EXPECT_NE(d.find("a.b=delay:20"), std::string::npos) << d;
  EXPECT_NE(d.find("c.d=short%0.5:7"), std::string::npos) << d;
  fault::disarm();
  EXPECT_FALSE(fault::armed());
}

TEST(FaultSpec, MalformedSpecsThrowWithoutDisturbingTheArmedSchedule) {
  const ScopedFaults f("t.keep=errno@5");
  for (const char* bad :
       {"no-equals-sign", "=errno", "t.x=warp", "t.x=errno:EBOGUS",
        "t.x=delay:-3", "t.x=short:arg", "t.x=kill:arg", "t.x=errno@0",
        "t.x=errno@x", "t.x=errno%0", "t.x=errno%1.5", "t.x=errno%0.5:zz"}) {
    EXPECT_THROW(fault::arm(bad), std::invalid_argument) << bad;
  }
  // The pre-existing schedule survived every rejected spec. describe()
  // prints the canonical form: bare `errno` carries its EIO default.
  EXPECT_TRUE(fault::armed());
  EXPECT_NE(fault::describe().find("t.keep=errno:" + std::to_string(EIO) +
                                   "@5"),
            std::string::npos)
      << fault::describe();
}

TEST(FaultSpec, NthHitFiresExactlyOnceWithThatErrno) {
  const ScopedFaults f("t.nth=errno:ECONNRESET@3");
  for (int hit = 1; hit <= 5; ++hit) {
    errno = 0;
    const fault::Outcome o = fault::check("t.nth");
    if (hit == 3) {
      EXPECT_TRUE(o.fail);
      EXPECT_EQ(errno, ECONNRESET);
    } else {
      EXPECT_FALSE(o.fail);
    }
  }
  EXPECT_EQ(fault::hits("t.nth"), 5u);
  EXPECT_EQ(fault::fired("t.nth"), 1u);
}

TEST(FaultSpec, SeededProbabilityReplaysExactly) {
  auto pattern = [](const std::string& spec) {
    fault::arm(spec);
    std::vector<bool> fired;
    fired.reserve(200);
    for (int i = 0; i < 200; ++i) fired.push_back(fault::check("t.p").fail);
    return fired;
  };
  const std::vector<bool> a = pattern("t.p=errno%0.25:42");
  const std::vector<bool> b = pattern("t.p=errno%0.25:42");
  const std::vector<bool> c = pattern("t.p=errno%0.25:43");
  fault::disarm();
  EXPECT_EQ(a, b);  // same seed: the schedule is a pure function of the hits
  EXPECT_NE(a, c);  // different seed: a different (still replayable) run
  const auto count = static_cast<std::size_t>(
      std::count(a.begin(), a.end(), true));
  EXPECT_GT(count, 20u);   // ~50 expected from p=0.25 over 200 hits
  EXPECT_LT(count, 100u);
}

TEST(FaultSpec, ArmsFromEnvironment) {
  ASSERT_EQ(::setenv("GDIAM_FAULTS", "t.env=errno@1", 1), 0);
  EXPECT_TRUE(fault::arm_from_env());
  EXPECT_TRUE(fault::armed());
  EXPECT_TRUE(fault::check("t.env").fail);

  ASSERT_EQ(::setenv("GDIAM_FAULTS", "broken spec", 1), 0);
  EXPECT_FALSE(fault::arm_from_env());  // reported, not thrown

  ASSERT_EQ(::unsetenv("GDIAM_FAULTS"), 0);
  EXPECT_TRUE(fault::arm_from_env());  // unset: nothing to do
  fault::disarm();
}

// ---------------------------------------------------------------------------
// util/net framing edge cases, driven through the fault layer

TEST(NetChaos, SendErrnoFailsTheWrite) {
  const ScopedFaults f("net.send=errno:EPIPE@1");
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  EXPECT_FALSE(net::write_all(fds[0], "abc", 3));
  EXPECT_EQ(errno, EPIPE);
  EXPECT_TRUE(net::write_all(fds[0], "abc", 3));  // one-shot: next write ok
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(NetChaos, ShortWriteTearsTheFrameAndTheReaderRejectsIt) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Message m;
  m.head = "ok";
  m.body = std::string(512, 'x');
  {
    const ScopedFaults f("net.send=short@1");
    EXPECT_THROW(serve::write_message(fds[0], m), std::runtime_error);
  }
  ::close(fds[0]);  // writer gone; the peer holds a genuine torn frame
  Message r;
  EXPECT_THROW(serve::read_message(fds[1], r), std::runtime_error);
  ::close(fds[1]);
}

TEST(NetChaos, RecvShortReadsLookLikePeerGoneMidFrame) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Message m;
  m.head = "ok";
  m.body = std::string(512, 'y');
  serve::write_message(fds[0], m);
  const ScopedFaults f("net.recv=short@2");  // hit 1 = length prefix read
  Message r;
  EXPECT_THROW(serve::read_message(fds[1], r), std::runtime_error);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(NetChaos, RecvErrnoIsAReadErrorNotEof) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Message m;
  m.head = "ok";
  serve::write_message(fds[0], m);
  const ScopedFaults f("net.recv=errno:ECONNRESET@1");
  Message r;
  EXPECT_THROW(serve::read_message(fds[1], r), std::runtime_error);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(NetChaos, ZeroLengthPayloadFramesRoundTrip) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::uint32_t zero = 0;
  ASSERT_TRUE(net::write_all(fds[0], &zero, sizeof zero));
  Message r;
  r.head = "sentinel";
  EXPECT_TRUE(serve::read_message(fds[1], r));
  EXPECT_TRUE(r.head.empty());  // an empty frame decodes to an empty message
  EXPECT_TRUE(r.fields.empty());
  EXPECT_TRUE(r.body.empty());
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(NetChaos, DelayFaultOnlyDelays) {
  const ScopedFaults f("net.send=delay:10@1");
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  EXPECT_TRUE(net::write_all(fds[0], "abc", 3));
  char buf[3];
  EXPECT_TRUE(net::read_exact(fds[1], buf, 3));
  ::close(fds[0]);
  ::close(fds[1]);
}

// The pool's BufferedReader: fields come back intact however the stream is
// cut and however late it arrives (spins that time out back off to blocking
// reads), a field longer than the buffer grows it, and the net.recv fault
// point keeps read_exact's meaning on every refill.
TEST(NetChaos, BufferedReaderReassemblesFieldsAcrossReads) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::vector<std::byte> big(200 * 1024);  // past the reader's first buffer
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::byte>(i * 7);
  }
  std::thread writer([&] {
    // u64 length, the payload in uneven slices, then a trailing u64.
    const std::uint64_t len = big.size();
    net::write_all(fds[0], &len, 3);
    net::write_all(fds[0], reinterpret_cast<const char*>(&len) + 3, 5);
    for (std::size_t at = 0; at < big.size(); at += 40000) {
      net::write_all(fds[0], big.data() + at,
                     std::min<std::size_t>(40000, big.size() - at));
    }
    net::write_u64(fds[0], 42);
  });
  for (const int spin_us : {0, 50}) {
    SCOPED_TRACE(spin_us);
    if (spin_us != 0) {
      // A second frame for the spinning reader, in slices far enough apart
      // that its spins time out and it backs off to blocking reads.
      writer.join();
      writer = std::thread([&] {
        const std::uint64_t len = big.size();
        net::write_all(fds[0], &len, sizeof len);
        for (std::size_t at = 0; at < big.size(); at += 20000) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          net::write_all(fds[0], big.data() + at,
                         std::min<std::size_t>(20000, big.size() - at));
        }
        net::write_u64(fds[0], 42);
      });
    }
    net::BufferedReader in;
    in.reset(fds[1], spin_us);
    std::uint64_t len = 0;
    ASSERT_TRUE(in.take_u64(len));
    ASSERT_EQ(len, big.size());
    const std::byte* payload = in.take(len);
    ASSERT_NE(payload, nullptr);
    EXPECT_TRUE(std::equal(big.begin(), big.end(), payload));
    EXPECT_NE(in.take(0), nullptr);
    std::uint64_t tail = 0;
    ASSERT_TRUE(in.take_u64(tail));
    EXPECT_EQ(tail, 42u);
    EXPECT_TRUE(in.drained());
  }
  writer.join();

  net::BufferedReader in;
  in.reset(fds[1], 0);
  ASSERT_TRUE(net::write_u64(fds[0], 7));
  {
    const ScopedFaults f("net.recv=errno:ECONNRESET@1");
    std::uint64_t v = 0;
    EXPECT_FALSE(in.take_u64(v));
    EXPECT_EQ(errno, ECONNRESET);
  }
  {
    const ScopedFaults f("net.recv=short@1");
    std::uint64_t v = 0;
    EXPECT_FALSE(in.take_u64(v));  // part of the stream dropped: EOF
    EXPECT_EQ(errno, 0);
  }
  ::close(fds[0]);
  std::uint64_t v = 0;
  EXPECT_FALSE(in.take_u64(v));  // the peer is gone
  ::close(fds[1]);
}

// ---------------------------------------------------------------------------
// reap_child: EINTR-clean bounded wait with SIGTERM→SIGKILL escalation

TEST(Reap, CleanChildExitCodeSurvives) {
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) ::_exit(7);
  const net::ReapResult rr = net::reap_child(pid, 2000);
  EXPECT_TRUE(rr.reaped);
  EXPECT_FALSE(rr.sigtermed);
  EXPECT_FALSE(rr.sigkilled);
  EXPECT_TRUE(WIFEXITED(rr.status) && WEXITSTATUS(rr.status) == 7);
}

TEST(Reap, CooperativeChildDiesOnSigtermWithoutSigkill) {
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Default SIGTERM disposition: the escalation's first shot lands.
    for (;;) ::pause();
  }
  const net::ReapResult rr = net::reap_child(pid, 50);
  EXPECT_TRUE(rr.reaped);
  EXPECT_TRUE(rr.sigtermed);
  EXPECT_FALSE(rr.sigkilled);
}

TEST(Reap, StubbornChildIsEscalatedToSigkill) {
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::signal(SIGTERM, SIG_IGN);
    for (;;) ::pause();
  }
  const net::ReapResult rr = net::reap_child(pid, 50);
  EXPECT_TRUE(rr.reaped);
  EXPECT_TRUE(rr.sigtermed);
  EXPECT_TRUE(rr.sigkilled);  // SIGTERM was ignored; SIGKILL cannot be
}

// ---------------------------------------------------------------------------
// Transport chaos: injected crashes/teardowns survived bit-identical

struct GrowthRun {
  std::vector<std::uint64_t> labels;
  std::vector<std::uint64_t> updates;
  std::uint64_t restarts = 0;
};

/// Runs partitioned cluster growth to fixpoint; the chaos contract is that
/// every survived faulted run equals the clean local reference exactly.
GrowthRun run_growth(const Graph& g, const mr::TransportOptions& topts) {
  const mr::PartitionOptions popts{.num_partitions = 4,
                                   .strategy = mr::PartitionStrategy::kHash};
  const core::GrowingStepParams params{.light_threshold = 2.0 * g.avg_weight(),
                                       .uniform_budget = 2.0 * g.avg_weight()};
  core::GrowingEngine eng(g, core::GrowingPolicy::kPartitioned, popts);
  if (topts.kind != mr::TransportKind::kLocal) {
    eng.set_transport_options(topts);
  }
  eng.set_source(0, 0);
  eng.set_source(g.num_nodes() / 2, g.num_nodes() / 2);
  eng.rebuild_frontier(params);
  GrowthRun out;
  for (int step = 0; step < 64; ++step) {
    const auto r = eng.step(params);
    out.updates.push_back(r.updates);
    if (r.updates == 0) break;
  }
  out.labels = eng.labels();
  if (auto* pool = dynamic_cast<mr::PoolTransport*>(eng.transport())) {
    out.restarts = pool->restarts();
  }
  return out;
}

TEST(TransportChaos, PoolShipKillRestartsAndReplaysBitIdentical) {
  const Graph g = test::make_family(Family::kGnmUniform, 200, 13);
  const GrowthRun ref = run_growth(g, {});
  const ScopedFaults f("pool.ship=kill@2");  // SIGKILL the 2nd shipped group
  const GrowthRun run =
      run_growth(g, {.kind = mr::TransportKind::kPool, .processes = 2});
  EXPECT_GE(run.restarts, 1u);
  EXPECT_EQ(run.labels, ref.labels);
  EXPECT_EQ(run.updates, ref.updates);
}

TEST(TransportChaos, PoolRecvShortTriggersReplayBitIdentical) {
  const Graph g = test::make_family(Family::kGnmUniform, 200, 13);
  const GrowthRun ref = run_growth(g, {});
  const ScopedFaults f("pool.recv=short@2");  // torn reassembly of group 2
  const GrowthRun run =
      run_growth(g, {.kind = mr::TransportKind::kPool, .processes = 2});
  EXPECT_GE(run.restarts, 1u);
  EXPECT_EQ(run.labels, ref.labels);
  EXPECT_EQ(run.updates, ref.updates);
}

TEST(TransportChaos, WorkerSelfKillMidSuperstepReplaysBitIdentical) {
  const Graph g = test::make_family(Family::kGnmUniform, 200, 13);
  const GrowthRun ref = run_growth(g, {});
  // Worker-side site: every resident worker SIGKILLs itself on the 2nd
  // superstep *it* sees (hit counters are per process) — a rolling crash the
  // restart budget must absorb every time.
  const ScopedFaults f("pool.worker.step=kill@2");
  const GrowthRun run =
      run_growth(g, {.kind = mr::TransportKind::kPool, .processes = 2});
  EXPECT_GE(run.restarts, 1u);
  EXPECT_EQ(run.labels, ref.labels);
  EXPECT_EQ(run.updates, ref.updates);
}

TEST(TransportChaos, WorkerKillOnBlockedWaveStepReplaysClusterBitIdentical) {
  // A warm pooled CLUSTER run whose one resident worker dies on the step
  // that ships a contraction wave. The replacement forks from the
  // coordinator, whose blocked set already holds the wave, and the replayed
  // frame applies the same wave again: idempotent, so the run must equal an
  // uncrashed one in output and in every RoundStats field (a replayed
  // group's wire tallies are overwritten, not added).
  const Graph g = test::make_family(Family::kMeshUniform, 300, 5);
  core::ClusterOptions o;
  o.tau = 2;
  o.stop_factor = 1.0;
  o.policy = core::GrowingPolicy::kPartitioned;
  o.partition.num_partitions = 4;
  o.transport = {.kind = mr::TransportKind::kPool, .processes = 1};
  const auto part = test::shards_for(g, o.partition);
  const test::ClusterReference ref = test::reference_cluster(g, o, part.get());

  // Hit counts are per process and the coordinator never crosses the
  // worker-side site, so the replacement counts from zero again and would
  // die on its own Nth step, global step 2N - 1. Aim at the first step of
  // the earliest stage after the first for which that lies past the run.
  const std::uint64_t steps = ref.clustering.stats.relaxation_rounds;
  std::uint64_t kill_at = 0;
  std::uint64_t first = 1;
  for (std::size_t j = 0; j < ref.stage_rounds.size(); ++j) {
    if (j > 0 && 2 * first - 1 > steps) {
      kill_at = first;
      break;
    }
    first += ref.stage_rounds[j];
  }
  ASSERT_GT(kill_at, 0u) << "no stage starts in the second half of the run";

  exec::Context ctx;
  const core::Clustering clean = core::cluster(g, o, &ctx);  // caches every Δ
  auto* pool = dynamic_cast<mr::PoolTransport*>(
      ctx.growing_engine(g, o.policy, o.partition).transport());
  ASSERT_NE(pool, nullptr);
  // The schedule is copied into a worker when it forks: arm first, then
  // retire the warm worker so the next run's worker counts from its step 1.
  const ScopedFaults f("pool.worker.step=kill@" + std::to_string(kill_at));
  pool->shutdown();
  const std::uint64_t spawns = pool->spawns();
  const std::uint64_t restarts = pool->restarts();
  const core::Clustering crashed = core::cluster(g, o, &ctx);

  EXPECT_EQ(pool->restarts() - restarts, 1u);
  EXPECT_EQ(pool->spawns() - spawns, 2u);  // the fresh worker + its stand-in
  EXPECT_EQ(crashed.center_of, clean.center_of);
  EXPECT_EQ(crashed.dist_to_center, clean.dist_to_center);
  EXPECT_EQ(crashed.centers, clean.centers);
  EXPECT_EQ(crashed.radius, clean.radius);
  EXPECT_EQ(crashed.stages, clean.stages);
  EXPECT_EQ(crashed.stats, clean.stats);
  test::expect_cluster_matches(crashed, ref.clustering);
}

// Δ-stepping's pool stays resident in a warm context's RoundBuffers, so a
// worker forked in one run can die in a later one. Its stand-in forks from
// the later run's frame and replays just the lost step.
TEST(TransportChaos, WorkerKillInSecondWarmSsspReplaysBitIdentical) {
  const Graph g = test::make_family(Family::kGnmUniform, 200, 13);
  sssp::DeltaSteppingOptions o;
  o.partition.num_partitions = 4;
  o.transport = {.kind = mr::TransportKind::kPool, .processes = 2};
  const NodeId s1 = 0;
  const NodeId s2 = g.num_nodes() / 2;
  exec::Context clean_ctx;
  const auto clean1 = sssp::delta_stepping(g, s1, o, &clean_ctx);
  const auto clean2 = sssp::delta_stepping(g, s2, o, &clean_ctx);

  // Every superstep (one per relaxation round) reaches both workers, which
  // fork at run 1's first step with a zero hit count: kill@(steps1 + j)
  // fires in both on run 2's step j. The stand-ins count from zero again
  // and would die on run 2's step steps1 + 2j - 1, past its end for this j.
  const std::uint64_t steps1 = clean1.stats.relaxation_rounds;
  const std::uint64_t j = clean2.stats.relaxation_rounds / 2 + 1;
  const ScopedFaults f("pool.worker.step=kill@" + std::to_string(steps1 + j));
  exec::Context ctx;
  const mr::PoolTotals t0 = mr::pool_totals();
  const auto run1 = sssp::delta_stepping(g, s1, o, &ctx);
  const mr::PoolTotals t1 = mr::pool_totals();
  const auto run2 = sssp::delta_stepping(g, s2, o, &ctx);
  const mr::PoolTotals t2 = mr::pool_totals();

  EXPECT_EQ(t1.spawns - t0.spawns, 2u);
  EXPECT_EQ(t1.restarts, t0.restarts);  // run 1 ran clean on its own forks
  EXPECT_EQ(t2.restarts - t1.restarts, 2u);  // both died once, in run 2
  EXPECT_EQ(t2.spawns - t1.spawns, 2u);      // only their stand-ins forked
  for (const auto& [got, want] : {std::pair{&run1, &clean1},
                                  std::pair{&run2, &clean2}}) {
    EXPECT_EQ(got->dist, want->dist);
    EXPECT_EQ(got->farthest, want->farthest);
    EXPECT_EQ(got->buckets_processed, want->buckets_processed);
    EXPECT_EQ(got->stats, want->stats);  // wire counters included
  }
}

// A worker that answers later than the coordinator's spin budget (50 µs)
// is waited for with a blocking read, and a worker that waits longer than
// its own budget for the next step blocks too: a slow pool is slower, never
// different, and never mistaken for a dead one.
TEST(TransportChaos, WorkerDelayedPastTheSpinBudgetIsBitIdentical) {
  const Graph g = test::make_family(Family::kGnmUniform, 200, 13);
  sssp::DeltaSteppingOptions o;
  o.partition.num_partitions = 4;
  o.transport = {.kind = mr::TransportKind::kPool, .processes = 2};
  exec::Context clean_ctx;
  const auto clean = sssp::delta_stepping(g, 0, o, &clean_ctx);

  // Armed before the fork, so every worker step sleeps 5 ms. A one-thread
  // OpenMP team lets the pool spin on a box of 3 or more CPUs.
  const ScopedFaults f("pool.worker.step=delay:5");
  const int team = omp_get_max_threads();
  omp_set_num_threads(1);
  exec::Context ctx;
  const auto slow = sssp::delta_stepping(g, 0, o, &ctx);
  omp_set_num_threads(team);
  const auto* pool =
      dynamic_cast<mr::PoolTransport*>(ctx.round_buffers().transport.get());
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool->spin_waits(), net::usable_cpus() >= 3);
  EXPECT_EQ(pool->restarts(), 0u);
  EXPECT_EQ(pool->spawns(), 2u);
  EXPECT_EQ(slow.dist, clean.dist);
  EXPECT_EQ(slow.farthest, clean.farthest);
  EXPECT_EQ(slow.buckets_processed, clean.buckets_processed);
  EXPECT_EQ(slow.stats, clean.stats);  // wire_bytes and wire_messages too
  EXPECT_GT(slow.stats.wire_bytes, 0u);
}

// A run that ends in TransportError shuts its pool down; the next call on
// the same context must fork a fresh wave, not write to the dead sockets.
TEST(TransportChaos, SsspAfterTransportErrorRespawnsOnTheSameContext) {
  const Graph g = test::make_family(Family::kGnmUniform, 200, 13);
  sssp::DeltaSteppingOptions o;
  o.partition.num_partitions = 4;
  o.transport = {.kind = mr::TransportKind::kPool, .processes = 2};
  exec::Context ctx;
  const auto warm = sssp::delta_stepping(g, 0, o, &ctx);
  {
    // Every ship fails: the replays exhaust the restart budget.
    const ScopedFaults f("pool.ship=errno:EPIPE");
    EXPECT_THROW((void)sssp::delta_stepping(g, 0, o, &ctx),
                 mr::TransportError);
  }
  const mr::PoolTotals t = mr::pool_totals();
  const auto again = sssp::delta_stepping(g, 0, o, &ctx);
  EXPECT_EQ(mr::pool_totals().spawns - t.spawns, 2u);  // one clean wave
  EXPECT_EQ(mr::pool_totals().restarts, t.restarts);
  EXPECT_EQ(again.dist, warm.dist);
  EXPECT_EQ(again.stats, warm.stats);
}

TEST(TransportChaos, PoolSpawnFailureIsATypedTransportError) {
  const Graph g = test::make_family(Family::kGnmUniform, 120, 13);
  const ScopedFaults f("pool.spawn=errno:EAGAIN");  // every spawn fails
  EXPECT_THROW(
      run_growth(g, {.kind = mr::TransportKind::kPool, .processes = 2}),
      mr::TransportError);
}

// A compute that throws inside a pool worker is a deterministic failure:
// the worker reports it with a status frame instead of dying, so the
// superstep surfaces as one TransportError naming the cause — and the pool
// spends none of its replay budget re-running a step that always throws.
TEST(TransportChaos, PoolWorkerComputeThrowIsATypedTransportError) {
  const Graph g = gen::path(40);
  const mr::Partition part(g, {.num_partitions = 4,
                               .strategy = mr::PartitionStrategy::kRange});
  const std::uint32_t k = part.num_partitions();
  mr::PoolTransport pool((mr::Launcher(k, 2)));
  mr::BspEngine engine(part, &pool);
  mr::Exchange<std::uint64_t> ex(k);
  const pid_t coordinator = ::getpid();
  std::string what;
  try {
    engine.superstep(
        ex,
        [&](const mr::Shard& sh, mr::Exchange<std::uint64_t>& out) {
          if (::getpid() != coordinator) {
            throw std::runtime_error("compute failed");
          }
          out.send(sh.id, sh.id, 1);
        },
        [](const mr::Shard&, std::span<const std::uint64_t>) {});
  } catch (const mr::TransportError& e) {
    what = e.what();
  }
  EXPECT_NE(what.find("compute threw in pool worker"), std::string::npos)
      << what;
  EXPECT_EQ(pool.restarts(), 0u);  // no replay budget spent
  EXPECT_EQ(pool.spawns(), 2u);    // one spawn wave, never respawned
}

// ---------------------------------------------------------------------------
// Daemon chaos: typed errors, admission control, deadlines, degradation

constexpr const char* kSpec = "gen:mesh:side=16:weights=uniform:seed=7";

Message sssp_req(const char* graph, const char* source) {
  Message m;
  m.head = "sssp";
  m.set("graph", graph);
  m.set("source", source);
  return m;
}

TEST(ServerChaos, FaultVerbArmsReportsAndClears) {
  serve::ServerOptions sopts;
  sopts.socket_path = test_socket("verb");
  serve::Server server(sopts);
  server.start();

  Message arm;
  arm.head = "fault";
  arm.set("spec", "serve.load=errno@1");
  Message resp = roundtrip(sopts.socket_path, arm);
  EXPECT_EQ(resp.head, "ok");
  EXPECT_EQ(resp.get("armed"), "1");
  EXPECT_NE(resp.body.find("serve.load=errno"), std::string::npos);

  // The armed schedule bites: the first load fails as `internal` (the entry
  // stays retryable), the second — the @1 shot spent — succeeds.
  Message load;
  load.head = "load";
  load.set("graph", kSpec);
  resp = roundtrip(sopts.socket_path, load);
  EXPECT_EQ(resp.head, "error");
  EXPECT_EQ(resp.get("code"), serve::kErrInternal);
  resp = roundtrip(sopts.socket_path, load);
  EXPECT_EQ(resp.head, "ok");

  Message bad;
  bad.head = "fault";
  bad.set("spec", "not a spec");
  resp = roundtrip(sopts.socket_path, bad);
  EXPECT_EQ(resp.head, "error");
  EXPECT_EQ(resp.get("code"), serve::kErrBadRequest);

  Message clear;
  clear.head = "fault";
  clear.set("clear", "1");
  resp = roundtrip(sopts.socket_path, clear);
  EXPECT_EQ(resp.head, "ok");
  EXPECT_EQ(resp.get("armed"), "0");
  EXPECT_FALSE(fault::armed());
  server.stop();
}

TEST(ServerChaos, OversizedFrameGetsBadRequestThenDisconnect) {
  serve::ServerOptions sopts;
  sopts.socket_path = test_socket("oversz");
  serve::Server server(sopts);
  server.start();

  const int fd = net::connect_unix(sopts.socket_path);
  const std::uint32_t huge = serve::kMaxFrame + 1;
  ASSERT_TRUE(net::write_all(fd, &huge, sizeof huge));
  Message resp;
  ASSERT_TRUE(serve::read_message(fd, resp));
  EXPECT_EQ(resp.head, "error");
  EXPECT_EQ(resp.get("code"), serve::kErrBadRequest);
  // The stream was desynced by construction, so the daemon hangs up — it
  // must never try to re-frame garbage (or allocate the claimed 4 GiB).
  EXPECT_FALSE(serve::read_message(fd, resp));
  ::close(fd);
  server.stop();
}

TEST(ServerChaos, MalformedPayloadAnsweredAndConnectionSurvives) {
  serve::ServerOptions sopts;
  sopts.socket_path = test_socket("malformed");
  serve::Server server(sopts);
  server.start();

  const int fd = net::connect_unix(sopts.socket_path);
  const std::string payload = "estimate\nthis-line-has-no-equals\n";
  const auto len = static_cast<std::uint32_t>(payload.size());
  ASSERT_TRUE(net::write_all(fd, &len, sizeof len));
  ASSERT_TRUE(net::write_all(fd, payload.data(), payload.size()));
  Message resp;
  ASSERT_TRUE(serve::read_message(fd, resp));
  EXPECT_EQ(resp.head, "error");
  EXPECT_EQ(resp.get("code"), serve::kErrBadRequest);
  // Well-framed garbage leaves the stream at a frame boundary: the same
  // connection still serves a valid request.
  serve::write_message(fd, sssp_req("gen:path:nodes=50", "0"));
  ASSERT_TRUE(serve::read_message(fd, resp));
  EXPECT_EQ(resp.head, "ok");
  ::close(fd);
  server.stop();
}

TEST(ServerChaos, ExpiredDeadlineGetsTypedErrorNotService) {
  serve::ServerOptions sopts;
  sopts.socket_path = test_socket("deadline");
  sopts.worker_threads = 1;
  serve::Server server(sopts);
  server.start();

  // Park the scheduler at dequeue long past the client's budget.
  const ScopedFaults f("serve.dequeue=delay:300");
  Message req = sssp_req("gen:path:nodes=50", "0");
  req.set("deadline_ms", "50");
  const Message resp = roundtrip(sopts.socket_path, req);
  EXPECT_EQ(resp.head, "error");
  EXPECT_EQ(resp.get("code"), serve::kErrDeadlineExceeded);
  EXPECT_EQ(server.stats().deadline_exceeded.load(), 1u);

  Message bad = sssp_req("gen:path:nodes=50", "0");
  bad.set("deadline_ms", "soon");
  EXPECT_EQ(roundtrip(sopts.socket_path, bad).get("code"),
            serve::kErrBadRequest);
  server.stop();
}

TEST(ServerChaos, FullQueueShedsWithOverloaded) {
  serve::ServerOptions sopts;
  sopts.socket_path = test_socket("shed");
  sopts.worker_threads = 1;
  sopts.max_queue = 1;
  serve::Server server(sopts);
  server.start();

  // Warm the graph so queued requests are pure queue pressure.
  Message load;
  load.head = "load";
  load.set("graph", kSpec);
  EXPECT_EQ(roundtrip(sopts.socket_path, load).head, "ok");

  const ScopedFaults f("serve.dequeue=delay:800");
  // r1 is dequeued immediately and parked in the delay; r2 fills the
  // one-slot queue; r3 must be shed at admission with a typed error.
  std::thread t1([&] {
    EXPECT_EQ(roundtrip(sopts.socket_path, sssp_req(kSpec, "0")).head, "ok");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  std::thread t2([&] {
    EXPECT_EQ(roundtrip(sopts.socket_path, sssp_req(kSpec, "1")).head, "ok");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const Message shed = roundtrip(sopts.socket_path, sssp_req(kSpec, "2"));
  EXPECT_EQ(shed.head, "error");
  EXPECT_EQ(shed.get("code"), serve::kErrOverloaded);
  t1.join();
  t2.join();
  EXPECT_EQ(server.stats().shed.load(), 1u);

  // The new counters surface through the stats verb.
  Message stats;
  stats.head = "stats";
  const Message s = roundtrip(sopts.socket_path, stats);
  EXPECT_EQ(s.get("shed"), "1");
  EXPECT_EQ(s.get("deadline_exceeded"), "0");
  EXPECT_EQ(s.get("degraded"), "0");
  EXPECT_EQ(s.get("disconnected_slow"), "0");
  server.stop();
}

TEST(ServerChaos, ShutdownFinishesInFlightAndDrainsQueuedTyped) {
  serve::ServerOptions sopts;
  sopts.socket_path = test_socket("drain");
  sopts.worker_threads = 1;
  serve::Server server(sopts);
  server.start();

  Message load;
  load.head = "load";
  load.set("graph", kSpec);
  EXPECT_EQ(roundtrip(sopts.socket_path, load).head, "ok");

  const ScopedFaults f("serve.dequeue=delay:800");
  // r1 is in flight (inside the dequeue delay) when shutdown lands: it must
  // finish and answer ok. r2 is still queued: it must get `shutting_down`,
  // never a silent drop or a served-after-shutdown surprise.
  std::thread t1([&] {
    EXPECT_EQ(roundtrip(sopts.socket_path, sssp_req(kSpec, "0")).head, "ok");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  std::thread t2([&] {
    const Message r = roundtrip(sopts.socket_path, sssp_req(kSpec, "1"));
    EXPECT_EQ(r.head, "error");
    EXPECT_EQ(r.get("code"), serve::kErrShuttingDown);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  Message shutdown;
  shutdown.head = "shutdown";
  EXPECT_EQ(roundtrip(sopts.socket_path, shutdown).head, "ok");
  t1.join();
  t2.join();
  server.stop();
}

TEST(ServerChaos, PoolFailureDegradesToLocalBitIdentical) {
  serve::ServerOptions sopts;
  sopts.socket_path = test_socket("degrade");
  serve::Server server(sopts);
  server.start();

  // sssp rather than estimate: its relaxation rounds always go through the
  // BSP transport, while a tiny mesh decomposition at tau=8 can finish with
  // every node a center and zero supersteps — never touching the pool.
  Message base = sssp_req(kSpec, "0");
  base.set("partitions", "4");
  const Message local = roundtrip(sopts.socket_path, base);
  ASSERT_EQ(local.head, "ok");

  // With every pool spawn failing, the pool exhausts its restart budget and
  // throws mr::TransportError — which the scheduler answers by re-executing
  // on LocalTransport. The transport parity contract makes the degraded
  // body *equal to the local body*, down to the model-level counters.
  const ScopedFaults f("pool.spawn=errno:EAGAIN");
  Message pooled = base;
  pooled.set("transport", "pool");
  pooled.set("processes", "2");
  const Message degraded = roundtrip(sopts.socket_path, pooled);
  EXPECT_EQ(degraded.head, "ok");
  EXPECT_EQ(degraded.get("degraded"), "1");
  EXPECT_EQ(degraded.body, local.body);
  EXPECT_EQ(server.stats().degraded.load(), 1u);
  EXPECT_FALSE(local.has("degraded"));  // healthy responses are unmarked
  server.stop();
}

TEST(ServerChaos, SlowReaderIsDisconnectedNotWedgedOn) {
  serve::ServerOptions sopts;
  sopts.socket_path = test_socket("slow");
  sopts.worker_threads = 1;
  sopts.write_timeout_ms = 150;
  sopts.sndbuf_bytes = 4096;  // the test hook: tiny SO_SNDBUF fills fast
  serve::Server server(sopts);
  server.start();

  const int fd = net::connect_unix(sopts.socket_path);
  // Pipeline a few hundred requests and read none of the responses (each is
  // a ~250-byte summary, so it takes a pile of them): the tiny send buffer
  // fills, the bounded response write expires, and the daemon disconnects
  // this client instead of wedging its only worker forever.
  for (int i = 0; i < 300; ++i) {
    Message req = sssp_req("gen:path:nodes=50", "0");
    req.set("id", std::to_string(i));
    serve::write_message(fd, req);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.stats().disconnected_slow.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GE(server.stats().disconnected_slow.load(), 1u);
  ::close(fd);
  server.stop();
}

// The flagship contract, end to end: under a seeded probabilistic schedule
// of torn sends and reset reads, every run that still answers "ok" answers
// with *exactly* the clean baseline body. Failure is allowed; drift is not.
TEST(ServerChaos, SurvivedRunsUnderNetChaosAreBitIdentical) {
  serve::ServerOptions sopts;
  sopts.socket_path = test_socket("smoke");
  serve::Server server(sopts);
  server.start();

  Message est;
  est.head = "estimate";
  est.set("graph", kSpec);
  est.set("tau", "8");
  const Message baseline = roundtrip(sopts.socket_path, est);
  ASSERT_EQ(baseline.head, "ok");

  int survived = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    // Client and server share this process, so the schedule tears frames on
    // both sides of the socket — exactly the point.
    fault::arm("net.send=short%0.08:" + std::to_string(seed) +
               ";net.recv=errno:ECONNRESET%0.06:" + std::to_string(seed + 100));
    try {
      const int fd = net::connect_unix(sopts.socket_path);
      serve::write_message(fd, est);
      Message resp;
      const bool got = serve::read_message(fd, resp);
      ::close(fd);
      if (got && resp.head == "ok") {
        EXPECT_EQ(resp.body, baseline.body) << "seed " << seed;
        ++survived;
      }
    } catch (const std::exception&) {
      // A torn client-side frame is a failed run, not a failed test.
    }
    fault::disarm();
  }
  EXPECT_GT(survived, 0) << "every seeded run failed; schedule too hot";
  server.stop();
}

}  // namespace
}  // namespace gdiam
