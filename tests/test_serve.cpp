// Tests for the serving layer (serve/, DESIGN.md §10): protocol framing
// round-trips and malformed-input rejection, graph-spec parsing, the
// GraphStore's load-once semantics, and the Server end to end over a real
// AF_UNIX socket — sequential and concurrent clients, response-to-request
// id matching, served results bit-identical to direct library calls (the
// daemon parity acceptance criterion), the same-graph batcher, error
// responses, and the stats/shutdown verbs.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/diameter.hpp"
#include "mr/transport.hpp"
#include "serve/graphs.hpp"
#include "serve/protocol.hpp"
#include "serve/render.hpp"
#include "serve/server.hpp"
#include "sssp/delta_stepping.hpp"
#include "util/fault.hpp"
#include "util/net.hpp"

namespace gdiam::serve {
namespace {

/// Unique socket path per test (the suite may run in parallel with itself
/// under ctest -j; pid + a counter keeps paths disjoint).
std::string test_socket(const char* tag) {
  static int counter = 0;
  return "/tmp/gdiam_test_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + "_" + std::to_string(counter++) +
         ".sock";
}

/// One request over a fresh connection; asserts "ok" unless told otherwise.
Message roundtrip(const std::string& socket_path, Message req,
                  bool expect_ok = true) {
  const int fd = util::net::connect_unix(socket_path);
  write_message(fd, req);
  Message resp;
  EXPECT_TRUE(read_message(fd, resp));
  ::close(fd);
  if (expect_ok) {
    EXPECT_EQ(resp.head, "ok") << resp.get("message");
  }
  return resp;
}

// ---------------------------------------------------------------------------
// Protocol

TEST(Protocol, EncodeDecodeRoundTrip) {
  Message m;
  m.head = "estimate";
  m.set("graph", "gen:mesh:side=8");
  m.set("tau", "4");
  m.body = "line one\n\nline three after a blank\n";
  const Message d = decode(encode(m));
  EXPECT_EQ(d.head, m.head);
  ASSERT_EQ(d.fields.size(), 2u);
  EXPECT_EQ(d.get("graph"), "gen:mesh:side=8");
  EXPECT_EQ(d.get("tau"), "4");
  EXPECT_EQ(d.body, m.body);  // bodies with blank lines survive framing

  Message headless;
  headless.head = "stats";
  const Message d2 = decode(encode(headless));
  EXPECT_EQ(d2.head, "stats");
  EXPECT_TRUE(d2.fields.empty());
  EXPECT_TRUE(d2.body.empty());
}

TEST(Protocol, LastFieldWinsAndMissingFallsBack) {
  Message m;
  m.set("tau", "4");
  m.set("tau", "16");
  EXPECT_EQ(m.get("tau"), "16");
  EXPECT_EQ(m.get("absent", "fallback"), "fallback");
  EXPECT_TRUE(m.has("tau"));
  EXPECT_FALSE(m.has("absent"));
}

TEST(Protocol, DecodeRejectsMalformedFieldLine) {
  EXPECT_THROW(decode("verb\nnot-a-field\n"), std::invalid_argument);
}

TEST(Protocol, SocketFramingAndCleanEof) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Message m;
  m.head = "ok";
  m.body = "payload\n";
  write_message(fds[0], m);
  write_message(fds[0], m);
  ::close(fds[0]);
  Message r;
  EXPECT_TRUE(read_message(fds[1], r));
  EXPECT_EQ(r.body, "payload\n");
  EXPECT_TRUE(read_message(fds[1], r));
  EXPECT_FALSE(read_message(fds[1], r));  // clean EOF, not an error
  ::close(fds[1]);
}

TEST(Protocol, ReadRejectsOversizedAndTruncatedFrames) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::uint32_t huge = kMaxFrame + 1;
  ASSERT_TRUE(util::net::write_all(fds[0], &huge, sizeof huge));
  Message r;
  EXPECT_THROW(read_message(fds[1], r), std::invalid_argument);
  ::close(fds[0]);
  ::close(fds[1]);

  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::uint32_t len = 100;  // promises 100 bytes, delivers 3
  ASSERT_TRUE(util::net::write_all(fds[0], &len, sizeof len));
  ASSERT_TRUE(util::net::write_all(fds[0], "abc", 3));
  ::close(fds[0]);
  EXPECT_THROW(read_message(fds[1], r), std::runtime_error);
  ::close(fds[1]);
}

// ---------------------------------------------------------------------------
// Graph specs + store

TEST(GraphSpec, GenSpecsMatchGenerators) {
  const Graph mesh = make_graph("gen:mesh:side=8");
  EXPECT_EQ(mesh.num_nodes(), 64u);
  const Graph weighted = make_graph("gen:mesh:side=8:weights=uniform:seed=3");
  EXPECT_EQ(weighted.num_nodes(), 64u);
  EXPECT_NE(weighted.avg_weight(), mesh.avg_weight());
  const Graph p = make_graph("gen:path:nodes=100");
  EXPECT_EQ(p.num_nodes(), 100u);
  EXPECT_EQ(p.num_edges(), 99u);
  // Every family's keys parse, up to the limit of each parameter's type.
  EXPECT_EQ(make_graph("gen:torus:side=5:weights=int").num_nodes(), 25u);
  EXPECT_EQ(make_graph("gen:road:side=6:seed=2").num_nodes(), 36u);
  EXPECT_EQ(make_graph("gen:gnm:nodes=50:edges=100").num_nodes(), 50u);
  EXPECT_EQ(make_graph("gen:rmat:scale=6:edge-factor=4").num_nodes(), 64u);
  EXPECT_EQ(make_graph("gen:mesh:side=4:weights=bimodal:"
                       "seed=18446744073709551615")
                .num_nodes(),
            16u);
}

TEST(GraphSpec, RejectsMalformedSpecs) {
  EXPECT_THROW(make_graph("gen:"), std::invalid_argument);
  EXPECT_THROW(make_graph("gen:warp-drive"), std::invalid_argument);
  EXPECT_THROW(make_graph("gen:mesh:side"), std::invalid_argument);
  EXPECT_THROW(make_graph("gen:mesh:side=8:weights=imaginary"),
               std::invalid_argument);
  EXPECT_THROW(make_graph("gen:mesh:side=8x"), std::invalid_argument);
  // Strict keys: a typo must not serve the default graph or seed.
  EXPECT_THROW(make_graph("gen:mesh:sidee=64"), std::invalid_argument);
  EXPECT_THROW(make_graph("gen:mesh:side=8:weights=uniform:seeed=3"),
               std::invalid_argument);
  EXPECT_THROW(make_graph("gen:path:side=8"), std::invalid_argument);
  EXPECT_THROW(make_graph("gen:mesh:side=8:side=9"), std::invalid_argument);
  // Values: no sign, no blanks, nothing past the parameter's type.
  EXPECT_THROW(make_graph("gen:path:nodes=-1"), std::invalid_argument);
  EXPECT_THROW(make_graph("gen:path:nodes=+5"), std::invalid_argument);
  EXPECT_THROW(make_graph("gen:path:nodes= 5"), std::invalid_argument);
  EXPECT_THROW(make_graph("gen:path:nodes="), std::invalid_argument);
  EXPECT_THROW(make_graph("gen:mesh:side=4294967296"), std::invalid_argument);
  // side fits a node id but side² does not: the count would wrap.
  EXPECT_THROW(make_graph("gen:road:side=65536"), std::invalid_argument);
  EXPECT_THROW(make_graph("gen:torus:side=65536"), std::invalid_argument);
  EXPECT_THROW(make_graph("gen:mesh:seed=18446744073709551616"),
               std::invalid_argument);
}

TEST(GraphStore, LoadsOncePerSpecAndSnapshotsInLoadOrder) {
  GraphStore store;
  GraphStore::Entry& a = store.get("gen:mesh:side=8");
  GraphStore::Entry& b = store.get("gen:path:nodes=50");
  GraphStore::Entry& a2 = store.get("gen:mesh:side=8");
  EXPECT_EQ(&a, &a2);  // same entry, same warm context
  EXPECT_EQ(store.size(), 2u);
  a.served.fetch_add(3);
  const auto snap = store.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].spec, "gen:mesh:side=8");
  EXPECT_EQ(snap[0].nodes, 64u);
  EXPECT_EQ(snap[0].served, 3u);
  EXPECT_EQ(snap[1].spec, "gen:path:nodes=50");
  (void)b;
}

TEST(GraphStore, SpellingsOfOneGraphShareOneEntry) {
  GraphStore store;
  GraphStore::Entry& a = store.get("gen:mesh:side=64");
  EXPECT_EQ(&store.get("gen:mesh:side=64:seed=1"), &a);
  EXPECT_EQ(&store.get("gen:mesh:seed=1:side=64"), &a);
  EXPECT_EQ(&store.get("gen:mesh:side=064"), &a);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.snapshot()[0].spec, "gen:mesh:side=64");  // first spelling
  EXPECT_EQ(canonical_spec("gen:mesh:side=064"),
            "gen:mesh:seed=1:side=64:weights=keep");
  EXPECT_NE(&store.get("gen:mesh:side=64:seed=2"), &a);  // another graph
  EXPECT_EQ(canonical_spec("/tmp/g.gcsr"), "file:/tmp/g.gcsr");
  EXPECT_EQ(canonical_spec("file:/tmp/g.gcsr"), "file:/tmp/g.gcsr");
}

TEST(GraphStore, FailedLoadIsRetryableNotCached) {
  GraphStore store;
  EXPECT_THROW(store.get("gen:no-such-family"), std::invalid_argument);
  EXPECT_EQ(store.size(), 0u);  // the failure did not poison the store
  EXPECT_THROW(store.get("gen:no-such-family"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Server end to end

constexpr const char* kSpec = "gen:mesh:side=16:weights=uniform:seed=7";

TEST(Server, ServesEstimateAndSsspBitIdenticalToDirectCalls) {
  ServerOptions sopts;
  sopts.socket_path = test_socket("parity");
  Server server(sopts);
  server.start();

  Message est;
  est.head = "estimate";
  est.set("graph", kSpec);
  est.set("tau", "8");
  const Message est_resp = roundtrip(sopts.socket_path, est);

  Message sp;
  sp.head = "sssp";
  sp.set("graph", kSpec);
  sp.set("source", "5");
  const Message sssp_resp = roundtrip(sopts.socket_path, sp);
  server.stop();

  // The acceptance criterion: served bodies equal the rendering of a direct
  // library call — results AND model-level counters, bit for bit.
  const Graph g = make_graph(kSpec);
  exec::Context ctx;
  core::DiameterApproxOptions dopt;
  dopt.cluster.tau = 8;
  const auto direct_est = core::approximate_diameter(g, dopt, &ctx);
  EXPECT_EQ(est_resp.body, render_estimate(direct_est, 8));

  exec::Context ctx2;
  const auto direct_sssp = sssp::delta_stepping(g, 5, {}, &ctx2);
  EXPECT_EQ(sssp_resp.body, render_sssp(5, direct_sssp));
}

TEST(Server, WarmRepeatsAreIdenticalAndPoolTransportServes) {
  ServerOptions sopts;
  sopts.socket_path = test_socket("warm");
  Server server(sopts);
  server.start();

  Message est;
  est.head = "estimate";
  // side=16 completes before any remote exchange fires; side=32 is the
  // smallest mesh in the family that provably moves bytes over the pool.
  est.set("graph", "gen:mesh:side=32:weights=uniform:seed=7");
  est.set("tau", "8");
  est.set("partitions", "4");
  est.set("transport", "pool");
  est.set("processes", "2");
  Message stats;
  stats.head = "stats";
  const Message cold = roundtrip(sopts.socket_path, est);
  const Message after_cold = roundtrip(sopts.socket_path, stats);
  const Message warm1 = roundtrip(sopts.socket_path, est);
  const Message warm2 = roundtrip(sopts.socket_path, est);
  const Message after_warm = roundtrip(sopts.socket_path, stats);
  server.stop();
  // Same graph, same options, warm context + resident pool workers: the
  // response must not drift run over run (cost line included).
  EXPECT_EQ(warm1.body, cold.body);
  EXPECT_EQ(warm2.body, cold.body);
  // The cold estimate forked the pool's workers; the warm ones reuse them.
  EXPECT_NE(after_cold.get("pool_spawns"), "0");
  EXPECT_EQ(after_warm.get("pool_spawns"), after_cold.get("pool_spawns"));
  EXPECT_EQ(after_warm.get("pool_restarts"), after_cold.get("pool_restarts"));
  EXPECT_NE(cold.body.find("wire="), std::string::npos)
      << "pool transport must report wire traffic";
}

TEST(Server, WarmPooledSsspForksNoWorkers) {
  ServerOptions sopts;
  sopts.socket_path = test_socket("warm_sssp");
  Server server(sopts);
  server.start();

  Message sp;
  sp.head = "sssp";
  sp.set("graph", "gen:mesh:side=32:weights=uniform:seed=7");
  sp.set("source", "5");
  sp.set("partitions", "4");
  sp.set("transport", "pool");
  sp.set("processes", "2");
  Message stats;
  stats.head = "stats";
  const Message cold = roundtrip(sopts.socket_path, sp);
  const Message after_cold = roundtrip(sopts.socket_path, stats);
  const Message warm1 = roundtrip(sopts.socket_path, sp);
  sp.set("source", "900");
  const Message warm2 = roundtrip(sopts.socket_path, sp);
  const Message after_warm = roundtrip(sopts.socket_path, stats);
  server.stop();
  EXPECT_EQ(warm1.body, cold.body);
  EXPECT_NE(warm2.body, cold.body);  // another source, served warm
  // The cold request forked the context's sssp pool; warm ones reuse it,
  // from any source.
  EXPECT_NE(after_cold.get("pool_spawns"), "0");
  EXPECT_EQ(after_warm.get("pool_spawns"), after_cold.get("pool_spawns"));
  EXPECT_EQ(after_warm.get("pool_restarts"), after_cold.get("pool_restarts"));
  EXPECT_NE(cold.body.find("wire="), std::string::npos);
}

// Both presplits cached, an sssp pool serves two delta= values alternately
// without re-forking: a switch ships Δ to the resident workers.
TEST(Server, DeltaSwitchKeepsPoolWorkers) {
  ServerOptions sopts;
  sopts.socket_path = test_socket("delta_switch");
  Server server(sopts);
  server.start();

  Message sp;
  sp.head = "sssp";
  sp.set("graph", "gen:mesh:side=32:weights=uniform:seed=7");
  sp.set("source", "5");
  sp.set("partitions", "4");
  sp.set("transport", "pool");
  sp.set("processes", "2");
  Message sp3 = sp;
  sp3.set("delta", "0.3");
  Message stats;
  stats.head = "stats";
  const Message first = roundtrip(sopts.socket_path, sp);
  const Message first3 = roundtrip(sopts.socket_path, sp3);
  const Message warm = roundtrip(sopts.socket_path, stats);
  std::vector<Message> again;
  for (int i = 0; i < 2; ++i) {
    again.push_back(roundtrip(sopts.socket_path, sp));
    again.push_back(roundtrip(sopts.socket_path, sp3));
  }
  const Message after = roundtrip(sopts.socket_path, stats);
  server.stop();
  EXPECT_NE(warm.get("pool_spawns"), "0");
  EXPECT_EQ(after.get("pool_spawns"), warm.get("pool_spawns"));
  EXPECT_EQ(after.get("pool_restarts"), warm.get("pool_restarts"));
  // Same result and counters as the first run at each Δ. Only wire= may
  // differ: a switching run also ships its Δ, 8 bytes per shard
  // (PoolResidency.DeltaSwitchShipsDeltaAndKeepsWorkers pins the count).
  auto without_wire = [](std::string body) {
    const std::size_t at = body.find(" wire=");
    if (at != std::string::npos) {
      body.erase(at, body.find(' ', at + 1) - at);
    }
    return body;
  };
  for (std::size_t i = 0; i < again.size(); ++i) {
    EXPECT_EQ(without_wire(again[i].body),
              without_wire((i % 2 == 0 ? first : first3).body))
        << i;
  }
  EXPECT_NE(first.body, first3.body);
  EXPECT_NE(without_wire(first.body), first.body);  // wire= was there
}

// With two workers on one graph, a batch must not overtake an earlier one
// whose worker has not reached the graph yet: the first request is held
// at dequeue, and the later ones queue behind it in admission order.
TEST(Server, OneGraphIsServedInAdmissionOrder) {
  ServerOptions sopts;
  sopts.socket_path = test_socket("fifo");
  sopts.worker_threads = 2;
  sopts.max_batch = 1;  // one request per batch: every request takes a turn
  Server server(sopts);
  server.start();

  Message load;
  load.head = "load";
  load.set("graph", "gen:mesh:side=16:weights=uniform:seed=7");
  roundtrip(sopts.socket_path, load);

  struct ScopedFaults {
    ScopedFaults() { util::fault::arm("serve.dequeue=delay:300@1"); }
    ~ScopedFaults() { util::fault::disarm(); }
  } const faults;
  const int fd = util::net::connect_unix(sopts.socket_path);
  constexpr int kRequests = 4;
  for (int i = 0; i < kRequests; ++i) {
    Message sp;
    sp.head = "sssp";
    sp.set("graph", "gen:mesh:side=16:weights=uniform:seed=7");
    sp.set("source", std::to_string(i));
    sp.set("id", std::to_string(i));
    write_message(fd, sp);
    // The first request reaches a worker (and its 300 ms delay) before the
    // rest arrive.
    if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  // One connection: responses arrive in the order they were served.
  std::vector<std::string> order;
  for (int i = 0; i < kRequests; ++i) {
    Message resp;
    ASSERT_TRUE(read_message(fd, resp));
    EXPECT_EQ(resp.head, "ok") << resp.get("message");
    order.push_back(resp.get("id"));
  }
  ::close(fd);
  server.stop();
  EXPECT_EQ(order, (std::vector<std::string>{"0", "1", "2", "3"}));
}

TEST(Server, SpellingsOfOneGraphAreOneStatsEntry) {
  ServerOptions sopts;
  sopts.socket_path = test_socket("spellings");
  Server server(sopts);
  server.start();
  for (const char* spec : {"gen:mesh:side=64", "gen:mesh:side=64:seed=1",
                           "gen:mesh:seed=1:side=64", "gen:mesh:side=064"}) {
    Message load;
    load.head = "load";
    load.set("graph", spec);
    EXPECT_EQ(roundtrip(sopts.socket_path, load).get("nodes"), "4096");
  }
  Message stats;
  stats.head = "stats";
  const Message s = roundtrip(sopts.socket_path, stats);
  server.stop();
  EXPECT_EQ(s.get("graphs"), "1");
}

TEST(Server, ConcurrentClientsGetMatchedResponses) {
  ServerOptions sopts;
  sopts.socket_path = test_socket("conc");
  sopts.worker_threads = 2;
  Server server(sopts);
  server.start();

  // Reference bodies, served once each.
  Message est;
  est.head = "estimate";
  est.set("graph", kSpec);
  est.set("tau", "8");
  const std::string est_body = roundtrip(sopts.socket_path, est).body;
  std::vector<std::string> sssp_body(4);
  for (int s = 0; s < 4; ++s) {
    Message sp;
    sp.head = "sssp";
    sp.set("graph", kSpec);
    sp.set("source", std::to_string(s));
    sssp_body[s] = roundtrip(sopts.socket_path, sp).body;
  }

  // 4 threads × 8 pipelined requests each, mixed verbs, ids checked.
  std::vector<std::thread> clients;
  std::vector<int> failures(4, 0);
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      const int fd = util::net::connect_unix(sopts.socket_path);
      for (int i = 0; i < 8; ++i) {
        Message req;
        const int src = (t + i) % 4;
        if (i % 2 == 0) {
          req.head = "estimate";
          req.set("graph", kSpec);
          req.set("tau", "8");
        } else {
          req.head = "sssp";
          req.set("graph", kSpec);
          req.set("source", std::to_string(src));
        }
        req.set("id", std::to_string(t * 100 + i));
        write_message(fd, req);
        Message resp;
        if (!read_message(fd, resp) || resp.head != "ok" ||
            resp.get("id") != std::to_string(t * 100 + i) ||
            resp.body != (i % 2 == 0 ? est_body : sssp_body[src])) {
          ++failures[t];
        }
      }
      ::close(fd);
    });
  }
  for (auto& c : clients) c.join();
  const ServerStats& stats = server.stats();
  EXPECT_EQ(stats.requests.load(), 5u + 4u * 8u);
  EXPECT_EQ(stats.errors.load(), 0u);
  server.stop();
  for (int t = 0; t < 4; ++t) {
    EXPECT_EQ(failures[t], 0) << "client " << t;
  }
}

// The same-graph batcher: stuff the queue while a long request holds the
// only worker, then check that the backlog was coalesced into fewer
// dispatches than requests.
TEST(Server, SameGraphRequestsBatch) {
  ServerOptions sopts;
  sopts.socket_path = test_socket("batch");
  sopts.worker_threads = 1;  // one worker => the backlog provably queues
  sopts.max_batch = 16;
  Server server(sopts);
  server.start();

  // Warm the graph so the backlog requests are pure queue pressure.
  Message warm;
  warm.head = "load";
  warm.set("graph", kSpec);
  roundtrip(sopts.socket_path, warm);

  constexpr int kClients = 6;
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&] {
      Message sp;
      sp.head = "sssp";
      sp.set("graph", kSpec);
      sp.set("source", "0");
      roundtrip(sopts.socket_path, sp);
    });
  }
  for (auto& c : clients) c.join();
  const ServerStats& stats = server.stats();
  server.stop();
  EXPECT_EQ(stats.requests.load(), 1u + kClients);
  EXPECT_EQ(stats.errors.load(), 0u);
  // Not asserting a specific coalescing count (arrival timing is the
  // scheduler's input), only that dispatches never exceed requests and the
  // counters are consistent.
  EXPECT_LE(stats.batches.load(), stats.requests.load());
  EXPECT_EQ(stats.batches.load() + stats.batched_requests.load(),
            stats.requests.load());
}

TEST(Server, ErrorResponsesForBadRequests) {
  ServerOptions sopts;
  sopts.socket_path = test_socket("err");
  Server server(sopts);
  server.start();

  Message bad_verb;
  bad_verb.head = "transmogrify";
  EXPECT_EQ(roundtrip(sopts.socket_path, bad_verb, false).head, "error");

  Message no_graph;
  no_graph.head = "estimate";
  EXPECT_EQ(roundtrip(sopts.socket_path, no_graph, false).head, "error");

  Message bad_spec;
  bad_spec.head = "estimate";
  bad_spec.set("graph", "gen:warp-drive");
  EXPECT_EQ(roundtrip(sopts.socket_path, bad_spec, false).head, "error");

  Message typo_spec;
  typo_spec.head = "estimate";
  typo_spec.set("graph", "gen:mesh:sidee=64");
  const Message typo = roundtrip(sopts.socket_path, typo_spec, false);
  EXPECT_EQ(typo.head, "error");
  EXPECT_EQ(typo.get("code"), kErrBadRequest);
  EXPECT_NE(typo.get("message").find("sidee"), std::string::npos);

  Message bad_source;
  bad_source.head = "sssp";
  bad_source.set("graph", "gen:path:nodes=10");
  bad_source.set("source", "99");
  const Message resp = roundtrip(sopts.socket_path, bad_source, false);
  EXPECT_EQ(resp.head, "error");
  EXPECT_NE(resp.get("message").find("out of range"), std::string::npos);

  // The connection survives its errors: a good request still works on it.
  Message good;
  good.head = "sssp";
  good.set("graph", "gen:path:nodes=10");
  good.set("source", "9");
  EXPECT_EQ(roundtrip(sopts.socket_path, good).head, "ok");

  EXPECT_EQ(server.stats().errors.load(), 5u);
  server.stop();
}

TEST(Server, RemovedFrontierFieldsAreBadRequests) {
  // adaptive= and sampled-frontier= selected frontier baselines, and
  // algorithm= / rho= a second SSSP kernel, that no longer exist: a request
  // still carrying them is refused, not served with the field silently
  // ignored — even algorithm=delta, the value that used to be the default.
  ServerOptions sopts;
  sopts.socket_path = test_socket("removed");
  Server server(sopts);
  server.start();
  struct Case {
    const char* verb;
    const char* field;
    const char* value;
  };
  const Case cases[] = {
      {"estimate", "adaptive", "1"},  {"estimate", "sampled-frontier", "1"},
      {"sssp", "adaptive", "1"},      {"sssp", "sampled-frontier", "1"},
      {"sssp", "algorithm", "delta"}, {"sssp", "algorithm", "rho"},
      {"sssp", "rho", "64"},
  };
  for (const Case& c : cases) {
    Message req;
    req.head = c.verb;
    req.set("graph", "gen:path:nodes=10");
    req.set(c.field, c.value);
    const Message resp = roundtrip(sopts.socket_path, req, false);
    EXPECT_EQ(resp.head, "error") << c.verb << " " << c.field << "=" << c.value;
    EXPECT_EQ(resp.get("code"), kErrBadRequest) << c.verb << " " << c.field;
    EXPECT_NE(resp.get("message").find(std::string("'") + c.field + "'"),
              std::string::npos)
        << resp.get("message");
    EXPECT_NE(resp.get("message").find("was removed"), std::string::npos)
        << resp.get("message");
  }
  server.stop();
}

TEST(Server, RemovedTransportProcessIsBadRequest) {
  // transport=process selected the fork-per-superstep transport, which no
  // longer exists; processes= alongside transport=local is a contradiction
  // the CLI always refused. Both are refused here too (one shared parser,
  // mr::parse_transport_options), never served with a field ignored.
  ServerOptions sopts;
  sopts.socket_path = test_socket("removed_transport");
  Server server(sopts);
  server.start();
  struct Case {
    const char* transport;
    const char* processes;  // nullptr: field absent
    const char* expect;     // substring of the error message
  };
  for (const char* verb : {"estimate", "sssp"}) {
    for (const Case& c : {Case{"process", nullptr, "removed"},
                          Case{"process", "2", "removed"},
                          Case{"local", "2", "conflict"}}) {
      Message req;
      req.head = verb;
      req.set("graph", "gen:path:nodes=10");
      req.set("partitions", "4");
      req.set("transport", c.transport);
      if (c.processes != nullptr) req.set("processes", c.processes);
      const Message resp = roundtrip(sopts.socket_path, req, false);
      EXPECT_EQ(resp.head, "error") << verb << " " << c.transport;
      EXPECT_EQ(resp.get("code"), kErrBadRequest) << verb << " " << c.transport;
      EXPECT_NE(resp.get("message").find(c.expect), std::string::npos)
          << resp.get("message");
    }
  }
  server.stop();
}

TEST(Server, StatsAndShutdownVerbs) {
  ServerOptions sopts;
  sopts.socket_path = test_socket("stats");
  Server server(sopts);
  server.start();

  Message load;
  load.head = "load";
  load.set("graph", "gen:path:nodes=64");
  const Message load_resp = roundtrip(sopts.socket_path, load);
  EXPECT_EQ(load_resp.get("nodes"), "64");
  EXPECT_EQ(load_resp.get("edges"), "63");

  Message stats;
  stats.head = "stats";
  const Message s = roundtrip(sopts.socket_path, stats);
  EXPECT_EQ(s.get("graphs"), "1");
  EXPECT_EQ(s.get("errors"), "0");
  EXPECT_EQ(s.get("pool_unclean_exits"),
            std::to_string(mr::pool_totals().unclean_exits));
  EXPECT_NE(s.body.find("gen:path:nodes=64"), std::string::npos);

  Message shutdown;
  shutdown.head = "shutdown";
  EXPECT_EQ(roundtrip(sopts.socket_path, shutdown).head, "ok");
  server.wait();  // the verb must have tripped the stop signal
  server.stop();
  EXPECT_FALSE(server.running());
}

}  // namespace
}  // namespace gdiam::serve
