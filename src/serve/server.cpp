#include "serve/server.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/cluster.hpp"
#include "core/diameter.hpp"
#include "mr/transport.hpp"
#include "serve/render.hpp"
#include "sssp/delta_stepping.hpp"
#include "util/fault.hpp"
#include "util/net.hpp"

namespace gdiam::serve {

namespace net = gdiam::util::net;

namespace {

std::uint64_t field_u64(const Message& m, const std::string& key,
                        std::uint64_t fallback) {
  const std::string v = m.get(key);
  if (v.empty()) return fallback;
  std::size_t used = 0;
  const unsigned long long parsed = std::stoull(v, &used);
  if (used != v.size()) {
    throw std::invalid_argument("bad value for '" + key + "': " + v);
  }
  return parsed;
}

std::uint32_t field_u32(const Message& m, const std::string& key,
                        std::uint32_t fallback) {
  const std::uint64_t v = field_u64(m, key, fallback);
  if (v > 0xffffffffull) {
    throw std::invalid_argument("value for '" + key + "' out of range");
  }
  return static_cast<std::uint32_t>(v);
}

double field_double(const Message& m, const std::string& key,
                    double fallback) {
  const std::string v = m.get(key);
  if (v.empty()) return fallback;
  std::size_t used = 0;
  const double parsed = std::stod(v, &used);
  if (used != v.size()) {
    throw std::invalid_argument("bad value for '" + key + "': " + v);
  }
  return parsed;
}

bool field_bool(const Message& m, const std::string& key, bool fallback) {
  const std::string v = m.get(key);
  if (v.empty()) return fallback;
  if (v == "1" || v == "true") return true;
  if (v == "0" || v == "false") return false;
  throw std::invalid_argument("bad boolean for '" + key + "': " + v);
}

/// The shared execution fields, with the CLI's exact semantics and
/// defaults: partitions (1), range-partition (hash), transport local|pool
/// (mr::parse_transport_options; processes=N alone implies pool). Removed
/// fields are refused rather than ignored, so a client still sending them
/// learns they no longer apply.
void apply_exec_fields(const Message& m, exec::ExecOptions& opt) {
  constexpr const char* kFrontier =
      "the frontier is always adaptive and exactly sized";
  constexpr const char* kKernel = "sssp always runs Delta-stepping";
  const std::pair<const char*, const char*> removed[] = {
      {"adaptive", kFrontier},
      {"sampled-frontier", kFrontier},
      {"algorithm", kKernel},
      {"rho", kKernel},
  };
  for (const auto& [field, why] : removed) {
    if (m.has(field)) {
      throw std::invalid_argument(std::string("field '") + field +
                                  "' was removed: " + why);
    }
  }
  opt.partition.num_partitions = field_u32(m, "partitions", 1);
  if (opt.partition.num_partitions == 0) {
    throw std::invalid_argument("partitions must be >= 1");
  }
  opt.partition.strategy = field_bool(m, "range-partition", false)
                               ? mr::PartitionStrategy::kRange
                               : mr::PartitionStrategy::kHash;
  std::optional<std::uint32_t> processes;
  if (m.has("processes")) processes = field_u32(m, "processes", 2);
  opt.transport = mr::parse_transport_options(
      m.get("transport"), processes, opt.partition.num_partitions);
}

bool deadline_expired(
    const std::chrono::steady_clock::time_point& deadline) noexcept {
  return deadline != std::chrono::steady_clock::time_point::max() &&
         std::chrono::steady_clock::now() >= deadline;
}

}  // namespace

Server::Server(ServerOptions opts) : opts_(std::move(opts)) {
  if (opts_.worker_threads == 0) opts_.worker_threads = 1;
  if (opts_.max_batch == 0) opts_.max_batch = 1;
  if (opts_.max_queue == 0) opts_.max_queue = 1;
}

Server::~Server() {
  try {
    stop();
  } catch (...) {  // a dtor must not throw; stop() is best-effort here
  }
}

void Server::start() {
  if (running_.load()) throw std::logic_error("server already started");
  listen_fd_ = net::listen_unix(opts_.socket_path, /*backlog=*/64);
  running_.store(true);
  stopping_.store(false);
  accept_thread_ = std::thread([this] { accept_loop(); });
  workers_.reserve(opts_.worker_threads);
  for (std::uint32_t i = 0; i < opts_.worker_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void Server::request_stop() {
  if (stopping_.exchange(true)) return;
  // Wake the accept thread (close the listener) and every reader (shut the
  // read side; in-flight responses still go out on the write side).
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  {
    const std::lock_guard<std::mutex> lk(conns_mu_);
    for (const auto& c : conns_) {
      if (c->fd >= 0) ::shutdown(c->fd, SHUT_RD);
    }
  }
  qcv_.notify_all();
  stop_cv_.notify_all();
}

void Server::wait() {
  std::unique_lock<std::mutex> lk(stop_mu_);
  stop_cv_.wait(lk, [this] { return stopping_.load(); });
}

void Server::stop() {
  if (!running_.load()) return;
  request_stop();
  if (accept_thread_.joinable()) accept_thread_.join();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  for (auto& r : readers_) {
    if (r.joinable()) r.join();
  }
  workers_.clear();
  readers_.clear();
  {
    const std::lock_guard<std::mutex> lk(conns_mu_);
    for (const auto& c : conns_) {
      if (c->fd >= 0) ::close(c->fd);
      c->fd = -1;
    }
    conns_.clear();
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
  ::unlink(opts_.socket_path.c_str());
  running_.store(false);
}

void Server::accept_loop() {
  while (!stopping_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load()) break;
      if (errno == EINTR) continue;
      break;  // listener broken: no way to serve further clients
    }
    if (stopping_.load()) {
      ::close(fd);
      break;
    }
    // Fault point: an errno drops this connection at the door (accept-layer
    // chaos); a delay stalls admission without holding any lock.
    if (util::fault::check("serve.accept").fail) {
      ::close(fd);
      continue;
    }
    if (opts_.sndbuf_bytes > 0) {
      const int v = static_cast<int>(opts_.sndbuf_bytes);
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &v, sizeof v);
    }
    stats_.connections.fetch_add(1, std::memory_order_relaxed);
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    {
      const std::lock_guard<std::mutex> lk(conns_mu_);
      conns_.push_back(conn);
    }
    readers_.emplace_back([this, conn] { reader_loop(conn); });
  }
}

void Server::reader_loop(std::shared_ptr<Connection> conn) {
  Message req;
  while (!stopping_.load()) {
    try {
      if (!read_message(conn->fd, req)) break;  // client hung up
    } catch (const FrameError& e) {
      // Oversized length prefix: the stream is desynced — whatever follows
      // is not at a frame boundary. Answer once, then hang up.
      send_error(*conn, Message{}, kErrBadRequest, e.what());
      break;
    } catch (const std::invalid_argument& e) {
      // Malformed payload inside a well-framed message: the stream is
      // still at a frame boundary, so the connection stays usable.
      send_error(*conn, Message{}, kErrBadRequest, e.what());
      continue;
    } catch (const std::exception&) {
      break;  // torn frame or dead socket: nothing sane to answer onto
    }
    // Control verbs are answered inline: they must respond even when every
    // worker is pinned under a long estimate.
    if (req.head == "stats") {
      Message resp = handle_stats();
      if (req.has("id")) resp.set("id", req.get("id"));
      send_response(*conn, resp);
      continue;
    }
    if (req.head == "fault") {
      Message resp = handle_fault(req);
      if (req.has("id")) resp.set("id", req.get("id"));
      send_response(*conn, resp);
      continue;
    }
    if (req.head == "shutdown") {
      Message resp;
      resp.head = "ok";
      if (req.has("id")) resp.set("id", req.get("id"));
      send_response(*conn, resp);
      request_stop();
      continue;  // the shutdown also shut our read side: next read EOFs
    }
    const std::string graph = req.get("graph");
    if (req.head != "estimate" && req.head != "sssp" && req.head != "load") {
      send_error(*conn, req, kErrBadRequest,
                 "unknown verb '" + req.head + "'");
      continue;
    }
    if (graph.empty()) {
      send_error(*conn, req, kErrBadRequest,
                 req.head + " requires a graph= field");
      continue;
    }
    Request r{conn, Message{}, graph};
    try {
      const std::uint64_t dl = field_u64(req, "deadline_ms", 0);
      if (dl != 0) {
        r.deadline =
            std::chrono::steady_clock::now() + std::chrono::milliseconds(dl);
      }
    } catch (const std::exception& e) {
      send_error(*conn, req, kErrBadRequest, e.what());
      continue;
    }
    if (stopping_.load()) {
      send_error(*conn, req, kErrShuttingDown, "daemon is shutting down");
      break;
    }
    // Admission control: past max_queue the request is shed here, with an
    // immediate typed error, instead of queueing without bound — a deep
    // queue only converts overload into deadline misses.
    bool accepted = false;
    {
      const std::lock_guard<std::mutex> lk(qmu_);
      if (queue_.size() < opts_.max_queue) {
        r.msg = std::move(req);
        queue_.push_back(std::move(r));
        accepted = true;
      }
    }
    if (!accepted) {
      stats_.shed.fetch_add(1, std::memory_order_relaxed);
      send_error(*conn, req, kErrOverloaded, "request queue is full");
      continue;
    }
    stats_.requests.fetch_add(1, std::memory_order_relaxed);
    qcv_.notify_one();
    req = Message{};
  }
  // A reader exits mid-run only because this connection is done (client hung
  // up, desynced stream, dead socket): EOF the peer now, or a client blocked
  // on read_message after a `bad_request` answer would wait until stop() for
  // the close. The fd itself stays open until stop() so late worker responses
  // hit EPIPE rather than a reused descriptor. During a stop, leave the write
  // side up — drain errors for still-queued requests go out on it.
  if (!stopping_.load()) ::shutdown(conn->fd, SHUT_RDWR);
}

void Server::worker_loop() {
  while (true) {
    std::vector<Request> batch;
    {
      std::unique_lock<std::mutex> lk(qmu_);
      qcv_.wait(lk, [this] { return stopping_.load() || !queue_.empty(); });
      if (stopping_.load()) {
        // Graceful drain: in-flight batches (already popped, running on
        // other workers) finish normally; everything still queued gets a
        // typed `shutting_down` error, never a silent drop.
        std::deque<Request> drained;
        drained.swap(queue_);
        lk.unlock();
        for (Request& r : drained) {
          send_error(*r.conn, r.msg, kErrShuttingDown,
                     "daemon is shutting down");
        }
        return;
      }
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
      // The batcher: pull every pending same-graph request (arrival order
      // preserved — erase keeps the relative order of the rest).
      for (auto it = queue_.begin();
           it != queue_.end() && batch.size() < opts_.max_batch;) {
        if (it->graph == batch.front().graph) {
          batch.push_back(std::move(*it));
          it = queue_.erase(it);
        } else {
          ++it;
        }
      }
    }
    // Fault point: a delay here stretches queue residency (the deadline and
    // shedding tests lean on it); an errno is ignored — dequeue cannot fail.
    util::fault::check("serve.dequeue");
    stats_.batches.fetch_add(1, std::memory_order_relaxed);
    stats_.batched_requests.fetch_add(batch.size() - 1,
                                      std::memory_order_relaxed);
    serve_batch(batch);
  }
}

void Server::serve_batch(std::vector<Request>& batch) {
  GraphStore::Entry* entry = nullptr;
  try {
    entry = &store_.get(batch.front().graph);
  } catch (const std::invalid_argument& e) {
    for (Request& r : batch) {
      send_error(*r.conn, r.msg, kErrBadRequest, e.what());
    }
    return;
  } catch (const std::exception& e) {
    for (Request& r : batch) {
      send_error(*r.conn, r.msg, kErrInternal, e.what());
    }
    return;
  }
  // One lock acquisition for the whole batch: every request in it computes
  // on the same warm context, back to back.
  const std::lock_guard<std::mutex> lk(entry->mu);
  for (Request& r : batch) {
    // Deadline re-check before each item: a long head query may have eaten
    // the whole budget of the requests batched behind it.
    if (deadline_expired(r.deadline)) {
      stats_.deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
      send_error(*r.conn, r.msg, kErrDeadlineExceeded,
                 "deadline_ms expired before service");
      continue;
    }
    Message resp;
    try {
      resp = handle_query(*entry, r.msg, /*force_local=*/false);
    } catch (const mr::TransportError& e) {
      // Degradation ladder (DESIGN.md §11): the remote transport is
      // terminally gone — e.g. a pool group past its restart budget. The
      // transport parity contract makes a LocalTransport re-execution
      // bit-identical, so retry there instead of failing the client; only
      // the stats (and a degraded=1 field) betray the fallback.
      if (opts_.degrade_to_local) {
        try {
          resp = handle_query(*entry, r.msg, /*force_local=*/true);
          resp.set("degraded", "1");
          stats_.degraded.fetch_add(1, std::memory_order_relaxed);
        } catch (const std::exception& e2) {
          resp = error_response(kErrInternal, e2.what());
        }
      } else {
        resp = error_response(kErrInternal, e.what());
      }
    } catch (const std::invalid_argument& e) {
      resp = error_response(kErrBadRequest, e.what());
    } catch (const std::exception& e) {
      resp = error_response(kErrInternal, e.what());
    }
    if (r.msg.has("id")) resp.set("id", r.msg.get("id"));
    send_response(*r.conn, resp);
  }
}

Message Server::handle_query(GraphStore::Entry& entry, const Message& req,
                             bool force_local) {
  Message resp;
  resp.head = "ok";
  const Graph& g = entry.graph;
  if (req.head == "load") {
    resp.set("nodes", std::to_string(g.num_nodes()));
    resp.set("edges", std::to_string(g.num_edges()));
    return resp;
  }
  entry.served.fetch_add(1, std::memory_order_relaxed);
  if (req.head == "estimate") {
    core::DiameterApproxOptions opt;
    opt.cluster.tau = field_u32(
        req, "tau",
        core::tau_for_cluster_target(g.num_nodes(), g.num_nodes() / 4));
    opt.cluster.seed = field_u64(req, "seed", 1);
    opt.use_cluster2 = field_bool(req, "cluster2", false);
    opt.radius_aware = !field_bool(req, "classic", false);
    apply_exec_fields(req, opt.cluster);
    if (force_local) opt.cluster.transport = {};
    if (opt.cluster.partition.num_partitions > 1) {
      opt.cluster.policy = core::GrowingPolicy::kPartitioned;
    }
    const core::DiameterApproxResult r =
        core::approximate_diameter(g, opt, &entry.ctx);
    resp.body = render_estimate(r, opt.cluster.tau);
    return resp;
  }
  if (req.head == "sssp") {
    sssp::DeltaSteppingOptions opt;
    opt.delta = field_double(req, "delta", 0.0);
    apply_exec_fields(req, opt);
    if (force_local) opt.transport = {};
    const auto source = field_u32(req, "source", 0);
    if (source >= g.num_nodes()) {
      throw std::invalid_argument("source " + std::to_string(source) +
                                  " out of range (n=" +
                                  std::to_string(g.num_nodes()) + ")");
    }
    const sssp::DeltaSteppingResult r =
        sssp::delta_stepping(g, source, opt, &entry.ctx);
    resp.body = render_sssp(source, r);
    return resp;
  }
  throw std::invalid_argument("unknown verb '" + req.head + "'");
}

Message Server::handle_stats() {
  Message resp;
  resp.head = "ok";
  resp.set("connections", std::to_string(stats_.connections.load()));
  resp.set("requests", std::to_string(stats_.requests.load()));
  resp.set("errors", std::to_string(stats_.errors.load()));
  resp.set("batches", std::to_string(stats_.batches.load()));
  resp.set("batched", std::to_string(stats_.batched_requests.load()));
  resp.set("shed", std::to_string(stats_.shed.load()));
  resp.set("deadline_exceeded",
           std::to_string(stats_.deadline_exceeded.load()));
  resp.set("degraded", std::to_string(stats_.degraded.load()));
  resp.set("disconnected_slow",
           std::to_string(stats_.disconnected_slow.load()));
  // Worker forks and crash restarts of every pool in the daemon. Pooled
  // estimates on a warm graph fork none (a pooled sssp still forks its own
  // workers per request), so spawns rising across estimates betray
  // re-snapshots.
  const mr::PoolTotals pools = mr::pool_totals();
  resp.set("pool_spawns", std::to_string(pools.spawns));
  resp.set("pool_restarts", std::to_string(pools.restarts));
  std::string body;
  for (const GraphStore::Snapshot& s : store_.snapshot()) {
    body += s.spec + "  n=" + std::to_string(s.nodes) +
            " m=" + std::to_string(s.edges) +
            " served=" + std::to_string(s.served) + "\n";
  }
  resp.set("graphs", std::to_string(store_.size()));
  resp.body = std::move(body);
  return resp;
}

Message Server::handle_fault(const Message& req) {
  // The chaos harness's control verb: `spec=` arms a fault schedule in the
  // daemon process (same grammar as GDIAM_FAULTS), `clear=1` disarms, and
  // either way the response body carries the live schedule with hit/fired
  // counters so tests can assert that arming took.
  try {
    if (field_bool(req, "clear", false)) util::fault::disarm();
    const std::string spec = req.get("spec");
    if (!spec.empty()) util::fault::arm(spec);
  } catch (const std::exception& e) {
    return error_response(kErrBadRequest, e.what());
  }
  Message resp;
  resp.head = "ok";
  resp.set("armed", util::fault::armed() ? "1" : "0");
  resp.body = util::fault::describe();
  return resp;
}

Message Server::error_response(const std::string& code,
                               const std::string& message) {
  Message resp;
  resp.head = "error";
  resp.set("code", code);
  resp.set("message", message);
  stats_.errors.fetch_add(1, std::memory_order_relaxed);
  return resp;
}

void Server::send_error(Connection& conn, const Message& req,
                        const std::string& code, const std::string& message) {
  Message resp = error_response(code, message);
  if (req.has("id")) resp.set("id", req.get("id"));
  send_response(conn, resp);
}

void Server::send_response(Connection& conn, const Message& resp) {
  const std::lock_guard<std::mutex> lk(conn.write_mu);
  try {
    write_message(conn.fd, resp, static_cast<int>(opts_.write_timeout_ms));
  } catch (const WriteTimeout&) {
    // The client stopped draining its responses (the slow-reader case):
    // count it, then hang up — a wedged write would otherwise pin a worker
    // thread on one stalled peer forever.
    stats_.disconnected_slow.fetch_add(1, std::memory_order_relaxed);
    ::shutdown(conn.fd, SHUT_RDWR);
  } catch (const std::exception&) {
    // A serving daemon never dies because one response write failed — but
    // the connection does: a failed write may have put *part* of a frame on
    // the wire, and a client blocked mid-frame on a stream the server will
    // never finish is a hang, not an error it can see.
    ::shutdown(conn.fd, SHUT_RDWR);
  }
}

}  // namespace gdiam::serve
