#pragma once
// gdiamd — the concurrent serving daemon (DESIGN.md §10).
//
// A Server owns one AF_UNIX listener and serves the protocol of
// serve/protocol.hpp. The moving parts, and who runs on what thread:
//
//   accept thread   — accepts connections, spawns one reader per client;
//   reader threads  — parse frames off one connection each and enqueue
//                     {connection, request} onto the scheduler queue.
//                     Control verbs (stats, shutdown, fault) are answered
//                     inline — they must work even when every worker is
//                     busy. Admission control happens here: a full queue
//                     sheds the request with an `overloaded` error instead
//                     of queueing without bound;
//   worker threads  — the request scheduler: each pops the oldest pending
//                     request, then *batches* every other pending request
//                     for the same graph spec (up to max_batch, preserving
//                     arrival order) and takes the graph's next ticket
//                     (serve/graphs.hpp, Turnstile) before it lets go of the
//                     queue; when the ticket's turn comes, it loads the
//                     graph if cold and serves the whole batch on the warm
//                     exec::Context, then passes the turn on. So batches on
//                     one graph compute in the order they were dequeued,
//                     whichever worker gets there first. Client
//                     deadlines (`deadline_ms`) are checked at dequeue and
//                     again before each batch item: an expired request gets
//                     a `deadline_exceeded` error, never a silent drop.
//
// Robustness (DESIGN.md §11): every error response carries a typed `code`
// field (bad_request / overloaded / deadline_exceeded / shutting_down /
// internal). Responses are written with a bounded timeout — a client that
// stops reading is disconnected (`disconnected_slow`) instead of wedging a
// worker on a full socket buffer. When a remote transport fails terminally
// (mr::TransportError — e.g. a pool group that exhausted its restart
// budget), the query is transparently re-executed on LocalTransport and the
// response gains `degraded=1`: results are bit-identical by the transport
// parity contract, so degradation is invisible except in the stats. On
// shutdown, in-flight batches finish and queued requests get
// `shutting_down`.
//
// Batching policy: same-graph requests are where the warm state lives —
// pooled engines with resident pool workers, cached Δ-presplits, reusable
// round buffers. Serving them back-to-back in one turn amortizes
// scheduling and keeps the context hot, while requests for *different*
// graphs proceed on other workers in true parallel. Nothing reorders:
// requests within a batch and batches on one graph are served in arrival
// order, and responses carry the client's `id` so pipelined clients can
// match them up.
//
// Queries on one graph are deliberately serialized (a Context is
// single-threaded by contract, and the kernels parallelize internally with
// OpenMP anyway — two concurrent estimates would fight over cores, not
// share them). Concurrency across graphs is real: worker_threads bounds how
// many graphs compute simultaneously.
//
// Shutdown: request_stop() (also triggered by the `shutdown` verb) closes
// the listener and wakes everything; stop() joins all threads — call it
// from the owning thread, never from a request handler.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <condition_variable>

#include "serve/graphs.hpp"
#include "serve/protocol.hpp"

namespace gdiam::serve {

struct ServerOptions {
  /// Filesystem path of the AF_UNIX listening socket.
  std::string socket_path = "/tmp/gdiamd.sock";
  /// Request-scheduler workers = graphs computing concurrently.
  std::uint32_t worker_threads = 2;
  /// Max same-graph requests served per batch (>= 1).
  std::uint32_t max_batch = 16;
  /// Admission bound on the pending-request queue: requests past it are
  /// shed with an `overloaded` error instead of queueing without bound
  /// (>= 1; a deep queue only converts overload into deadline misses).
  std::uint32_t max_queue = 256;
  /// How long one response write may block on a full socket buffer before
  /// the client is declared stalled and disconnected (0 = forever).
  std::uint32_t write_timeout_ms = 10000;
  /// Shrinks each accepted connection's SO_SNDBUF (0 = kernel default).
  /// Tests use it to hit the stalled-reader path without megabytes of
  /// pipelined responses.
  std::uint32_t sndbuf_bytes = 0;
  /// When a remote transport fails terminally mid-query, re-execute on
  /// LocalTransport (`degraded=1` in the response) instead of surfacing the
  /// transport error to the client.
  bool degrade_to_local = true;
};

/// Monotonic serving counters (the `stats` verb).
struct ServerStats {
  std::atomic<std::uint64_t> connections{0};
  std::atomic<std::uint64_t> requests{0};   // enqueued query requests
  std::atomic<std::uint64_t> errors{0};     // error responses sent
  std::atomic<std::uint64_t> batches{0};    // scheduler dispatches
  /// Requests that rode along in a batch behind its head (> 0 proves the
  /// same-graph batcher actually coalesced concurrent queries).
  std::atomic<std::uint64_t> batched_requests{0};
  /// Requests refused at admission because the queue was full.
  std::atomic<std::uint64_t> shed{0};
  /// Requests whose client deadline expired before (or between) service.
  std::atomic<std::uint64_t> deadline_exceeded{0};
  /// Queries transparently re-executed on LocalTransport after a terminal
  /// remote-transport failure (the pool→local degradation ladder).
  std::atomic<std::uint64_t> degraded{0};
  /// Clients disconnected because they stopped draining their responses.
  std::atomic<std::uint64_t> disconnected_slow{0};
};

class Server {
 public:
  explicit Server(ServerOptions opts);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the socket and spawns the accept + worker threads. Throws on
  /// bind failure (stale-socket unlink is handled; a *live* daemon on the
  /// same path is not — two daemons must not share a socket).
  void start();

  /// Signals shutdown and wakes every thread; safe from any thread,
  /// including request handlers. Returns immediately.
  void request_stop();

  /// Blocks until request_stop() (signal handler, shutdown verb, ...).
  void wait();

  /// request_stop() + joins all threads + closes all sockets. Idempotent.
  /// Must not be called from a server thread.
  void stop();

  [[nodiscard]] bool running() const noexcept { return running_.load(); }
  [[nodiscard]] const ServerStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const std::string& socket_path() const noexcept {
    return opts_.socket_path;
  }
  [[nodiscard]] GraphStore& graphs() noexcept { return store_; }

 private:
  /// One client connection; shared between its reader thread and whichever
  /// worker is writing a response (frames are serialized by write_mu).
  struct Connection {
    int fd = -1;
    std::mutex write_mu;
  };

  /// One scheduled query: the parsed request plus where the response goes.
  struct Request {
    std::shared_ptr<Connection> conn;
    Message msg;
    std::string graph;  // batching key (the request's graph spec)
    /// Absolute expiry derived from the client's deadline_ms at admission
    /// (time_point::max() when the client named none).
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max();
  };

  void accept_loop();
  void reader_loop(std::shared_ptr<Connection> conn);
  void worker_loop();
  /// Serves `batch` on `entry` once `ticket`'s turn comes up.
  void serve_batch(std::vector<Request>& batch, GraphStore::Entry& entry,
                   std::uint64_t ticket);
  /// Handles one query on its (locked) graph entry; returns the response.
  /// `force_local` overrides the request's transport choice with
  /// LocalTransport (the degradation retry).
  Message handle_query(GraphStore::Entry& entry, const Message& req,
                       bool force_local);
  Message handle_stats();
  Message handle_fault(const Message& req);
  /// error response with the typed `code` field; bumps the errors counter.
  Message error_response(const std::string& code, const std::string& message);
  void send_response(Connection& conn, const Message& resp);
  /// error_response + id echo + send, in one call (admission paths).
  void send_error(Connection& conn, const Message& req,
                  const std::string& code, const std::string& message);

  ServerOptions opts_;
  GraphStore store_;
  ServerStats stats_;

  int listen_fd_ = -1;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  std::mutex qmu_;
  std::condition_variable qcv_;
  std::deque<Request> queue_;

  std::mutex stop_mu_;
  std::condition_variable stop_cv_;

  std::thread accept_thread_;
  std::vector<std::thread> workers_;
  std::mutex conns_mu_;
  std::vector<std::shared_ptr<Connection>> conns_;
  std::vector<std::thread> readers_;
};

}  // namespace gdiam::serve
