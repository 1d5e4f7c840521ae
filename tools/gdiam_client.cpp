// gdiam_client — command-line client for the gdiamd serving daemon.
//
//   gdiam_client <verb> [--socket PATH] [key=value ...]
//                [--repeat N] [--jobs J] [--timeout-ms T] [--retry-ms R]
//
// Verbs (see src/serve/protocol.hpp for the wire format):
//   estimate  — CL-DIAM approximation; fields: graph= (required), tau=,
//               seed=, cluster2=, classic=, partitions=, transport=,
//               processes=
//   sssp      — stepping-kernel SSSP; fields: graph= (required), source=,
//               algorithm= (delta|rho), delta=, rho=, partitions=,
//               transport=, processes=
//   load      — preload a graph into the daemon's hot set
//   stats     — serving counters and the resident-graph table
//   shutdown  — ask the daemon to exit
//
// The response body prints to stdout byte-for-byte — for estimate/sssp that
// is exactly the block the one-shot `gdiam estimate` / `gdiam sssp` CLI
// prints (minus its local time:/phases lines), so outputs diff cleanly.
//
// --repeat N sends the request N times per connection; --jobs J opens J
// concurrent connections doing that (the CI smoke's concurrency hammer).
// Responses are matched by their echoed id; the body of the last response
// on the first connection prints, all others are verified "ok" silently.
//
// --retry-ms R retries a refused/absent socket for up to R ms with capped
// exponential backoff + jitter (default 2000) — "client before daemon
// finished binding" is a race, not an error. --timeout-ms T attaches a
// deadline_ms=T field to every query: the daemon answers
// `deadline_exceeded` instead of serving a request whose budget expired
// in its queue.
//
//   gdiam_client estimate graph=gen:mesh:side=64:weights=uniform tau=16
//   gdiam_client sssp graph=file:g.bin source=5 --repeat 20 --jobs 4

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "serve/protocol.hpp"
#include "util/net.hpp"
#include "util/options.hpp"

namespace {

using namespace gdiam;

[[noreturn]] void usage(const char* error = nullptr) {
  if (error != nullptr) std::fprintf(stderr, "error: %s\n\n", error);
  std::fprintf(stderr,
               R"(usage: gdiam_client <verb> [--socket PATH] [key=value ...]
                    [--repeat N] [--jobs J] [--timeout-ms T] [--retry-ms R]

verbs: estimate | sssp | load | stats | shutdown | fault
fields are passed as key=value arguments, e.g.:
  gdiam_client estimate graph=gen:mesh:side=64:weights=uniform tau=16
  gdiam_client sssp graph=file:g.bin source=5 delta=0.5
  gdiam_client stats
  gdiam_client fault spec="net.send=errno:EPIPE@3"

--timeout-ms T  attach deadline_ms=T to each request (0 = none)
--retry-ms R    retry a refused/absent socket for up to R ms with
                backoff (default 2000; 0 = fail on the first attempt)
)");
  std::exit(error == nullptr ? 0 : 2);
}

/// connect_unix with capped exponential backoff + jitter, retrying only the
/// "daemon not up yet" errnos (ENOENT: socket not created; ECONNREFUSED:
/// bound but not listening, or stale). Everything else — permissions, path
/// too long — fails immediately; waiting cannot fix it.
int connect_with_retry(const std::string& socket_path, std::int64_t budget_ms) {
  std::mt19937 rng{std::random_device{}()};
  std::int64_t backoff_ms = 10;
  std::int64_t waited_ms = 0;
  for (;;) {
    try {
      return util::net::connect_unix(socket_path);
    } catch (const std::exception&) {
      if (errno != ENOENT && errno != ECONNREFUSED) throw;
      if (waited_ms >= budget_ms) throw;
    }
    // Full jitter on a doubling base, capped — concurrent --jobs clients
    // must not retry in lockstep against a daemon mid-bind.
    const std::int64_t sleep_ms = std::uniform_int_distribution<std::int64_t>(
        1, backoff_ms)(rng);
    ::usleep(static_cast<useconds_t>(sleep_ms) * 1000);
    waited_ms += sleep_ms;
    if (backoff_ms < 500) backoff_ms *= 2;
  }
}

/// Sends `repeat` copies of the request on one fresh connection; returns
/// the last response. Throws on socket/protocol failure or error status.
serve::Message run_connection(const std::string& socket_path,
                              const serve::Message& req, unsigned repeat,
                              unsigned job, std::int64_t retry_ms) {
  const int fd = connect_with_retry(socket_path, retry_ms);
  serve::Message last;
  try {
    for (unsigned i = 0; i < repeat; ++i) {
      serve::Message r = req;
      const std::string id =
          std::to_string(job) + "." + std::to_string(i);
      r.set("id", id);
      serve::write_message(fd, r);
      if (!serve::read_message(fd, last)) {
        throw std::runtime_error("daemon closed the connection");
      }
      if (last.get("id") != id) {
        throw std::runtime_error("response id mismatch (got '" +
                                 last.get("id") + "', want '" + id + "')");
      }
      if (last.head != "ok") {
        const std::string code = last.get("code");
        throw std::runtime_error((code.empty() ? "" : "[" + code + "] ") +
                                 last.get("message", "request failed"));
      }
    }
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
  return last;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string verb = argv[1];
  if (verb == "--help" || verb == "help") usage();
  try {
    const util::Options o(argc - 1, argv + 1);
    const std::string socket_path = o.get_string("socket", "/tmp/gdiamd.sock");
    const std::int64_t repeat = o.get_int("repeat", 1);
    const std::int64_t jobs = o.get_int("jobs", 1);
    const std::int64_t timeout_ms = o.get_int("timeout-ms", 0);
    const std::int64_t retry_ms = o.get_int("retry-ms", 2000);
    if (repeat < 1) usage("--repeat must be >= 1");
    if (jobs < 1) usage("--jobs must be >= 1");
    if (timeout_ms < 0) usage("--timeout-ms must be >= 0");
    if (retry_ms < 0) usage("--retry-ms must be >= 0");

    serve::Message req;
    req.head = verb;
    for (const std::string& arg : o.positional()) {
      const std::size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        usage(("fields must be key=value, got '" + arg + "'").c_str());
      }
      req.set(arg.substr(0, eq), arg.substr(eq + 1));
    }
    if (timeout_ms > 0) req.set("deadline_ms", std::to_string(timeout_ms));

    serve::Message primary;
    std::vector<std::thread> threads;
    std::vector<std::string> failures(static_cast<std::size_t>(jobs));
    threads.reserve(static_cast<std::size_t>(jobs));
    for (std::int64_t j = 0; j < jobs; ++j) {
      threads.emplace_back([&, j] {
        try {
          serve::Message last = run_connection(
              socket_path, req, static_cast<unsigned>(repeat),
              static_cast<unsigned>(j), retry_ms);
          if (j == 0) primary = std::move(last);
        } catch (const std::exception& e) {
          failures[static_cast<std::size_t>(j)] = e.what();
        }
      });
    }
    for (auto& t : threads) t.join();
    for (std::int64_t j = 0; j < jobs; ++j) {
      if (!failures[static_cast<std::size_t>(j)].empty()) {
        std::fprintf(stderr, "gdiam_client %s: %s\n", verb.c_str(),
                     failures[static_cast<std::size_t>(j)].c_str());
        return 1;
      }
    }
    // estimate/sssp print the body alone — byte-for-byte the CLI's block,
    // for clean diffs. Other verbs print their headers (minus the echoed
    // id) first, then any body (e.g. the stats verb's per-graph table).
    if (verb != "estimate" && verb != "sssp") {
      for (const auto& [k, v] : primary.fields) {
        if (k != "id") std::printf("%s: %s\n", k.c_str(), v.c_str());
      }
    }
    std::fputs(primary.body.c_str(), stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gdiam_client %s: %s\n", verb.c_str(), e.what());
    return 1;
  }
}
