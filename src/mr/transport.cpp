#include "mr/transport.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <string>

#include <omp.h>

#include "util/fault.hpp"
#include "util/net.hpp"

namespace gdiam::mr {

namespace net = gdiam::util::net;
namespace fault = gdiam::util::fault;

namespace {

/// Errors are thrown bare; run_compute catches them, shuts the pool down
/// (close fds, reap children) and rethrows with the transport prefix.
[[noreturn]] void throw_errno(const char* what) {
  throw std::runtime_error(std::string(what) + ": " + std::strerror(errno));
}

/// How long teardown waits for a worker to exit on its own before SIGKILL.
/// Workers _exit on 'Q'/EOF, so the deadline only ever bites on a genuinely
/// wedged child.
constexpr int kReapTimeoutMs = 5000;

// Process-wide pool lifecycle totals (pool_totals()).
std::atomic<std::uint64_t> g_pool_spawns{0};
std::atomic<std::uint64_t> g_pool_restarts{0};

}  // namespace

TransportOptions parse_transport_options(const std::string& kind,
                                         std::optional<std::uint32_t> processes,
                                         std::uint32_t num_partitions) {
  if (kind == "process") {
    throw std::invalid_argument(
        "transport 'process' was removed: use pool (processes=P alone "
        "selects it)");
  }
  if (!kind.empty() && kind != "local" && kind != "pool") {
    throw std::invalid_argument("transport must be local or pool");
  }
  if (kind == "local" && processes) {
    throw std::invalid_argument("transport local and processes conflict");
  }
  if (kind != "pool" && !processes) return {};
  const TransportOptions t{.kind = TransportKind::kPool,
                           .processes = processes.value_or(2)};
  if (t.processes == 0) throw std::invalid_argument("processes must be >= 1");
  if (num_partitions <= 1) {
    throw std::invalid_argument(
        "transport pool / processes requires partitions > 1");
  }
  return t;
}

PoolTotals pool_totals() noexcept {
  return {g_pool_spawns.load(std::memory_order_relaxed),
          g_pool_restarts.load(std::memory_order_relaxed)};
}

Launcher::Launcher(std::uint32_t num_shards, std::uint32_t processes)
    : k_(std::max(1u, num_shards)), p_(std::max(1u, processes)) {
  if (p_ > k_) p_ = k_;  // a worker with zero shards would be pure overhead
}

std::pair<ShardId, ShardId> Launcher::group(std::uint32_t p) const {
  // Ceil-balanced contiguous ranges: the first (k mod p) groups are one
  // shard larger. Pure function of (K, P) — part of the determinism story.
  const std::uint32_t base = k_ / p_;
  const std::uint32_t extra = k_ % p_;
  const std::uint32_t first = p * base + std::min(p, extra);
  const std::uint32_t size = base + (p < extra ? 1 : 0);
  return {first, first + size};
}

std::ranges::iota_view<ShardId, ShardId> Launcher::shards_of(
    std::uint32_t p) const {
  const auto [first, last] = group(p);
  return std::views::iota(first, last);
}

std::unique_ptr<Transport> Launcher::make_transport(
    const TransportOptions& opts, std::uint32_t num_shards) {
  if (opts.kind == TransportKind::kPool) {
    return std::make_unique<PoolTransport>(
        Launcher(num_shards, opts.processes));
  }
  return std::make_unique<LocalTransport>();
}

TransportStats LocalTransport::run_compute(const SuperstepPlan& plan) {
  const auto k = static_cast<std::int64_t>(plan.num_shards);
#pragma omp parallel for schedule(dynamic, 1)
  for (std::int64_t s = 0; s < k; ++s) plan.compute(static_cast<ShardId>(s));
  return {};  // nothing crossed a process boundary
}

// ---------------------------------------------------------------------------
// PoolTransport
// ---------------------------------------------------------------------------

PoolTransport::PoolTransport(Launcher launcher) : launcher_(launcher) {
  workers_.assign(launcher_.processes(), Worker{});
}

PoolTransport::~PoolTransport() { shutdown(); }

pid_t PoolTransport::worker_pid(std::uint32_t p) const noexcept {
  return p < workers_.size() ? workers_[p].pid : -1;
}

void PoolTransport::stop_worker(Worker& w) noexcept {
  if (w.fd >= 0) {
    const char quit = 'Q';
    net::write_all(w.fd, &quit, 1);  // best effort; a dead worker is EPIPE
    ::close(w.fd);
    w.fd = -1;
  }
  if (w.pid > 0) {
    net::reap_child(w.pid, kReapTimeoutMs);
    w.pid = -1;
  }
}

void PoolTransport::shutdown() noexcept {
  for (Worker& w : workers_) stop_worker(w);
  alive_ = false;
}

void PoolTransport::spawn_worker(std::uint32_t p, const SuperstepPlan& plan) {
  // Fault point: an errno here is a failed fork/socketpair — the spawn path
  // the daemon's degradation ladder (pool → local) is tested against.
  if (fault::check("pool.spawn").fail) throw_errno("socketpair");
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    throw_errno("socketpair");
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw_errno("fork");
  }
  if (pid == 0) {
    // libgomp's thread pool does not survive fork: in a child of a process
    // that already ran a parallel region, the next multi-threaded region
    // waits forever for threads that do not exist. One thread per worker
    // keeps any region the child enters a serial loop; worker-side code
    // should not enter one at all (the P workers are the parallelism).
    omp_set_num_threads(1);
    ::close(fds[0]);
    // fd hygiene: drop the coordinator ends of the sibling workers' sockets
    // so closing one coordinator-side fd reliably EOFs exactly one worker.
    for (const Worker& w : workers_) {
      if (w.fd >= 0) ::close(w.fd);
    }
    worker_main(p, fds[1], plan);  // never returns
  }
  ::close(fds[1]);
  workers_[p] = Worker{pid, fds[0]};
  ++spawns_;
  g_pool_spawns.fetch_add(1, std::memory_order_relaxed);
}

void PoolTransport::worker_main(std::uint32_t p, int fd,
                                const SuperstepPlan& plan) {
  // `plan` refers to the coordinator frame live at fork time; the child's
  // copy-on-write image freezes that frame (and every closure it reaches)
  // at a stable address for the worker's whole life — worker_main never
  // returns, so nothing below it ever unwinds. All per-superstep variation
  // arrives through decode_input, which writes into storage that was
  // already allocated at fork time (the stable-address contract).
  const auto shards = launcher_.shards_of(p);
  std::vector<std::byte> input;
  std::vector<std::byte> frames;
  std::vector<std::byte> row;
  for (;;) {
    char cmd = 0;
    if (!net::read_exact(fd, &cmd, 1)) ::_exit(0);  // coordinator is gone
    if (cmd == 'Q') ::_exit(0);
    if (cmd != 'S') ::_exit(4);
    // Fault point: a kill fires SIGKILL on *this worker* mid-superstep
    // (after the coordinator committed to the step — the crash-replay
    // path); a delay stalls the step (the slow-worker path).
    fault::check("pool.worker.step");
    try {
      for (const ShardId s : shards) {
        std::uint64_t len = 0;
        if (!net::read_u64(fd, len)) ::_exit(5);
        input.resize(len);
        if (len != 0 && !net::read_exact(fd, input.data(), len)) ::_exit(5);
        if (len != 0 && plan.decode_input) {
          plan.decode_input(s, input.data(), len);
        }
        if (plan.reset_row) plan.reset_row(s);
      }
      for (const ShardId s : shards) plan.compute(s);
      frames.clear();
      net::append_u64(frames, 0);  // status: ok
      for (const ShardId s : shards) {
        row.clear();
        plan.encode_row(s, row);
        net::append_u64(frames, row.size());
        frames.insert(frames.end(), row.begin(), row.end());
        net::append_u64(frames, plan.shard_counters.empty()
                                    ? 0
                                    : plan.shard_counters[s]);
      }
      if (!net::write_all(fd, frames.data(), frames.size())) ::_exit(3);
    } catch (...) {
      // Deterministic failure (compute/encode threw): report it as a status
      // frame so the coordinator raises one error instead of burning its
      // restart budget replaying a step that will always throw.
      net::write_u64(fd, 2);
      ::_exit(2);
    }
  }
}

bool PoolTransport::send_step(const Worker& w, std::uint32_t p,
                              const SuperstepPlan& plan,
                              std::uint64_t& bytes) noexcept {
  // Fault point: errno/short fail the ship (the pool restarts the group); a
  // kill takes down the worker itself just before its inputs arrive.
  if (fault::check("pool.ship", w.pid).fail) return false;
  std::vector<std::byte> frame;
  frame.push_back(std::byte{'S'});
  std::vector<std::byte> input;
  for (const ShardId s : launcher_.shards_of(p)) {
    input.clear();
    if (plan.encode_input) plan.encode_input(s, input);
    net::append_u64(frame, input.size());
    frame.insert(frame.end(), input.begin(), input.end());
  }
  if (!net::write_all(w.fd, frame.data(), frame.size())) return false;
  bytes += frame.size();
  return true;
}

bool PoolTransport::recv_step(const Worker& w, std::uint32_t p,
                              const SuperstepPlan& plan, std::uint64_t& msgs,
                              std::uint64_t& bytes, std::string& fatal) {
  // Fault point: errno/short here look exactly like a worker that died
  // mid-reply — a torn reassembly the pool must respawn-and-replay through.
  {
    const fault::Outcome f = fault::check("pool.recv", w.pid);
    if (f.fail || f.short_io) return false;
  }
  std::uint64_t status = 0;
  if (!net::read_u64(w.fd, status)) return false;
  bytes += sizeof status;
  if (status != 0) {
    fatal = status == 2
                ? "compute threw in pool worker " + std::to_string(p)
                : "pool worker " + std::to_string(p) + " failed (status " +
                      std::to_string(status) + ")";
    return true;  // the worker is alive and told us why — don't retry
  }
  std::vector<std::byte> row;
  for (const ShardId s : launcher_.shards_of(p)) {
    std::uint64_t row_len = 0;
    if (!net::read_u64(w.fd, row_len)) return false;
    row.resize(row_len);
    if (row_len != 0 && !net::read_exact(w.fd, row.data(), row_len)) {
      return false;
    }
    msgs += plan.decode_row(s, row.data(), row_len);
    std::uint64_t counter = 0;
    if (!net::read_u64(w.fd, counter)) return false;
    if (!plan.shard_counters.empty()) plan.shard_counters[s] = counter;
    bytes += 2 * sizeof(std::uint64_t) + row_len;
  }
  return true;
}

TransportStats PoolTransport::run_compute(const SuperstepPlan& plan) {
  const std::uint32_t procs = launcher_.processes();
  const bool has_codec =
      plan.encode_input != nullptr && plan.decode_input != nullptr;

  try {
    // Residency gate. No codec ⇒ the frozen closures cannot receive fresh
    // inputs, so degrade to respawn-per-superstep (every step forks from a
    // current snapshot, still correct). An epoch change ⇒ the resident state the
    // closures read beyond the inputs has mutated ⇒ re-snapshot.
    if (!alive_ || !has_codec || epoch_ != plan.resident_epoch) {
      shutdown();
      for (std::uint32_t p = 0; p < procs; ++p) spawn_worker(p, plan);
      alive_ = true;
      epoch_ = plan.resident_epoch;
    }

    // Per-group tallies are overwritten on retry, never double-counted.
    std::vector<std::uint64_t> grp_msgs(procs, 0);
    std::vector<std::uint64_t> grp_bytes(procs, 0);
    std::vector<std::uint32_t> todo(procs);
    std::iota(todo.begin(), todo.end(), 0u);

    for (int attempt = 0; !todo.empty(); ++attempt) {
      if (attempt >= 3) {
        throw std::runtime_error(
            "worker restart limit reached (group " +
            std::to_string(todo.front()) + ")");
      }
      // Write every group's inputs before reading any reply: workers only
      // write after consuming their whole input, so ordering all sends
      // first is deadlock-free regardless of reply sizes.
      std::vector<std::uint32_t> sent;
      std::vector<std::uint32_t> failed;
      for (const std::uint32_t p : todo) {
        grp_msgs[p] = 0;
        grp_bytes[p] = 0;
        (send_step(workers_[p], p, plan, grp_bytes[p]) ? sent : failed)
            .push_back(p);
      }
      std::string fatal;
      for (const std::uint32_t p : sent) {
        if (!recv_step(workers_[p], p, plan, grp_msgs[p], grp_bytes[p],
                       fatal)) {
          failed.push_back(p);
        }
        if (!fatal.empty()) throw std::runtime_error(fatal);
      }
      // Crash recovery: respawn the dead groups from *current* coordinator
      // state (trivially at the current epoch) and replay only their step.
      // Rows are a pure function of (resident layout, shipped inputs), so
      // the replayed exchange is bit-identical to what the dead worker
      // would have produced.
      for (const std::uint32_t p : failed) {
        stop_worker(workers_[p]);
        spawn_worker(p, plan);
        ++restarts_;
        g_pool_restarts.fetch_add(1, std::memory_order_relaxed);
      }
      todo = std::move(failed);
    }

    TransportStats out;
    for (std::uint32_t p = 0; p < procs; ++p) {
      out.wire_messages += grp_msgs[p];
      out.wire_bytes += grp_bytes[p];
    }
    return out;
  } catch (const std::exception& e) {
    shutdown();  // never leave half-alive workers behind a thrown superstep
    throw TransportError(std::string("PoolTransport: ") + e.what());
  }
}

}  // namespace gdiam::mr
