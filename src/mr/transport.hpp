#pragma once
// Pluggable compute/shuffle transport for the BSP engine (DESIGN.md §9).
//
// PRs 1–4 built the seam this file fills: the Exchange is "the only point a
// network transport needs to replace". A Transport owns exactly the part of
// a superstep that depends on *where* shard compute runs and *how* staged
// messages reach the coordinating process:
//
//   run_compute(plan) — executes the algorithm's compute callback for every
//   shard and guarantees that afterwards the coordinator's Exchange holds
//   every staged row (and every per-shard user counter), so the engine can
//   seal and apply exactly as before. Everything downstream of run_compute —
//   deterministic delivery order, traffic tallying, the apply phase — is
//   transport-invariant, which is what makes the backends bit-identical.
//
// Two implementations:
//
//   * LocalTransport — one OpenMP thread per shard, staging rows are already
//     in the coordinator's memory, nothing is serialized. wire counters stay
//     0 (a "message" is a cache-line write).
//
//   * PoolTransport — the remote transport: one worker process per process
//     group (Launcher maps K shards onto P workers in contiguous,
//     ceil-balanced groups) runs the group's shard computes and ships the
//     staged rows + user counters back over an AF_UNIX stream socketpair.
//     The fork gives every worker a copy-on-write snapshot of the
//     coordinator's entire state — the OS-enforced version of the BSP
//     contract that compute reads only step-start state. Because the
//     child's writes are invisible to the coordinator, compute must route
//     *all* of its effects through the exchange: under remote_compute() the
//     algorithms replace their direct owned-state writes with
//     Exchange::loopback() records and their direct counter writes with the
//     plan's shard_counters slots. Bytes crossing the workers' sockets are
//     the genuinely-crossed `wire_bytes` that feed RoundStats.
//
//     Workers are resident: each group's worker is forked ONCE (at the first
//     superstep, so the fork snapshot carries the resident layout:
//     partition slice, cached presplits, the algorithm's scratch) and kept
//     alive across supersteps — and across runs, for a transport a warm
//     exec::Context holds (a pooled GrowingEngine's, or Δ-stepping's in its
//     RoundBuffers) — on a persistent socketpair. The coordinator's
//     state keeps evolving after the fork, so the worker's snapshot goes
//     stale, with two matching mechanisms:
//
//       - state that changes between supersteps (the active senders, the
//         light threshold, the nodes blocked since the last step) → the
//         plan's encode_input/decode_input codec ships it over the socket;
//         decode_input is a closure frozen at fork time that writes the
//         fresh bytes into *stable-address* storage (members, round
//         buffers) or uses them as lookup keys into the snapshot (the
//         presplit for the shipped threshold), then the frozen compute
//         reads them;
//       - state the snapshot may lack (a presplit built after the fork) →
//         the algorithm bumps the plan's resident_epoch and the pool quits
//         + respawns the workers, re-snapshotting the coordinator.
//
//     Forked workers run with one OpenMP thread and worker-side code never
//     enters an OpenMP region: libgomp's pool does not survive fork, and a
//     multi-threaded region in the child would wait forever.
//
//     A plan without an input codec degrades safely: the pool respawns the
//     workers every superstep, so each step's fork snapshot is current.
//     Worker crashes are survivable for the same reason residency is
//     correct at all: under the remote-compute contract a superstep's rows
//     are a pure function of (resident layout, shipped inputs), so the
//     launcher respawns the dead group from current coordinator state and
//     replays just that group's exchange — bit-identical by construction.
//
// Determinism contract (DESIGN.md §9): delivery is a pure function of
// (source shard, staging order). The transport only moves rows between
// address spaces keyed by shard id — it never reorders within a row and the
// coordinator reassembles rows by shard id, not by arrival time — so the
// sealed inboxes are identical under every transport and every P.

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <ranges>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "mr/partition.hpp"
#include "util/net.hpp"

namespace gdiam::mr {

enum class TransportKind { kLocal, kPool };

/// What a transport throws when a superstep cannot be completed remotely
/// (spawn failure, restart budget exhausted, a worker that fails
/// deterministically). Typed so upper layers can *degrade* instead of die:
/// the serving daemon catches TransportError and transparently re-executes
/// the query on LocalTransport (DESIGN.md §11's degradation ladder) —
/// anything else propagating out of a kernel is a real bug and must not be
/// silently retried.
class TransportError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Transport selection knobs, carried by exec::ExecOptions so one assignment
/// configures a whole pipeline (`--transport pool --processes P` in the
/// CLI). `processes` is clamped to the shard count by the Launcher.
struct TransportOptions {
  TransportKind kind = TransportKind::kLocal;
  std::uint32_t processes = 1;

  friend bool operator==(const TransportOptions&,
                         const TransportOptions&) = default;
};

/// The one reading of the user-facing transport fields, shared by the CLI
/// (`--transport` / `--processes`) and the daemon (`transport=` /
/// `processes=`). `kind` is "" (unset), "local" or "pool"; a process count
/// alone selects the pool (default 2 workers when only the kind is given).
/// The pool only exists behind the BSP engine, so it needs
/// `num_partitions > 1`. Throws std::invalid_argument on anything else —
/// an unknown or removed kind ("process"), `processes` of 0, or `processes`
/// alongside `local`.
[[nodiscard]] TransportOptions parse_transport_options(
    const std::string& kind, std::optional<std::uint32_t> processes,
    std::uint32_t num_partitions);

/// What one run_compute actually put on a process boundary: 0/0 for
/// LocalTransport; for PoolTransport every staged record (including
/// loopback stand-ins for owned-state writes) and every byte that crossed
/// the workers' sockets (shipped inputs, row payloads, framing, counters).
struct TransportStats {
  std::uint64_t wire_messages = 0;
  std::uint64_t wire_bytes = 0;
};

/// Process-wide PoolTransport lifecycle totals: every worker fork, crash
/// restart and unclean exit by any pool of this process, destroyed pools
/// included.
/// Per-pool counts are PoolTransport::spawns()/restarts(); these feed the
/// serving daemon's `stats` verb, where pools live inside pooled engines.
struct PoolTotals {
  std::uint64_t spawns = 0;
  std::uint64_t restarts = 0;
  /// Workers reaped after exiting nonzero, dying by a signal or needing the
  /// SIGTERM/SIGKILL escalation — crashed workers a restart replaced
  /// included; a clean 'Q' shutdown adds none.
  std::uint64_t unclean_exits = 0;
};
[[nodiscard]] PoolTotals pool_totals() noexcept;

/// Maps K shards onto P worker processes: ceil-balanced groups (the first
/// K mod P groups take one extra shard), contiguous in shard-id order, so a
/// range partition's locality stays within one worker. Determinism needs
/// only that the mapping is a pure function of (K, P) — which it is.
class Launcher {
 public:
  Launcher(std::uint32_t num_shards, std::uint32_t processes);

  [[nodiscard]] std::uint32_t num_shards() const noexcept { return k_; }
  [[nodiscard]] std::uint32_t processes() const noexcept { return p_; }

  /// Shard-id range [first, second) owned by worker `p`.
  [[nodiscard]] std::pair<ShardId, ShardId> group(std::uint32_t p) const;

  /// The shards worker `p` owns, in the order both sides of a worker socket
  /// traverse them (compute, encode, decode).
  [[nodiscard]] std::ranges::iota_view<ShardId, ShardId> shards_of(
      std::uint32_t p) const;

  /// Builds the transport `opts` selects for a K-shard engine.
  [[nodiscard]] static std::unique_ptr<class Transport> make_transport(
      const TransportOptions& opts, std::uint32_t num_shards);

 private:
  std::uint32_t k_ = 1;
  std::uint32_t p_ = 1;
};

class Transport {
 public:
  /// The type-erased slice of one superstep the transport must execute. The
  /// typed BspEngine builds one per superstep; the callbacks close over the
  /// algorithm's Exchange<Msg>, so the transport never sees message types.
  struct SuperstepPlan {
    std::uint32_t num_shards = 0;
    /// Runs the algorithm's compute for one shard, staging into the
    /// exchange. Under a remote transport this executes in a worker process
    /// whose writes to shared state are lost — the remote-compute contract.
    std::function<void(ShardId)> compute;
    /// Appends shard `s`'s staged row (loopback + routed records) to `out`
    /// as self-contained bytes.
    std::function<void(ShardId, std::vector<std::byte>&)> encode_row;
    /// Replaces shard `s`'s staged row with decoded bytes; returns the
    /// number of records decoded (the transport's wire_messages tally).
    std::function<std::uint64_t(ShardId, const std::byte*, std::size_t)>
        decode_row;
    /// Optional per-shard user counter (size num_shards or empty): slot s is
    /// written only by shard s's compute, and a remote transport ships it
    /// back alongside the row (e.g. the relaxed-edge counts the algorithms
    /// fold into RoundStats::messages).
    std::span<std::uint64_t> shard_counters;

    // --- resident-worker extensions (LocalTransport ignores them) ---

    /// Coordinator side: serializes shard `s`'s per-superstep input (the
    /// state compute reads that changes between supersteps — frontier
    /// buckets, active senders). Null ⇒ no codec ⇒ the pool falls back to
    /// respawn-per-superstep.
    std::function<void(ShardId, std::vector<std::byte>&)> encode_input;
    /// Worker side: installs a shipped input into stable-address storage
    /// before compute runs. This closure is frozen at fork time — it must
    /// only write through pointers/references that were valid at the fork.
    std::function<void(ShardId, const std::byte*, std::size_t)> decode_input;
    /// Worker side: drops shard `s`'s stale exchange staging from the
    /// previous superstep (Exchange::clear_row). The engine supplies this;
    /// resident workers never seal/clear their exchange copy.
    std::function<void(ShardId)> reset_row;
    /// Version of the fork-time-resident state the compute closure reads
    /// beyond the shipped inputs (e.g. which presplits the snapshot holds).
    /// When it differs from the epoch a pool worker was forked at, the pool
    /// respawns the worker before running the step.
    std::uint64_t resident_epoch = 0;
  };

  virtual ~Transport() = default;

  /// True when compute callbacks run in resident worker processes, so their
  /// writes to coordinator state are lost: algorithms must route owned-state
  /// effects through Exchange::loopback and counters through shard_counters,
  /// supply the plan's input codec so per-superstep state is shipped instead
  /// of re-snapshotted, and bump resident_epoch only when a worker snapshot
  /// could lack what compute reads.
  [[nodiscard]] virtual bool remote_compute() const noexcept = 0;

  /// Worker processes compute fans out over (1 for LocalTransport).
  [[nodiscard]] virtual std::uint32_t processes() const noexcept = 0;

  /// Executes the compute phase for every shard; on return the coordinator's
  /// exchange holds every staged row and shard_counters its final values.
  virtual TransportStats run_compute(const SuperstepPlan& plan) = 0;
};

/// In-process transport: one OpenMP thread per shard writes the single-writer
/// staging rows directly; nothing is serialized.
class LocalTransport final : public Transport {
 public:
  [[nodiscard]] bool remote_compute() const noexcept override { return false; }
  [[nodiscard]] std::uint32_t processes() const noexcept override { return 1; }
  TransportStats run_compute(const SuperstepPlan& plan) override;
};

/// Resident-worker transport: one long-lived worker per Launcher group,
/// forked at the first superstep of a run and kept on a persistent AF_UNIX
/// socketpair. See the header comment for the staleness model (shipped
/// inputs + epoch respawn) and DESIGN.md §10 for the worker ownership story.
///
/// Wire protocol (host order, framed with util::net helpers):
///   coordinator → worker   'S' then per owned shard [u64 len][input bytes]
///                          (len 0 when the plan has no codec)
///   worker → coordinator   [u64 status] then, when status == 0, per owned
///                          shard [u64 row_len][row][u64 shard counter]
///   coordinator → worker   'Q' (or EOF) — worker _exits 0
///
/// Each side writes a frame with one write and reads it through a
/// util::net::BufferedReader, so a frame that arrived whole is one read;
/// before that read it polls for kSpinWaitUs microseconds when spin_waits().
///
/// Crash handling: a send/recv failure on a group marks it dead; the pool
/// respawns it from *current* coordinator state (a fresh COW snapshot is
/// trivially epoch-correct) and replays only that group's step. Rows are a
/// pure function of (resident layout, shipped inputs) under the
/// remote-compute contract, so the replay is bit-identical. Bounded retry;
/// persistent failure surfaces as one PoolTransport error.
class PoolTransport final : public Transport {
 public:
  explicit PoolTransport(Launcher launcher);
  ~PoolTransport() override;

  PoolTransport(const PoolTransport&) = delete;
  PoolTransport& operator=(const PoolTransport&) = delete;

  [[nodiscard]] bool remote_compute() const noexcept override { return true; }
  [[nodiscard]] std::uint32_t processes() const noexcept override {
    return launcher_.processes();
  }
  [[nodiscard]] const Launcher& launcher() const noexcept { return launcher_; }
  TransportStats run_compute(const SuperstepPlan& plan) override;

  /// Quits and reaps every worker (bounded wait, SIGKILL escalation).
  /// Idempotent; also run by the destructor and by epoch respawns.
  void shutdown() noexcept;

  /// Lifecycle observability (tests, daemon stats). `spawns` counts every
  /// worker fork (initial + epoch respawns + crash restarts); `restarts`
  /// only the crash-triggered ones.
  [[nodiscard]] std::uint64_t spawns() const noexcept { return spawns_; }
  [[nodiscard]] std::uint64_t restarts() const noexcept { return restarts_; }

  /// Pid of group `p`'s resident worker, or -1 when not spawned. Fault
  /// injection hooks for the restart tests.
  [[nodiscard]] pid_t worker_pid(std::uint32_t p) const noexcept;

  /// True when both sides of a worker socket poll for a bounded time before
  /// blocking on the next frame: the CPUs this thread may use when the pool
  /// was built covered every worker plus the coordinator's OpenMP team
  /// (omp_get_max_threads(); DESIGN.md §10).
  [[nodiscard]] bool spin_waits() const noexcept { return spin_us_ > 0; }

 private:
  struct Worker {
    pid_t pid = -1;
    int fd = -1;  // coordinator end of the persistent socketpair
  };

  void spawn_worker(std::uint32_t p, const SuperstepPlan& plan);
  [[noreturn]] void worker_main(std::uint32_t p, int fd,
                                const SuperstepPlan& plan);
  void stop_worker(Worker& w) noexcept;
  bool send_step(const Worker& w, std::uint32_t p, const SuperstepPlan& plan,
                 std::uint64_t& bytes) noexcept;
  bool recv_step(const Worker& w, std::uint32_t p, const SuperstepPlan& plan,
                 std::uint64_t& msgs, std::uint64_t& bytes,
                 std::string& fatal);

  Launcher launcher_;
  int spin_us_ = 0;  // poll budget before a blocking read, 0 = block at once
  std::vector<Worker> workers_;
  bool alive_ = false;       // workers_ hold live pids/fds
  std::uint64_t epoch_ = 0;  // resident_epoch the pool was forked at
  std::uint64_t spawns_ = 0;
  std::uint64_t restarts_ = 0;

  // Coordinator-side per-superstep scratch, kept so its capacity carries
  // across the thousands of supersteps of a served sssp.
  std::vector<std::byte> frame_;  // send_step: one group's 'S' frame
  std::vector<std::byte> input_;  // send_step: one shard's encoded input
  util::net::BufferedReader reply_;  // recv_step: one worker's reply
  std::vector<std::uint64_t> grp_msgs_;  // run_compute: per-group tallies
  std::vector<std::uint64_t> grp_bytes_;
  std::vector<std::uint32_t> todo_;  // run_compute: groups still to run
  std::vector<std::uint32_t> sent_;
  std::vector<std::uint32_t> failed_;
};

}  // namespace gdiam::mr
