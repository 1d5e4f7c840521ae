#pragma once
// Bulk-Synchronous-Parallel superstep driver over a Partition.
//
// One superstep is exactly one round in the paper's MR(M_T, M_L) model:
//
//   1. local compute — every shard reads/writes only its own state and
//      stages messages for other shards in an Exchange. *Where* this phase
//      runs is the Transport's business (mr/transport.hpp): LocalTransport
//      uses one OpenMP thread per shard, PoolTransport runs it in resident
//      worker processes and ships the staged rows back over sockets;
//   2. exchange      — the barrier: Exchange::seal() delivers all mailboxes
//      in deterministic order and tallies the traffic;
//   3. apply         — every shard, in parallel, folds its inbox into its
//      local state (always in the coordinating process).
//
// The engine is the execution substrate the flat OpenMP kernels stand in for
// (DESIGN.md §5): the same relaxation logic, but with the communication that
// a Spark/MR deployment would pay made explicit and measurable. Algorithms
// (core/growing.cpp kPartitioned, sssp/delta_stepping.cpp) supply compute
// and apply callbacks; the engine supplies parallelism, the barrier, round
// counting, and RoundStats traffic recording.
//
// Determinism: a shard's compute runs on exactly one thread (or one worker
// process), so mailbox rows are single-writer; seal() orders delivery by
// source shard (loopback records first — see mr/exchange.hpp); apply is
// again one thread per shard. The outcome is a pure function of shard states
// and staging order — independent of thread count, process count and
// scheduling (DESIGN.md §9 spells out the contract per transport).

#include <cstdint>
#include <span>
#include <string>

#include <omp.h>

#include "mr/exchange.hpp"
#include "mr/partition.hpp"
#include "mr/stats.hpp"
#include "mr/transport.hpp"

namespace gdiam::mr {

/// Per-superstep input codec for resident-worker transports (PoolTransport).
/// A pool worker is forked once and keeps computing with closures frozen at
/// fork time, so everything compute reads that *changes between supersteps*
/// must be shipped through this codec instead of assumed visible:
///
///   encode — coordinator side, serializes shard `s`'s step input;
///   decode — worker side (a frozen closure), installs the bytes into
///            storage whose address was stable at fork time (members, round
///            buffers) so the frozen compute closure reads the fresh values;
///   epoch  — version of the *non-shipped* resident state compute reads
///            (e.g. the presplits a snapshot holds). Bump it when a worker
///            snapshot could lack something and the pool re-snapshots the
///            workers.
///
/// Algorithms that don't supply a codec still run correctly under a pool —
/// the transport falls back to respawning workers every superstep.
struct StepInputCodec {
  std::function<void(ShardId, std::vector<std::byte>&)> encode;
  std::function<void(ShardId, const std::byte*, std::size_t)> decode;
  std::uint64_t epoch = 0;
};

class BspEngine {
 public:
  /// The partition — and the transport, when given — must outlive the
  /// engine (same contract as Graph&). A null transport selects the built-in
  /// LocalTransport: PR 1's in-process path, verbatim.
  explicit BspEngine(const Partition& partition,
                     Transport* transport = nullptr)
      : partition_(partition),
        transport_(transport != nullptr ? transport : &local_) {}

  [[nodiscard]] const Partition& partition() const noexcept {
    return partition_;
  }

  [[nodiscard]] Transport& transport() const noexcept { return *transport_; }

  /// True when compute callbacks run in a resident worker process: their
  /// writes to coordinator state are lost, so algorithms must stage
  /// owned-state effects via Exchange::loopback and counters via
  /// `shard_counters`, and pass a StepInputCodec to superstep() so per-step
  /// inputs travel by wire (bumping its epoch when resident state mutates).
  [[nodiscard]] bool remote_compute() const noexcept {
    return transport_->remote_compute();
  }

  /// Supersteps executed so far (each is one synchronous round).
  [[nodiscard]] std::uint64_t supersteps() const noexcept {
    return supersteps_;
  }

  /// Runs one superstep:
  ///   compute(const Shard&, Exchange<Msg>&)   — stage via ex.send(shard.id, ...)
  ///   apply(const Shard&, std::span<const Msg>) — fold the shard's inbox
  /// Returns the exchange traffic; when `stats` is non-null, records the
  /// cross-partition volume into it (rounds are charged by the caller, which
  /// knows whether the step was a relaxation or an auxiliary phase).
  /// `shard_counters` (empty or one slot per shard, slot s written only by
  /// shard s's compute) travels with the messages under a remote transport,
  /// so per-shard compute tallies survive the process boundary.
  /// `input` (optional) is the resident-worker codec: under PoolTransport
  /// it ships per-superstep inputs to the frozen workers; LocalTransport
  /// ignores it entirely.
  template <typename Msg, typename ComputeFn, typename ApplyFn>
  ExchangeCounters superstep(Exchange<Msg>& ex, ComputeFn&& compute,
                             ApplyFn&& apply, RoundStats* stats = nullptr,
                             std::span<std::uint64_t> shard_counters = {},
                             const StepInputCodec* input = nullptr) {
    const auto k = static_cast<std::int64_t>(partition_.num_partitions());

    // Phase 1: local compute, one thread or worker process per shard
    // (single-writer mailboxes either way). The transport guarantees that
    // afterwards `ex` holds every staged row in this process.
    Transport::SuperstepPlan plan;
    plan.num_shards = partition_.num_partitions();
    plan.compute = [&](ShardId s) { compute(partition_.shard(s), ex); };
    plan.encode_row = [&ex](ShardId s, std::vector<std::byte>& out) {
      ex.encode_row(s, out);
    };
    plan.decode_row = [&ex](ShardId s, const std::byte* data,
                            std::size_t len) {
      return ex.decode_row(s, data, len);
    };
    plan.shard_counters = shard_counters;
    if (input != nullptr) {
      plan.encode_input = input->encode;
      plan.decode_input = input->decode;
      plan.resident_epoch = input->epoch;
    }
    // A resident worker never seals/clears its exchange copy, so it resets
    // each staged row just before recomputing it.
    plan.reset_row = [&ex](ShardId s) { ex.clear_row(s); };
    const TransportStats wire = transport_->run_compute(plan);

    // Phase 2: the barrier — deterministic delivery + traffic accounting.
    ExchangeCounters counters = ex.seal();
    counters.wire_messages = wire.wire_messages;
    counters.wire_bytes = wire.wire_bytes;
    if (stats != nullptr) record_exchange(*stats, counters);

    // Phase 3: fold inboxes, again one thread per shard.
#pragma omp parallel for schedule(dynamic, 1)
    for (std::int64_t s = 0; s < k; ++s) {
      const auto shard_id = static_cast<ShardId>(s);
      apply(partition_.shard(shard_id), ex.inbox(shard_id));
    }

    ex.clear();
    ++supersteps_;
    return counters;
  }

 private:
  const Partition& partition_;
  LocalTransport local_;  // default when no transport is injected
  Transport* transport_;
  std::uint64_t supersteps_ = 0;
};

/// "K=4 hash, owned max/avg 251/250 nodes, arcs max/avg 1520/1500" — the
/// partition-skew summary printed by the Figure 5 bench and the CLI.
[[nodiscard]] std::string describe(const Partition& p);

}  // namespace gdiam::mr
