#include "sssp/delta_stepping.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <span>
#include <stdexcept>

#include "exec/context.hpp"
#include "mr/bsp_engine.hpp"
#include "util/bitpack.hpp"
#include "util/parallel.hpp"

namespace gdiam::sssp {

namespace {

/// Cyclic bucket array over pooled storage (RoundBuffers). At any time all
/// queued nodes live in absolute bucket indices [current, current + span),
/// with span bounded by ceil(max_weight / Δ) + 2, so `slots.size() >= span`
/// guarantees one absolute index per slot (a larger pooled array from an
/// earlier run only spreads the indices further apart).
class Buckets {
 public:
  static constexpr std::uint64_t kNoBucket = ~0ULL;

  Buckets(std::vector<std::vector<NodeId>>& slots,
          std::vector<std::uint64_t>& queued_bucket, std::size_t span,
          NodeId n)
      : slots_(slots), queued_bucket_(queued_bucket) {
    if (slots_.size() < span) slots_.resize(span);
    for (auto& s : slots_) s.clear();  // keep capacity, drop stale content
    queued_bucket_.assign(n, kNoBucket);
  }

  void push(NodeId v, std::uint64_t abs_index) {
    if (queued_bucket_[v] == abs_index) return;  // already queued there
    queued_bucket_[v] = abs_index;
    slots_[abs_index % slots_.size()].push_back(v);
    ++queued_;
    max_abs_ = std::max(max_abs_, abs_index);
  }

  /// Drains slot for `abs_index` into `out` (swapping buffers so slot and
  /// list capacities recycle); caller filters stale entries.
  void drain_into(std::uint64_t abs_index, std::vector<NodeId>& out) {
    auto& slot = slots_[abs_index % slots_.size()];
    out.swap(slot);
    slot.clear();
    queued_ -= out.size();
  }

  [[nodiscard]] bool slot_empty(std::uint64_t abs_index) const noexcept {
    return slots_[abs_index % slots_.size()].empty();
  }

  [[nodiscard]] std::uint64_t queued() const noexcept { return queued_; }
  [[nodiscard]] std::uint64_t max_abs() const noexcept { return max_abs_; }

  /// Forget the queued marker so a node drained but still unsettled can be
  /// re-queued into a later bucket.
  void clear_marker(NodeId v) noexcept { queued_bucket_[v] = kNoBucket; }

 private:
  std::vector<std::vector<NodeId>>& slots_;
  std::vector<std::uint64_t>& queued_bucket_;
  std::uint64_t queued_ = 0;
  std::uint64_t max_abs_ = 0;
};

enum class EdgeKind { kLight, kHeavy };

}  // namespace

void RoundBuffers::reset(NodeId n, const core::FrontierOptions& opts) {
  improved.reset(n, opts);
  if (stamps.size() != static_cast<std::size_t>(n)) {
    stamps.assign(n, 0);
    stamp_round = 0;
  }
  drained.clear();
  active.clear();
  settled.clear();
  snapshot.clear();
  // dist_bits / bucket arrays are (re)assigned by the run itself; exchange
  // scratch lazily by the partitioned path. Capacities survive throughout.
}

void RoundBuffers::new_stamp_round() {
  if (++stamp_round == 0) {  // generation wraparound: rebase
    std::fill(stamps.begin(), stamps.end(), 0);
    stamp_round = 1;
  }
}

bool RoundBuffers::stamp_once(NodeId v) {
  if (stamps[v] == stamp_round) return false;
  stamps[v] = stamp_round;
  return true;
}

mr::Transport& RoundBuffers::transport_for(const mr::Partition& part,
                                           std::uint32_t processes,
                                           Weight delta,
                                           std::uint64_t split_builds) {
  if (transport == nullptr || transport_part != &part ||
      transport_processes != processes) {
    drop_transport();  // stop the old pool's workers before forking new ones
    transport = mr::Launcher::make_transport(
        {.kind = mr::TransportKind::kPool, .processes = processes},
        part.num_partitions());
    transport_part = &part;
    transport_processes = processes;
    workers_delta = delta;  // they fork at the first superstep
    pool_split_builds = split_builds;
  } else if (split_builds != pool_split_builds) {
    ++pool_epoch;  // the pool respawns them at the first superstep
    workers_delta = delta;
    pool_split_builds = split_builds;
  }
  return *transport;
}

void RoundBuffers::drop_transport() noexcept {
  transport.reset();
  transport_part = nullptr;
}

DeltaSteppingResult delta_stepping(const Graph& g, NodeId source,
                                   const DeltaSteppingOptions& opts,
                                   exec::Context* ctx) {
  const NodeId n = g.num_nodes();
  if (source >= n) throw std::out_of_range("delta_stepping: bad source");

  // All round-lifetime scratch lives in the context's RoundBuffers pool —
  // allocated once per run, and reused across runs when the caller passes a
  // long-lived context (sweep iterations, CL-DIAM pipelines, benches).
  exec::Context local_ctx;
  exec::Context& C = ctx != nullptr ? *ctx : local_ctx;
  RoundBuffers& rb = C.round_buffers();
  rb.reset(n, opts.frontier);

  DeltaSteppingResult out;
  Weight delta = opts.delta > 0.0 ? opts.delta : g.avg_weight();
  if (delta <= 0.0) delta = 1.0;  // edgeless graph: any value works
  out.delta_used = delta;

  std::vector<std::uint64_t>& dist_bits = rb.dist_bits;
  dist_bits.assign(n, util::kInfDoubleBits);
  dist_bits[source] = util::double_order_bits(0.0);
  auto dist_of = [&](NodeId v) {
    return util::double_from_order_bits(
        std::atomic_ref<std::uint64_t>(dist_bits[v])
            .load(std::memory_order_relaxed));
  };
  auto bucket_of = [&](Weight d) {
    return static_cast<std::uint64_t>(d / delta);
  };

  const std::size_t span =
      static_cast<std::size_t>(std::ceil(g.max_weight() / delta)) + 3;
  Buckets buckets(rb.bucket_slots, rb.bucket_queued, span, n);
  buckets.push(source, 0);

  // Partitioned BSP backend (opts.partition.num_partitions > 1): relaxation
  // phases run as supersteps on K shards instead of one flat loop. The shard
  // layout is cached in the context; the staging scratch and the transport
  // live in RoundBuffers. The transport decides where the supersteps'
  // compute runs (mr/transport.hpp): in-process threads, or
  // opts.transport.processes worker processes, resident across the runs of
  // a warm context.
  //
  // Δ-presplit adjacency (graph/split_csr.hpp): one O(m) light-first reorder,
  // cached in the context so equal-Δ repetitions (sweeps) presplit once. The
  // flat kernel splits the graph's CSR; the partitioned one splits each
  // shard's CSR, so both backends see the same per-node split offsets.
  const mr::Partition* part = nullptr;
  const SplitCsr* split = nullptr;
  std::optional<mr::BspEngine> bsp;
  if (opts.partition.num_partitions > 1 && n > 0) {
    part = &C.partition_for(g, opts.partition);
    rb.pool_delta = delta;
    rb.pool_splits = &C.shard_splits_for(g, opts.partition, delta);
    if (opts.transport.kind == mr::TransportKind::kPool) {
      bsp.emplace(*part, &rb.transport_for(*part, opts.transport.processes,
                                           delta, C.shard_split_builds()));
    } else {
      bsp.emplace(*part);  // the engine's own LocalTransport
    }
    const std::uint32_t k = part->num_partitions();
    if (rb.exchange.num_partitions() != k) {
      rb.exchange.resize(k);
      rb.by_shard.assign(k, {});
    } else {
      rb.exchange.clear();
    }
    rb.shard_messages.assign(k, 0);
    rb.shard_updates.assign(k, 0);
    out.partitions_used = k;
    out.processes_used = bsp->transport().processes();
  } else {
    split = &C.split_for(g, delta);
  }
  // Under a remote transport a shard's compute runs in a forked worker whose
  // writes to dist_bits (and every other coordinator array) are lost: owned
  // lowerings are staged as loopback records and replayed — in the identical
  // order — by the apply phase (DESIGN.md §9).
  //
  // The frozen-closure contract (DESIGN.md §10). The workers fork at the
  // first superstep of some earlier run on this context and keep executing
  // *that* run's closures, frozen in their snapshot, for every later run.
  // So the compute and decode closures below may read only:
  //   - the partition slice (`part`): the transport's key, so a worker never
  //     outlives the partition it was forked with;
  //   - the context's presplit cache (`C`) as it was at the fork: the epoch
  //     moves whenever the context has built a presplit since;
  //   - the per-phase inputs shipped into stable RoundBuffers storage
  //     through the StepInputCodec: the frontier pairs routed to each shard
  //     (`by_shard`), the phase's edge class (`pool_kind`) and, on a run
  //     at a Δ the workers do not hold, that Δ (`pool_delta`), whose
  //     presplit the decoder looks up into `pool_splits`.
  // Nothing else from the frame of a later call reaches a worker.
  const bool remote = bsp && bsp->remote_compute();
  mr::StepInputCodec pool_codec;
  if (remote) {
    pool_codec.epoch = rb.pool_epoch;
    // Input frame, per shard: [u8 edge_kind | kShipsDelta][f64 Δ, only with
    // kShipsDelta][FrontierEntry records...].
    constexpr std::uint8_t kShipsDelta = 0x80;
    pool_codec.encode = [&rb](mr::ShardId s, std::vector<std::byte>& buf) {
      const bool ship = rb.pool_delta != rb.workers_delta;
      buf.push_back(
          static_cast<std::byte>(rb.pool_kind | (ship ? kShipsDelta : 0)));
      if (ship) {
        const auto* d = reinterpret_cast<const std::byte*>(&rb.pool_delta);
        buf.insert(buf.end(), d, d + sizeof rb.pool_delta);
      }
      const auto& entries = rb.by_shard[s];
      const auto* p = reinterpret_cast<const std::byte*>(entries.data());
      buf.insert(buf.end(), p, p + entries.size() * sizeof(FrontierEntry));
    };
    pool_codec.decode = [&rb, &C](mr::ShardId s, const std::byte* p,
                                  std::size_t len) {
      const auto head = static_cast<std::uint8_t>(p[0]);
      ++p;
      --len;
      rb.pool_kind = head & ~kShipsDelta;
      if ((head & kShipsDelta) != 0) {
        if (len < sizeof rb.pool_delta) {
          throw std::runtime_error("truncated pool input frame");
        }
        std::memcpy(&rb.pool_delta, p, sizeof rb.pool_delta);
        p += sizeof rb.pool_delta;
        len -= sizeof rb.pool_delta;
        rb.pool_splits =
            C.find_shard_splits(*rb.transport_part, rb.pool_delta);
        if (rb.pool_splits == nullptr) {
          throw std::logic_error(
              "pool worker snapshot lacks the shipped presplit");
        }
      }
      auto& entries = rb.by_shard[s];
      entries.resize(len / sizeof(FrontierEntry));
      if (len != 0) std::memcpy(entries.data(), p, len);
    };
  }

  // Relax `kind` edges out of `frontier` (distance snapshots taken at phase
  // start, so the phase is one synchronous round and all counters are
  // independent of thread interleaving); returns the distinct nodes whose
  // tentative distance improved.
  auto relax_flat = [&](const std::vector<FrontierEntry>& frontier,
                        EdgeKind kind) -> const std::vector<NodeId>& {
    std::uint64_t messages = 0, updates = 0;
#pragma omp parallel for schedule(dynamic, 64) reduction(+ : messages, updates)
    for (std::size_t f = 0; f < frontier.size(); ++f) {
      const NodeId u = frontier[f].node;
      const Weight du = frontier[f].dist;
      // Exactly the arcs of this class: no per-edge branch, no double scan.
      const std::span<const NodeId> nbr = kind == EdgeKind::kLight
                                              ? split->light_neighbors(u)
                                              : split->heavy_neighbors(u);
      const std::span<const Weight> wts = kind == EdgeKind::kLight
                                              ? split->light_weights(u)
                                              : split->heavy_weights(u);
      for (std::size_t i = 0; i < nbr.size(); ++i) {
        ++messages;
        const std::uint64_t nd = util::double_order_bits(du + wts[i]);
        // Count each improved node once per phase: the frontier stamp
        // admits one first insert.
        if (util::atomic_fetch_min(dist_bits[nbr[i]], nd) &&
            rb.improved.insert(nbr[i])) {
          ++updates;
        }
      }
    }
    out.stats.messages += messages;
    out.stats.node_updates += updates;
    rb.improved.advance();
    return rb.improved.nodes();
  };

  // Same phase as one BSP superstep: each shard relaxes the frontier nodes
  // it owns over its own CSR, lowers owned targets directly (it is the only
  // writer of their dist slots, so no atomics are needed) and ships ghost
  // targets through the exchange; the apply phase folds inboxes the same
  // way. The per-phase min-reduction fixpoint — and hence every distance and
  // counter — is identical to relax_flat.
  auto relax_bsp = [&](const std::vector<FrontierEntry>& frontier,
                       EdgeKind kind) -> const std::vector<NodeId>& {
    const std::uint32_t k = part->num_partitions();
    // Stable-slot copy of the phase's edge class: compute reads it from
    // RoundBuffers so a resident worker sees the value the codec shipped.
    rb.pool_kind = static_cast<std::uint8_t>(kind);
    for (std::uint32_t s = 0; s < k; ++s) {
      rb.by_shard[s].clear();
      rb.shard_messages[s] = 0;
      rb.shard_updates[s] = 0;
    }
    for (const auto& e : frontier) {
      rb.by_shard[part->owner(e.node)].push_back(e);
    }

    // Lower the owned node v to `nd`; single-writer per shard, no atomics.
    auto lower = [&](mr::ShardId s, NodeId v, std::uint64_t nd) {
      if (nd < dist_bits[v]) {
        dist_bits[v] = nd;
        if (rb.improved.insert_serial(v)) rb.shard_updates[s]++;
      }
    };

    auto compute = [&](const mr::Shard& sh, mr::Exchange<DistProposal>& ex) {
      std::uint64_t messages = 0;
      // Read the edge class from its stable RoundBuffers slot, not the
      // enclosing frame: a resident pool worker's copy of this closure is
      // frozen at fork time, and only rb is refreshed by decode_input.
      const auto ck = static_cast<EdgeKind>(rb.pool_kind);
      // Iterate only the [light | heavy] half of the shard's permuted
      // segment.
      const CsrSplit& ss = (*rb.pool_splits)[sh.id];
      for (const FrontierEntry& e : rb.by_shard[sh.id]) {
        const NodeId l = part->local_id(e.node);
        EdgeIndex lo = sh.offsets[l];
        EdgeIndex hi = sh.offsets[l + 1];
        (ck == EdgeKind::kLight ? hi : lo) = ss.split[l];
        for (EdgeIndex i = lo; i < hi; ++i) {
          ++messages;
          const std::uint64_t nd =
              util::double_order_bits(e.dist + ss.weights[i]);
          const NodeId tl = ss.targets[i];
          const NodeId v = sh.global_of_local[tl];
          if (!sh.is_ghost(tl)) {
            // tl is v's id within its owner shard (sh), so the record reads
            // back through apply exactly like a routed proposal.
            if (remote) {
              ex.loopback(sh.id, DistProposal{tl, nd});
            } else {
              lower(sh.id, v, nd);
            }
          } else {
            ex.send(sh.id, sh.ghost_owner[tl - sh.num_owned],
                    DistProposal{part->local_id(v), nd});
          }
        }
      }
      rb.shard_messages[sh.id] = messages;
    };
    auto apply = [&](const mr::Shard& sh,
                     std::span<const DistProposal> inbox) {
      for (const DistProposal& m : inbox) {
        lower(sh.id, sh.global_of_local[m.target], m.bits);
      }
    };
    bsp->superstep(rb.exchange, compute, apply, &out.stats,
                   std::span<std::uint64_t>(rb.shard_messages.data(), k),
                   remote ? &pool_codec : nullptr);
    // Every worker now holds this run's Δ: shipped, or forked with it.
    if (remote) rb.workers_delta = rb.pool_delta;

    for (std::uint32_t s = 0; s < k; ++s) {
      out.stats.messages += rb.shard_messages[s];
      out.stats.node_updates += rb.shard_updates[s];
    }
    rb.improved.advance();
    return rb.improved.nodes();
  };

  auto relax = [&](const std::vector<FrontierEntry>& frontier,
                   EdgeKind kind) -> const std::vector<NodeId>& {
    out.stats.relaxation_rounds++;
    const auto& changed = part != nullptr ? relax_bsp(frontier, kind)
                                          : relax_flat(frontier, kind);
    // Round convention of DESIGN.md §7: the phase is classified by the
    // representation that collected its improved set.
    if (rb.improved.current_mode() == core::FrontierMode::kDense) {
      out.stats.dense_rounds++;
    } else {
      out.stats.sparse_rounds++;
    }
    return changed;
  };
  auto snapshot = [&](const std::vector<NodeId>& nodes)
      -> const std::vector<FrontierEntry>& {
    rb.snapshot.clear();
    rb.snapshot.reserve(nodes.size());
    for (const NodeId v : nodes) {
      rb.snapshot.push_back(FrontierEntry{v, 0, dist_of(v)});
    }
    return rb.snapshot;
  };

  std::uint64_t cur = 0;
  while (buckets.queued() > 0) {
    // Bucket selection = one scan over bucket indices (one MR round).
    out.stats.auxiliary_rounds++;
    while (cur <= buckets.max_abs() && buckets.slot_empty(cur)) ++cur;
    if (cur > buckets.max_abs()) break;  // defensive; queued()>0 should hold

    // R in the paper: all nodes leaving the bucket, deduplicated at
    // insertion time with one stamp generation per bucket (a node may be
    // drained twice when it re-enters cur).
    rb.settled.clear();
    rb.new_stamp_round();
    std::uint64_t phases = 0;
    while (!buckets.slot_empty(cur)) {
      buckets.drain_into(cur, rb.drained);
      rb.active.clear();
      for (const NodeId v : rb.drained) {
        buckets.clear_marker(v);
        if (bucket_of(dist_of(v)) == cur) rb.active.push_back(v);
        // stale entries (node moved to an earlier bucket) are dropped
      }
      if (rb.active.empty()) break;
      for (const NodeId v : rb.active) {
        if (rb.stamp_once(v)) rb.settled.push_back(v);
      }

      const auto& changed = relax(snapshot(rb.active), EdgeKind::kLight);
      for (const NodeId v : changed) {
        const std::uint64_t b = bucket_of(dist_of(v));
        if (b >= cur) buckets.push(v, b);
      }
      if (opts.max_phases_per_bucket != 0 &&
          ++phases >= opts.max_phases_per_bucket) {
        break;
      }
    }

    if (!rb.settled.empty()) {
      const auto& changed = relax(snapshot(rb.settled), EdgeKind::kHeavy);
      for (const NodeId v : changed) {
        buckets.push(v, bucket_of(dist_of(v)));
      }
    }
    out.buckets_processed++;
    // Advance only past an emptied bucket: when the per-bucket phase cap
    // fired, the slot may still hold unsettled nodes that must be
    // re-processed (skipping them would freeze non-final distances).
    if (buckets.slot_empty(cur)) ++cur;
  }

  out.dist.resize(n);
  Weight ecc = 0.0;
  NodeId far = source;
  for (NodeId u = 0; u < n; ++u) {
    out.dist[u] = util::double_from_order_bits(dist_bits[u]);
    if (out.dist[u] != kInfiniteWeight && out.dist[u] > ecc) {
      ecc = out.dist[u];
      far = u;
    }
  }
  out.eccentricity = ecc;
  out.farthest = far;
  return out;
}

SsspDiameterApprox diameter_two_approx(const Graph& g, NodeId source,
                                       const DeltaSteppingOptions& opts) {
  const DeltaSteppingResult r = delta_stepping(g, source, opts);
  SsspDiameterApprox out;
  out.eccentricity = r.eccentricity;
  out.upper_bound = 2.0 * r.eccentricity;
  out.stats = r.stats;
  out.delta_used = r.delta_used;
  return out;
}

}  // namespace gdiam::sssp
