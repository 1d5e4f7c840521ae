#include "sssp/rho_stepping.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <span>
#include <stdexcept>

#include "exec/context.hpp"
#include "mr/bsp_engine.hpp"
#include "util/bitpack.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace gdiam::sssp {

namespace {

/// Threshold sample size (PASGAL uses 1024 probes) and its hash seed. The
/// seed is mixed with the step number, so each step samples afresh, the
/// same way in every run, transport and thread count.
constexpr std::uint64_t kSampleProbes = 1024;
constexpr std::uint64_t kSampleSeed = 0x5a3d13f0e57ULL;

/// Per-vertex hash for the threshold sample: a pure function of
/// (seed, step, v), so membership in the sample is determined by the
/// frontier *set* — never by the materialized list order, which for sparse
/// collections depends on thread interleaving.
[[nodiscard]] std::uint64_t sample_hash(std::uint64_t seed, std::uint64_t step,
                                        NodeId v) noexcept {
  return util::SplitMix64(seed ^ (step * 0xbf58476d1ce4e5b9ULL) ^
                          (static_cast<std::uint64_t>(v) *
                           0x94d049bb133111ebULL))
      .next();
}

}  // namespace

DeltaSteppingResult rho_stepping(const Graph& g, NodeId source,
                                 const DeltaSteppingOptions& opts,
                                 exec::Context* ctx) {
  const NodeId n = g.num_nodes();
  if (source >= n) throw std::out_of_range("rho_stepping: bad source");

  exec::Context local_ctx;
  exec::Context& C = ctx != nullptr ? *ctx : local_ctx;
  RoundBuffers& rb = C.round_buffers();
  rb.reset(n, opts.frontier);

  DeltaSteppingResult out;
  out.algorithm_used = exec::Algorithm::kRhoStepping;
  // Auto batch target: big enough to feed every thread per step, small
  // enough that a step's wavefront stays distance-coherent (DESIGN.md §11).
  const std::uint64_t rho =
      opts.rho > 0 ? opts.rho : std::max<std::uint64_t>(1024, n / 64);
  out.rho_used = rho;

  std::vector<std::uint64_t>& dist_bits = rb.dist_bits;
  dist_bits.assign(n, util::kInfDoubleBits);
  dist_bits[source] = util::double_order_bits(0.0);
  auto dist_of = [&](NodeId v) {
    return util::double_from_order_bits(
        std::atomic_ref<std::uint64_t>(dist_bits[v])
            .load(std::memory_order_relaxed));
  };

  // The frontier is an explicit list plus a per-vertex membership marker
  // (the pooled bucket_queued array, unused by this kernel otherwise):
  // far nodes persist across steps, improved nodes enter exactly once.
  std::vector<NodeId>& frontier = rb.active;
  std::vector<std::uint64_t>& in_frontier = rb.bucket_queued;
  in_frontier.assign(n, 0);
  frontier.clear();
  frontier.push_back(source);
  in_frontier[source] = 1;

  // Partitioned BSP backend — identical setup to delta_stepping: cached
  // shard layout, pluggable transport, pooled exchange staging.
  const mr::Partition* part = nullptr;
  std::unique_ptr<mr::Transport> transport;
  std::unique_ptr<mr::BspEngine> bsp;
  if (opts.partition.num_partitions > 1 && n > 0) {
    part = &C.partition_for(g, opts.partition);
    // NUMA placement, identical to delta_stepping: the transport binds
    // compute by the plan, the exchange classifies cross-node traffic by it.
    mr::PlacementPlan plan =
        mr::resolve_placement(opts.placement, part->num_partitions());
    transport = mr::Launcher::make_transport(
        opts.transport, part->num_partitions(), plan);
    bsp = std::make_unique<mr::BspEngine>(*part, transport.get());
    const std::uint32_t k = part->num_partitions();
    if (rb.exchange.num_partitions() != k) {
      rb.exchange.resize(k);
      rb.by_shard.assign(k, {});
    } else {
      rb.exchange.clear();
    }
    rb.exchange.set_node_map(plan.node_of_shard());
    rb.shard_messages.assign(k, 0);
    rb.shard_updates.assign(k, 0);
    out.partitions_used = k;
    out.processes_used = transport->processes();
  }
  const bool remote = bsp != nullptr && bsp->remote_compute();
  const bool resident = bsp != nullptr && bsp->resident_compute();
  mr::StepInputCodec pool_codec;
  if (resident) {
    // Input frame, per shard: [u8 pad][(NodeId, Weight) pairs...]. ρ-stepping
    // has no edge-class byte (it always relaxes a node's full adjacency), but
    // the pad keeps the frame nonempty even for an empty batch: the pool
    // skips decode_input on zero-length frames, and a skipped decode would
    // leave the resident worker re-relaxing its previous step's pairs.
    pool_codec.encode = [&rb](mr::ShardId s, std::vector<std::byte>& buf) {
      buf.push_back(std::byte{0});
      const auto& pairs = rb.by_shard[s];
      const auto* p = reinterpret_cast<const std::byte*>(pairs.data());
      buf.insert(buf.end(), p, p + pairs.size() * sizeof(pairs[0]));
    };
    pool_codec.decode = [&rb](mr::ShardId s, const std::byte* p,
                              std::size_t len) {
      ++p;
      --len;
      auto& pairs = rb.by_shard[s];
      pairs.resize(len / sizeof(pairs[0]));
      if (len != 0) std::memcpy(pairs.data(), p, len);
    };
  }

  // Relax ALL edges out of `batch` (distances snapshotted at phase start, so
  // the phase is one synchronous round); returns the distinct improved nodes.
  auto relax_flat =
      [&](const std::vector<std::pair<NodeId, Weight>>& batch)
      -> const std::vector<NodeId>& {
    std::uint64_t messages = 0, updates = 0;
#pragma omp parallel for schedule(dynamic, 64) reduction(+ : messages, updates)
    for (std::size_t f = 0; f < batch.size(); ++f) {
      const auto [u, du] = batch[f];
      const std::span<const NodeId> nbr = g.neighbors(u);
      const std::span<const Weight> wts = g.weights(u);
      for (std::size_t i = 0; i < nbr.size(); ++i) {
        ++messages;
        const std::uint64_t nd = util::double_order_bits(du + wts[i]);
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

  // Same phase as one BSP superstep, mirroring delta_stepping's relax_bsp
  // minus the edge-class split: each shard relaxes the batch nodes it owns
  // over its full shard CSR, lowers owned targets directly (loopback under a
  // remote transport) and ships ghosts through the exchange.
  auto relax_bsp = [&](const std::vector<std::pair<NodeId, Weight>>& batch)
      -> const std::vector<NodeId>& {
    const std::uint32_t k = part->num_partitions();
    for (std::uint32_t s = 0; s < k; ++s) {
      rb.by_shard[s].clear();
      rb.shard_messages[s] = 0;
      rb.shard_updates[s] = 0;
    }
    for (const auto& e : batch) {
      rb.by_shard[part->owner(e.first)].push_back(e);
    }

    auto lower = [&](mr::ShardId s, NodeId v, std::uint64_t nd) {
      if (nd < dist_bits[v]) {
        dist_bits[v] = nd;
        if (rb.improved.insert_serial(v)) rb.shard_updates[s]++;
      }
    };

    auto compute = [&](const mr::Shard& sh, mr::Exchange<DistProposal>& ex) {
      std::uint64_t messages = 0;
      for (const auto& [u, du] : rb.by_shard[sh.id]) {
        const NodeId l = part->local_id(u);
        const EdgeIndex lo = sh.offsets[l];
        const EdgeIndex hi = sh.offsets[l + 1];
        for (EdgeIndex i = lo; i < hi; ++i) {
          ++messages;
          const std::uint64_t nd =
              util::double_order_bits(du + sh.weights[i]);
          const NodeId tl = sh.targets[i];
          const NodeId v = sh.global_of_local[tl];
          if (!sh.is_ghost(tl)) {
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
                   resident ? &pool_codec : nullptr);

    for (std::uint32_t s = 0; s < k; ++s) {
      out.stats.messages += rb.shard_messages[s];
      out.stats.node_updates += rb.shard_updates[s];
    }
    rb.improved.advance();
    return rb.improved.nodes();
  };

  auto relax = [&](const std::vector<std::pair<NodeId, Weight>>& batch)
      -> const std::vector<NodeId>& {
    out.stats.relaxation_rounds++;
    const auto& changed =
        part != nullptr ? relax_bsp(batch) : relax_flat(batch);
    if (rb.improved.current_mode() == core::FrontierMode::kDense) {
      out.stats.dense_rounds++;
    } else {
      out.stats.sparse_rounds++;
    }
    return changed;
  };
  auto snapshot = [&](const std::vector<NodeId>& nodes)
      -> const std::vector<std::pair<NodeId, Weight>>& {
    rb.snapshot.clear();
    rb.snapshot.reserve(nodes.size());
    for (const NodeId v : nodes) rb.snapshot.emplace_back(v, dist_of(v));
    return rb.snapshot;
  };

  // θ for this step, as an order-encoded distance: the ρ/|F| quantile of a
  // ~kSampleProbes-node hash-inclusion sample of the frontier's tentative
  // distances. θ is always one of the sampled (i.e. actual frontier)
  // distances, so the extracted near set is never empty.
  auto pick_threshold = [&](std::uint64_t step) -> std::uint64_t {
    std::vector<std::uint64_t>& sample = rb.sample_bits;
    sample.clear();
    const std::uint64_t fsize = frontier.size();
    if (fsize <= kSampleProbes) {
      for (const NodeId v : frontier) sample.push_back(dist_bits[v]);
    } else {
      // Include v with probability probes/|F|: hash < probes·(2^64/|F|).
      const std::uint64_t cut = static_cast<std::uint64_t>(
          (static_cast<unsigned __int128>(kSampleProbes) << 64) / fsize);
      for (const NodeId v : frontier) {
        if (sample_hash(kSampleSeed, step, v) < cut) {
          sample.push_back(dist_bits[v]);
        }
      }
      if (sample.empty()) return ~0ULL;  // astronomically unlikely: take all
    }
    std::sort(sample.begin(), sample.end());
    const auto rank = static_cast<std::size_t>(
        (static_cast<unsigned __int128>(rho) * sample.size()) / fsize);
    return sample[std::min(rank, sample.size() - 1)];
  };

  while (!frontier.empty()) {
    // Threshold selection = one scan over the frontier (one MR round),
    // mirroring Δ-stepping's bucket-selection accounting.
    out.stats.auxiliary_rounds++;
    const std::uint64_t theta =
        frontier.size() <= rho ? ~0ULL : pick_threshold(out.buckets_processed);

    // Extract the near set (dist ≤ θ, compared in order-bit space); far
    // nodes keep their frontier slot and marker.
    rb.drained.clear();
    std::size_t keep = 0;
    for (const NodeId v : frontier) {
      if (dist_bits[v] <= theta) {
        in_frontier[v] = 0;
        rb.drained.push_back(v);
      } else {
        frontier[keep++] = v;
      }
    }
    frontier.resize(keep);

    const auto& changed = relax(snapshot(rb.drained));
    for (const NodeId v : changed) {
      if (in_frontier[v] == 0) {
        in_frontier[v] = 1;
        frontier.push_back(v);
      }
    }
    out.buckets_processed++;
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

DeltaSteppingResult shortest_paths(const Graph& g, NodeId source,
                                   const DeltaSteppingOptions& opts,
                                   exec::Context* ctx) {
  return opts.algorithm == exec::Algorithm::kRhoStepping
             ? rho_stepping(g, source, opts, ctx)
             : delta_stepping(g, source, opts, ctx);
}

}  // namespace gdiam::sssp
