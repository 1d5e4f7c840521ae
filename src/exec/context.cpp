#include "exec/context.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "core/growing.hpp"
#include "graph/binfmt.hpp"

namespace gdiam::exec {

namespace {

bool same_partition_opts(const mr::PartitionOptions& a,
                         const mr::PartitionOptions& b) noexcept {
  return a.num_partitions == b.num_partitions && a.strategy == b.strategy;
}

/// Moves entry i of an MRU-first vector to the front (cheap rotate of
/// unique_ptr-holding structs).
template <typename Entry>
void touch(std::vector<Entry>& entries, std::size_t i) {
  if (i != 0) std::rotate(entries.begin(), entries.begin() + i,
                          entries.begin() + i + 1);
}

}  // namespace

mr::RoundStats& StatsSink::phase(std::string_view name) {
  for (auto& [n, s] : phases_) {
    if (n == name) return s;
  }
  phases_.emplace_back(std::string(name), mr::RoundStats{});
  return phases_.back().second;
}

const mr::RoundStats* StatsSink::find(std::string_view name) const {
  for (const auto& [n, s] : phases_) {
    if (n == name) return &s;
  }
  return nullptr;
}

mr::RoundStats StatsSink::total() const noexcept {
  mr::RoundStats out;
  for (const auto& [n, s] : phases_) out += s;
  return out;
}

Context::Context() = default;
Context::Context(const ExecOptions& opts) : opts_(opts) {}
Context::~Context() = default;

const SplitCsr& Context::split_for(const Graph& g, Weight delta) {
  for (std::size_t i = 0; i < splits_.size(); ++i) {
    if (splits_[i].key.matches(g) && splits_[i].delta == delta) {
      touch(splits_, i);
      return *splits_.front().split;
    }
  }
  if (splits_.size() >= kMaxSplits) splits_.pop_back();  // evict LRU
  splits_.insert(splits_.begin(),
                 SplitEntry{GraphKey::of(g), delta,
                            std::make_unique<SplitCsr>(g, delta)});
  return *splits_.front().split;
}

const mr::Partition& Context::partition_for(const Graph& g,
                                            const mr::PartitionOptions& opts) {
  for (std::size_t i = 0; i < partitions_.size(); ++i) {
    if (partitions_[i].key.matches(g) &&
        same_partition_opts(partitions_[i].opts, opts)) {
      touch(partitions_, i);
      return *partitions_.front().partition;
    }
  }
  partitions_.insert(partitions_.begin(),
                     PartitionEntry{GraphKey::of(g), opts,
                                    std::make_unique<mr::Partition>(g, opts)});
  return *partitions_.front().partition;
}

const mr::Partition* Context::find_partition(const Graph& g) const {
  for (const auto& e : partitions_) {
    if (e.key.matches(g)) return e.partition.get();
  }
  return nullptr;
}

const std::vector<CsrSplit>& Context::shard_splits_for(
    const Graph& g, const mr::PartitionOptions& opts, Weight delta) {
  const mr::Partition& part = partition_for(g, opts);
  for (std::size_t i = 0; i < shard_splits_.size(); ++i) {
    if (shard_splits_[i].partition == &part &&
        shard_splits_[i].delta == delta) {
      touch(shard_splits_, i);
      return *shard_splits_.front().splits;
    }
  }
  auto splits = std::make_unique<std::vector<CsrSplit>>();
  splits->reserve(part.num_partitions());
  for (mr::ShardId s = 0; s < part.num_partitions(); ++s) {
    const mr::Shard& sh = part.shards()[s];
    splits->push_back(presplit_csr(sh.offsets, sh.targets, sh.weights, delta));
  }
  if (shard_splits_.size() >= kMaxSplits) shard_splits_.pop_back();
  shard_splits_.insert(shard_splits_.begin(),
                       ShardSplitEntry{&part, delta, std::move(splits)});
  ++shard_split_builds_;
  return *shard_splits_.front().splits;
}

const std::vector<CsrSplit>* Context::find_shard_splits(
    const mr::Partition& part, Weight delta) const noexcept {
  for (const ShardSplitEntry& e : shard_splits_) {
    if (e.partition == &part && e.delta == delta) return e.splits.get();
  }
  return nullptr;
}

std::size_t Context::adopt_presplits(const Graph& g, const io::MappedGraph& m) {
  if (!m.covers(g)) {
    throw io::BinfmtError(
        io::BinfmtErrc::kFingerprintMismatch,
        "presplit adoption: graph is not a view of this mapping");
  }
  // Stage everything first: a kBadPresplit thrown by the third sidecar must
  // not leave the first two behind in the cache.
  std::vector<SplitEntry> staged;
  for (const Weight delta : m.presplit_deltas()) {
    if (has_split(g, delta)) continue;
    std::optional<SplitCsr> view = m.presplit(g, delta);
    if (!view) continue;
    staged.push_back(SplitEntry{GraphKey::of(g), delta,
                                std::make_unique<SplitCsr>(std::move(*view))});
  }
  for (auto& e : staged) {
    if (splits_.size() >= kMaxSplits) splits_.pop_back();
    splits_.insert(splits_.begin(), std::move(e));
  }
  return staged.size();
}

bool Context::has_split(const Graph& g, Weight delta) const {
  for (const auto& e : splits_) {
    if (e.key.matches(g) && e.delta == delta) return true;
  }
  return false;
}

core::GrowingEngine& Context::growing_engine(const Graph& g,
                                             core::GrowingPolicy policy,
                                             const mr::PartitionOptions& popts) {
  for (std::size_t i = 0; i < engines_.size(); ++i) {
    if (engines_[i].key.matches(g) && engines_[i].policy == policy &&
        same_partition_opts(engines_[i].popts, popts)) {
      touch(engines_, i);
      return *engines_.front().engine;
    }
  }
  engines_.insert(
      engines_.begin(),
      EngineEntry{GraphKey::of(g), policy, popts,
                  std::make_unique<core::GrowingEngine>(g, policy, popts,
                                                        this)});
  return *engines_.front().engine;
}

void Context::clear() {
  engines_.clear();       // engines reference partitions: drop them first
  shard_splits_.clear();  // shard splits key off partition addresses
  partitions_.clear();
  splits_.clear();
  buffers_.reset(0, {});  // rebind to empty; capacity intentionally kept
  stats_.clear();
}

}  // namespace gdiam::exec
