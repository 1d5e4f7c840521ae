#include "core/frontier.hpp"

#include <algorithm>
#include <atomic>
#include <bit>

#include <omp.h>

namespace gdiam::core {

namespace {

/// Words per block of the dense materialization scan (64 Ki vertices): large
/// enough to amortize the prefix pass, small enough to balance skewed
/// frontiers across threads.
constexpr std::size_t kScanBlockWords = 1024;

}  // namespace

void Frontier::reset(NodeId n, const FrontierOptions& opts) {
  n_ = n;
  opts_ = opts;
  if (opts_.local_queue_capacity == 0) opts_.local_queue_capacity = 1;
  collect_mode_ = FrontierMode::kSparse;
  current_mode_ = FrontierMode::kSparse;
  round_ = 1;
  current_round_ = 0;
  stamp_.assign(n_, 0);
  bits_.assign((static_cast<std::size_t>(n_) + 63) / 64, 0);
  nodes_.clear();
  for (auto& b : blocks_) {
    b.clear();
    free_blocks_.push_back(std::move(b));
  }
  blocks_.clear();
  ensure_thread_slots();
  for (auto& q : queues_) q.buf.clear();
}

void Frontier::ensure_thread_slots() {
  const auto want = static_cast<std::size_t>(omp_get_max_threads());
  if (queues_.size() < want) queues_.resize(want);
  for (auto& q : queues_) q.buf.reserve(opts_.local_queue_capacity);
}

void Frontier::flush_queue(LocalQueue& q) {
  std::vector<NodeId> fresh;
  {
    const std::lock_guard<std::mutex> lock(blocks_mutex_);
    blocks_.push_back(std::move(q.buf));
    if (!free_blocks_.empty()) {
      fresh = std::move(free_blocks_.back());
      free_blocks_.pop_back();
    }
  }
  fresh.clear();
  fresh.reserve(opts_.local_queue_capacity);
  q.buf = std::move(fresh);
}

bool Frontier::insert(NodeId v) {
  // Dense collection is bitmap-only: the fetch_or is the dedup, and stamps
  // stay untouched so contains() keeps answering for the *current* frontier
  // even while this round is being collected (fused scan+collect rounds like
  // the dense pull sweep rely on that). advance() rewrites the stamps.
  if (collect_mode_ == FrontierMode::kDense) {
    const std::uint64_t mask = 1ULL << (v & 63);
    std::atomic_ref<std::uint64_t> word(bits_[v >> 6]);
    return (word.fetch_or(mask, std::memory_order_relaxed) & mask) == 0;
  }
  std::atomic_ref<std::uint32_t> s(stamp_[v]);
  std::uint32_t cur = s.load(std::memory_order_relaxed);
  do {
    if (cur == round_) return false;  // someone already inserted v this round
  } while (!s.compare_exchange_weak(cur, round_, std::memory_order_relaxed));
  LocalQueue& q = queues_[static_cast<std::size_t>(omp_get_thread_num())];
  q.buf.push_back(v);
  if (q.buf.size() >= opts_.local_queue_capacity) flush_queue(q);
  return true;
}

bool Frontier::insert_serial(NodeId v) {
  if (collect_mode_ == FrontierMode::kDense) {
    // Distinct callers own distinct v, but two v can share a word.
    const std::uint64_t mask = 1ULL << (v & 63);
    std::atomic_ref<std::uint64_t> word(bits_[v >> 6]);
    return (word.fetch_or(mask, std::memory_order_relaxed) & mask) == 0;
  }
  if (stamp_[v] == round_) return false;
  stamp_[v] = round_;
  LocalQueue& q = queues_[static_cast<std::size_t>(omp_get_thread_num())];
  q.buf.push_back(v);
  if (q.buf.size() >= opts_.local_queue_capacity) flush_queue(q);
  return true;
}

void Frontier::materialize() {
  nodes_.clear();
  if (collect_mode_ == FrontierMode::kSparse) {
    std::size_t total = 0;
    for (const auto& b : blocks_) total += b.size();
    for (const auto& q : queues_) total += q.buf.size();
    nodes_.reserve(total);
    for (auto& b : blocks_) {
      nodes_.insert(nodes_.end(), b.begin(), b.end());
      b.clear();
      free_blocks_.push_back(std::move(b));  // recycle the storage
    }
    blocks_.clear();
    // Partial thread queues are copied out and cleared in place (capacity
    // kept), so rounds that never overflow a queue — the steady sparse
    // state — allocate nothing and the free list only cycles on overflow.
    for (auto& q : queues_) {
      nodes_.insert(nodes_.end(), q.buf.begin(), q.buf.end());
      q.buf.clear();
    }
    return;
  }

  // Dense: blocked parallel scan of the bitmap — count, prefix, fill — and
  // clear each word on the way out so the bitmap is ready for reuse.
  const std::size_t words = bits_.size();
  const std::size_t nblocks = (words + kScanBlockWords - 1) / kScanBlockWords;
  scan_offsets_.assign(nblocks + 1, 0);
#pragma omp parallel for schedule(static)
  for (std::size_t b = 0; b < nblocks; ++b) {
    const std::size_t lo = b * kScanBlockWords;
    const std::size_t hi = std::min(words, lo + kScanBlockWords);
    std::size_t count = 0;
    for (std::size_t w = lo; w < hi; ++w) {
      count += static_cast<std::size_t>(std::popcount(bits_[w]));
    }
    scan_offsets_[b + 1] = count;
  }
  for (std::size_t b = 0; b < nblocks; ++b) {
    scan_offsets_[b + 1] += scan_offsets_[b];
  }
  nodes_.resize(scan_offsets_[nblocks]);
#pragma omp parallel for schedule(static)
  for (std::size_t b = 0; b < nblocks; ++b) {
    const std::size_t lo = b * kScanBlockWords;
    const std::size_t hi = std::min(words, lo + kScanBlockWords);
    std::size_t out = scan_offsets_[b];
    for (std::size_t w = lo; w < hi; ++w) {
      std::uint64_t word = bits_[w];
      bits_[w] = 0;
      while (word != 0) {
        const auto bit = static_cast<std::size_t>(std::countr_zero(word));
        nodes_[out++] = static_cast<NodeId>(w * 64 + bit);
        word &= word - 1;
      }
    }
  }
}

void Frontier::bump_round() {
  if (++round_ != 0) return;
  // Stamp wraparound (once per 2^32 rounds): rebase so current members stay
  // distinguishable from everything else.
  std::fill(stamp_.begin(), stamp_.end(), 0);
  for (const NodeId v : nodes_) stamp_[v] = 1;
  current_round_ = nodes_.empty() ? 0 : 1;
  round_ = 2;
}

void Frontier::advance() {
  ensure_thread_slots();
  materialize();
  current_mode_ = collect_mode_;
  current_round_ = round_;
  if (current_mode_ == FrontierMode::kDense) {
    // Dense collection bypassed the stamps; rewrite them now so contains()
    // and the next sparse round's dedup see this frontier.
#pragma omp parallel for schedule(static, 4096)
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      stamp_[nodes_[i]] = current_round_;
    }
  }
  bump_round();
  // Hysteresis: cross dense_threshold() to go dense, fall to
  // sparse_threshold() to come back; sizes inside the band keep the
  // current representation (no thrashing on oscillating waves).
  if (collect_mode_ == FrontierMode::kSparse) {
    if (nodes_.size() > dense_threshold()) collect_mode_ = FrontierMode::kDense;
  } else if (nodes_.size() <= sparse_threshold()) {
    collect_mode_ = FrontierMode::kSparse;
  }
}

void Frontier::clear() {
  ensure_thread_slots();
  nodes_.clear();
  for (auto& q : queues_) q.buf.clear();
  for (auto& b : blocks_) {
    b.clear();
    free_blocks_.push_back(std::move(b));
  }
  blocks_.clear();
  std::fill(bits_.begin(), bits_.end(), 0);  // abandoned dense collection
  collect_mode_ = FrontierMode::kSparse;
  current_mode_ = FrontierMode::kSparse;
  current_round_ = 0;
  bump_round();
  current_round_ = 0;  // bump_round's wraparound path may have set it
}

}  // namespace gdiam::core
