#pragma once
// Thin OpenMP helpers shared by all parallel kernels.
//
// gdiam uses OpenMP for shared-memory parallelism (the stand-in for the
// paper's Spark executors; see DESIGN.md §2). Everything here is
// deterministic: reductions are order-independent (atomic min over packed
// integers, or per-thread buffers concatenated in thread-id order).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include <omp.h>

namespace gdiam::util {

/// Number of OpenMP threads a parallel region will use right now.
[[nodiscard]] int num_threads() noexcept;

/// Sets the OpenMP thread count for subsequent parallel regions
/// (used by the Figure 4 scalability bench). Returns the previous value.
int set_num_threads(int t) noexcept;

/// Atomically lowers `slot` to `value` if `value` is smaller.
/// Returns true when the store happened (i.e. this call won).
/// Pure min-reduction: the final value of `slot` is independent of the
/// interleaving of concurrent callers.
inline bool atomic_fetch_min(std::uint64_t& slot, std::uint64_t value) noexcept {
  std::atomic_ref<std::uint64_t> ref(slot);
  std::uint64_t cur = ref.load(std::memory_order_relaxed);
  while (value < cur) {
    if (ref.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

/// Per-thread append buffers that concatenate deterministically
/// (in thread-id order) into one vector. Used to collect frontier nodes and
/// relaxation requests from parallel loops without locks.
template <typename T>
class ThreadBuffers {
 public:
  ThreadBuffers() : buffers_(static_cast<std::size_t>(omp_get_max_threads())) {}

  /// Buffer of the calling thread (must be inside a parallel region or
  /// thread 0 otherwise).
  std::vector<T>& local() noexcept {
    return buffers_[static_cast<std::size_t>(omp_get_thread_num())];
  }

  /// Concatenate all thread buffers in thread-id order and clear them.
  std::vector<T> gather() {
    std::size_t total = 0;
    for (const auto& b : buffers_) total += b.size();
    std::vector<T> out;
    out.reserve(total);
    for (auto& b : buffers_) {
      out.insert(out.end(), b.begin(), b.end());
      b.clear();
    }
    return out;
  }

  /// Total elements currently buffered.
  [[nodiscard]] std::size_t size() const noexcept {
    std::size_t total = 0;
    for (const auto& b : buffers_) total += b.size();
    return total;
  }

  void clear() noexcept {
    for (auto& b : buffers_) b.clear();
  }

 private:
  std::vector<std::vector<T>> buffers_;
};

}  // namespace gdiam::util
