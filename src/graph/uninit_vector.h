// Storage that a resize does not write.
//
// A std::vector value-initialises every element it grows by, so
// `resize(n)` on a vector of ints is a serial O(n) zero-fill even when
// the very next pass overwrites every slot. The CSR builder's blocked
// scatter, the bottom-up candidate lists and the bitmap words all fill
// their storage themselves, in parallel, right after sizing it; with
// DefaultInitAllocator that resize writes nothing and the fill is the
// only pass over the memory. parallel_fill is that fill for a constant.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace bfsx::graph {

/// Allocator that default-initialises instead of value-initialising:
/// for trivial element types `vector(n)` / `resize(n)` allocate without
/// writing. Explicit constructor arguments still forward normally.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  using std::allocator<T>::allocator;

  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };

  template <typename U>
  void construct(U* p) noexcept(noexcept(::new (static_cast<void*>(p)) U)) {
    ::new (static_cast<void*>(p)) U;  // default-init: no store for trivial U
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// A std::vector whose resizes leave new trivial elements unwritten.
/// Element reads before the owner's fill/scatter are indeterminate —
/// only code that provably writes before reading (counting-sort
/// scatters, parallel_fill) should resize one.
template <typename T>
using UninitVector = std::vector<T, DefaultInitAllocator<T>>;

/// Below this many elements a parallel fill costs more than it saves.
inline constexpr std::size_t kParallelFillThreshold = std::size_t{1} << 16;

/// Fills [data, data+n) with `value`, each worker thread writing one
/// contiguous static chunk. Falls back to a serial fill for small n,
/// without OpenMP, or inside an enclosing parallel region (a nested
/// team has 1 thread and thread-id chunking would skip work; see
/// graph/builder.cc).
template <typename T>
void parallel_fill(T* data, std::size_t n, T value) {
#ifdef _OPENMP
  if (n >= kParallelFillThreshold && !omp_in_parallel()) {
    const int workers = std::max(1, omp_get_max_threads());
#pragma omp parallel num_threads(workers)
    {
      const int t = omp_get_thread_num();
      // det: chunk [lo, hi) is a pure index partition; every element is
      // written exactly once with the same value for any worker count.
      const std::size_t lo =
          n * static_cast<std::size_t>(t) / static_cast<std::size_t>(workers);
      const std::size_t hi = n * (static_cast<std::size_t>(t) + 1) /
                             static_cast<std::size_t>(workers);
      std::fill(data + lo, data + hi, value);
    }
    return;
  }
#endif
  std::fill(data, data + n, value);
}

}  // namespace bfsx::graph
