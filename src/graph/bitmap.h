// Fixed-size bitmap used for BFS frontiers and visited sets.
//
// The paper stores the current queue as a bitmap on the bottom-up side
// ("use bitmap for the CQ", Section IV); this is that container. Thread
// safety: set_atomic() / test_and_set_atomic() may race freely from
// OpenMP workers, and test_relaxed() may read a word they are setting;
// everything else is single-writer.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "graph/types.h"
#include "graph/uninit_vector.h"

namespace bfsx::graph {

class Bitmap {
 public:
  Bitmap() = default;

  /// Creates a bitmap of `size` bits, all cleared.
  explicit Bitmap(std::size_t size);

  /// Number of addressable bits.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Clears every bit (keeps the size).
  void reset() noexcept;

  /// Resizes to `size` bits and clears everything.
  void resize_and_reset(std::size_t size);

  [[nodiscard]] bool test(std::size_t pos) const noexcept {
    return (words_[pos >> 6] >> (pos & 63)) & 1ULL;
  }

  /// test() for a word other threads may be setting concurrently with
  /// set_atomic() / test_and_set_atomic(): an atomic read, where a
  /// plain one would be a data race. The top-down kernel calls it
  /// before its next-frontier claim so an already-claimed neighbour
  /// costs a load instead of a read-modify-write.
  [[nodiscard]] bool test_relaxed(std::size_t pos) const noexcept {
    // The storage is never const; the cast only lets a const Bitmap be
    // read through an atomic_ref, whose load does not write.
    const std::atomic_ref<std::uint64_t> word(
        const_cast<std::uint64_t&>(words_[pos >> 6]));
    // mem-order: relaxed — a pre-filter in front of test_and_set_atomic,
    // never a claim: bits are only set while a level runs, so a set bit
    // read here is final, and a stale clear bit merely sends the caller
    // on to the fetch_or, which re-validates. No other data is
    // published through the bit.
    return ((word.load(std::memory_order_relaxed) >> (pos & 63)) & 1ULL) != 0;
  }

  /// Non-atomic set; caller guarantees exclusive access to the word.
  void set(std::size_t pos) noexcept { words_[pos >> 6] |= 1ULL << (pos & 63); }

  /// Non-atomic clear.
  void clear(std::size_t pos) noexcept {
    words_[pos >> 6] &= ~(1ULL << (pos & 63));
  }

  /// Sets every bit that is set in `other` (same size), word by word,
  /// in parallel for large maps. The bottom-up kernel folds a level's
  /// discoveries into the visited set with it.
  Bitmap& operator|=(const Bitmap& other) noexcept;

  /// operator|= as an orphaned worksharing loop, for a fold inside a
  /// region that is already running (the top-down kernel's): call it
  /// from every thread of the region, or from outside any region to run
  /// serially. It ends without a barrier; the caller's next one (the
  /// region's end, at the latest) completes the fold.
  void or_words(const Bitmap& other) noexcept;

  /// Atomically sets bit `pos`; safe under concurrent writers.
  void set_atomic(std::size_t pos) noexcept;

  /// Atomically sets bit `pos` and reports whether it was previously
  /// clear (i.e. whether this caller won the race). The BFS top-down
  /// kernel uses this as its next-frontier claim, behind a
  /// test_relaxed() pre-check.
  bool test_and_set_atomic(std::size_t pos) noexcept;

  /// Population count over all bits.
  [[nodiscard]] std::size_t count() const noexcept;

  /// True iff no bit is set. O(words); the paranoid validators use it
  /// to assert the bottom-up scratch bitmap's all-clear invariant.
  [[nodiscard]] bool none() const noexcept;

  /// Position of the lowest set bit, or `size()` when none is set.
  /// Lets invariant failures name the offending bit.
  [[nodiscard]] std::size_t find_first() const noexcept;

  /// Calls `fn(vid_t)` for every set bit in ascending order.
  template <typename Fn>
  void for_each_set(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t word = words_[w];
      while (word != 0) {
        const int bit = __builtin_ctzll(word);
        fn(static_cast<vid_t>((w << 6) + static_cast<std::size_t>(bit)));
        word &= word - 1;
      }
    }
  }

  /// Swaps contents with another bitmap in O(1).
  void swap(Bitmap& other) noexcept {
    words_.swap(other.words_);
    std::swap(size_, other.size_);
  }

  /// Raw word access for cache-friendly scans (bottom-up kernel).
  [[nodiscard]] const std::uint64_t* words() const noexcept {
    return words_.data();
  }
  [[nodiscard]] std::size_t word_count() const noexcept {
    return words_.size();
  }

 private:
  /// resize_and_reset grows without writing, then zeroes through
  /// parallel_fill, so each word is written once.
  UninitVector<std::uint64_t> words_;
  std::size_t size_ = 0;
};

}  // namespace bfsx::graph
