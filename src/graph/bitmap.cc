#include "graph/bitmap.h"

#include <algorithm>
#include <atomic>
#include <bit>

namespace bfsx::graph {
namespace {

/// Below this many words a word-wise pass costs less than waking a
/// team (the same cutoff the frontier decode uses).
constexpr std::int64_t kParallelWords = 4096;

}  // namespace

Bitmap::Bitmap(std::size_t size) : size_(size) {
  words_.resize((size + 63) / 64);  // default-init: writes nothing
  parallel_fill(words_.data(), words_.size(), std::uint64_t{0});
}

void Bitmap::reset() noexcept {
  parallel_fill(words_.data(), words_.size(), std::uint64_t{0});
}

void Bitmap::resize_and_reset(std::size_t size) {
  size_ = size;
  // resize leaves new words indeterminate (DefaultInitAllocator); the
  // parallel zero-fill below is their only write.
  words_.resize((size + 63) / 64);
  parallel_fill(words_.data(), words_.size(), std::uint64_t{0});
}

void Bitmap::set_atomic(std::size_t pos) noexcept {
  std::atomic_ref<std::uint64_t> word(words_[pos >> 6]);
  // mem-order: relaxed — the bit itself is the entire message; no other
  // data is published through it, and readers in the same parallel
  // region only act on it after the level-step barrier orders all of
  // these RMWs anyway.
  word.fetch_or(1ULL << (pos & 63), std::memory_order_relaxed);
}

bool Bitmap::test_and_set_atomic(std::size_t pos) noexcept {
  const std::uint64_t mask = 1ULL << (pos & 63);
  std::atomic_ref<std::uint64_t> word(words_[pos >> 6]);
  // mem-order: relaxed — RMW atomicity alone elects exactly one winner
  // per bit; the winner's dependent parent/level stores become visible
  // to other threads only past the OpenMP barrier that ends the level,
  // so no acquire/release pairing is needed here.
  return (word.fetch_or(mask, std::memory_order_relaxed) & mask) == 0;
}

Bitmap& Bitmap::operator|=(const Bitmap& other) noexcept {
#ifdef _OPENMP
#pragma omp parallel if (std::min(words_.size(), other.words_.size()) >= \
                         static_cast<std::size_t>(kParallelWords))
#endif
  or_words(other);
  return *this;
}

void Bitmap::or_words(const Bitmap& other) noexcept {
  std::uint64_t* dst = words_.data();
  const std::uint64_t* src = other.words_.data();
  const auto count = static_cast<std::int64_t>(
      std::min(words_.size(), other.words_.size()));
  // mem-order: plain loads and stores — both maps are quiescent here
  // (callers fold after the barrier that ended the level's writers),
  // and each word is written by one iteration only.
#ifdef _OPENMP
#pragma omp for schedule(static) nowait
#endif
  for (std::int64_t w = 0; w < count; ++w) {
    dst[w] |= src[w];
  }
}

bool Bitmap::none() const noexcept {
  return std::all_of(words_.begin(), words_.end(),
                     [](std::uint64_t w) { return w == 0; });
}

std::size_t Bitmap::find_first() const noexcept {
  for (std::size_t w = 0; w < words_.size(); ++w) {
    if (words_[w] != 0) {
      return (w << 6) +
             static_cast<std::size_t>(std::countr_zero(words_[w]));
    }
  }
  return size_;
}

std::size_t Bitmap::count() const noexcept {
  std::size_t total = 0;
  for (std::uint64_t w : words_) total += static_cast<std::size_t>(std::popcount(w));
  return total;
}

}  // namespace bfsx::graph
