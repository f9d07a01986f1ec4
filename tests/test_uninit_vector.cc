// Unit tests for default-init storage and the parallel constant fill.
#include "graph/uninit_vector.h"

#include <gtest/gtest.h>

#include <omp.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

namespace bfsx::graph {
namespace {

/// Restores the OpenMP team width a test changes.
class ThreadCountGuard {
 public:
  ThreadCountGuard() : saved_(omp_get_max_threads()) {}
  ~ThreadCountGuard() { omp_set_num_threads(saved_); }
  ThreadCountGuard(const ThreadCountGuard&) = delete;
  ThreadCountGuard& operator=(const ThreadCountGuard&) = delete;

 private:
  int saved_;
};

template <typename Range, typename T>
std::size_t count_of(const Range& r, std::size_t lo, std::size_t hi,
                     T value) {
  return static_cast<std::size_t>(
      std::count(r.begin() + static_cast<std::ptrdiff_t>(lo),
                 r.begin() + static_cast<std::ptrdiff_t>(hi), value));
}

TEST(ParallelFill, WritesEveryElementAtAnyTeamWidth) {
  ThreadCountGuard guard;
  // Sizes on both sides of the serial cut-over; the large one divides
  // evenly by none of the team widths, so chunk bounds are uneven.
  const std::size_t sizes[] = {0,
                               1,
                               1000,
                               kParallelFillThreshold - 1,
                               kParallelFillThreshold,
                               3 * kParallelFillThreshold + 7};
  for (const int threads : {1, 2, 3, 4}) {
    omp_set_num_threads(threads);
    for (const std::size_t n : sizes) {
      SCOPED_TRACE(std::to_string(threads) + " threads, n = " +
                   std::to_string(n));
      // One sentinel on each side: the fill writes [1, n + 1) only.
      std::vector<std::int32_t> buf(n + 2, -1);
      parallel_fill(buf.data() + 1, n, std::int32_t{42});
      EXPECT_EQ(buf.front(), -1);
      EXPECT_EQ(buf.back(), -1);
      EXPECT_EQ(count_of(buf, 1, n + 1, std::int32_t{42}), n);
    }
  }
}

TEST(ParallelFill, InsideAParallelRegionFillsEverything) {
  // A nested team has one thread, so chunking by thread id there would
  // write only the first chunk; the call must fall back to a serial fill.
  ThreadCountGuard guard;
  omp_set_num_threads(4);
  const std::size_t n = 2 * kParallelFillThreshold + 3;
  std::vector<std::vector<std::uint64_t>> per_thread(
      4, std::vector<std::uint64_t>(n, 0));
  int team = 0;
#pragma omp parallel num_threads(4)
  {
#pragma omp single
    team = omp_get_num_threads();
    const auto t = static_cast<std::size_t>(omp_get_thread_num());
    parallel_fill(per_thread[t].data(), n, std::uint64_t{t + 1});
  }
  ASSERT_GE(team, 1);
  for (std::size_t t = 0; t < static_cast<std::size_t>(team); ++t) {
    EXPECT_EQ(count_of(per_thread[t], 0, n, std::uint64_t{t + 1}), n)
        << "thread " << t;
  }
}

TEST(UninitVector, ExplicitValuesStillInitialise) {
  UninitVector<std::int64_t> v(1000, 7);
  EXPECT_EQ(count_of(v, 0, v.size(), std::int64_t{7}), 1000u);
  v.resize(2500, -3);
  EXPECT_EQ(count_of(v, 0, 1000, std::int64_t{7}), 1000u);
  EXPECT_EQ(count_of(v, 1000, v.size(), std::int64_t{-3}), 1500u);
  v.push_back(11);
  EXPECT_EQ(v.back(), 11);
  v.assign(40, 5);
  EXPECT_EQ(v.size(), 40u);
  EXPECT_EQ(count_of(v, 0, v.size(), std::int64_t{5}), 40u);
}

TEST(UninitVector, GrowingKeepsTheWrittenPrefix) {
  UninitVector<std::uint32_t> v;
  v.resize(100);
  for (std::uint32_t i = 0; i < 100; ++i) v[i] = 3 * i;
  // The grown tail is unwritten until the owner fills it, as the
  // builder and the bottom-up candidate lists do.
  v.resize(kParallelFillThreshold + 100);
  parallel_fill(v.data() + 100, v.size() - 100, std::uint32_t{9});
  for (std::uint32_t i = 0; i < 100; ++i) EXPECT_EQ(v[i], 3 * i);
  EXPECT_EQ(count_of(v, 100, v.size(), std::uint32_t{9}),
            kParallelFillThreshold);
  v.resize(50);
  ASSERT_EQ(v.size(), 50u);
  for (std::uint32_t i = 0; i < 50; ++i) EXPECT_EQ(v[i], 3 * i);
}

TEST(UninitVector, NonTrivialElementsAreStillConstructed) {
  static_assert(
      std::is_same_v<std::allocator_traits<DefaultInitAllocator<int>>::
                         rebind_alloc<double>,
                     DefaultInitAllocator<double>>,
      "rebinding must keep default-init construction");
  // Default-init of a class type runs its default constructor, so only
  // trivial element types are left unwritten.
  UninitVector<std::string> s(3);
  s.resize(6);
  for (const std::string& e : s) EXPECT_TRUE(e.empty());
  s.emplace_back(std::size_t{4}, 'x');
  EXPECT_EQ(s.back(), "xxxx");
}

}  // namespace
}  // namespace bfsx::graph
