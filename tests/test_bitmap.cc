// Unit tests for the frontier bitmap.
#include "graph/bitmap.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace bfsx::graph {
namespace {

TEST(Bitmap, StartsCleared) {
  Bitmap bm(130);
  EXPECT_EQ(bm.size(), 130u);
  EXPECT_EQ(bm.count(), 0u);
  for (std::size_t i = 0; i < 130; ++i) EXPECT_FALSE(bm.test(i));
}

TEST(Bitmap, SetAndTest) {
  Bitmap bm(200);
  bm.set(0);
  bm.set(63);
  bm.set(64);
  bm.set(199);
  EXPECT_TRUE(bm.test(0));
  EXPECT_TRUE(bm.test(63));
  EXPECT_TRUE(bm.test(64));
  EXPECT_TRUE(bm.test(199));
  EXPECT_FALSE(bm.test(1));
  EXPECT_FALSE(bm.test(65));
  EXPECT_EQ(bm.count(), 4u);
}

TEST(Bitmap, ClearBit) {
  Bitmap bm(64);
  bm.set(10);
  bm.clear(10);
  EXPECT_FALSE(bm.test(10));
  EXPECT_EQ(bm.count(), 0u);
}

TEST(Bitmap, ResetClearsAll) {
  Bitmap bm(100);
  for (std::size_t i = 0; i < 100; i += 3) bm.set(i);
  bm.reset();
  EXPECT_EQ(bm.count(), 0u);
  EXPECT_EQ(bm.size(), 100u);
}

TEST(Bitmap, ResizeAndReset) {
  Bitmap bm(10);
  bm.set(5);
  bm.resize_and_reset(500);
  EXPECT_EQ(bm.size(), 500u);
  EXPECT_EQ(bm.count(), 0u);
}

TEST(Bitmap, TestAndSetReportsFirstClaim) {
  Bitmap bm(64);
  EXPECT_TRUE(bm.test_and_set_atomic(7));
  EXPECT_FALSE(bm.test_and_set_atomic(7));
  EXPECT_TRUE(bm.test(7));
}

TEST(Bitmap, ForEachSetVisitsAscending) {
  Bitmap bm(300);
  const std::vector<vid_t> want = {1, 63, 64, 65, 128, 299};
  for (vid_t v : want) bm.set(static_cast<std::size_t>(v));
  std::vector<vid_t> got;
  bm.for_each_set([&got](vid_t v) { got.push_back(v); });
  EXPECT_EQ(got, want);
}

TEST(Bitmap, SwapIsConstantTimeExchange) {
  Bitmap a(64);
  Bitmap b(128);
  a.set(1);
  b.set(100);
  a.swap(b);
  EXPECT_EQ(a.size(), 128u);
  EXPECT_TRUE(a.test(100));
  EXPECT_EQ(b.size(), 64u);
  EXPECT_TRUE(b.test(1));
}

TEST(Bitmap, ConcurrentTestAndSetClaimsEachBitOnce) {
  constexpr std::size_t kBits = 1 << 14;
  Bitmap bm(kBits);
  constexpr int kThreads = 4;
  std::vector<std::size_t> claims(kThreads, 0);
  {
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&bm, &claims, t] {
        std::size_t mine = 0;
        for (std::size_t i = 0; i < kBits; ++i) {
          if (bm.test_and_set_atomic(i)) ++mine;
        }
        claims[static_cast<std::size_t>(t)] = mine;
      });
    }
    for (auto& w : workers) w.join();
  }
  std::size_t total = 0;
  for (std::size_t c : claims) total += c;
  EXPECT_EQ(total, kBits);  // every bit claimed exactly once
  EXPECT_EQ(bm.count(), kBits);
}

TEST(Bitmap, TestRelaxedAgreesWithTest) {
  Bitmap bm(200);
  for (std::size_t i = 0; i < 200; i += 3) bm.set(i);
  const Bitmap& view = bm;  // readable through a const Bitmap
  for (std::size_t i = 0; i < 200; ++i) {
    EXPECT_EQ(view.test_relaxed(i), view.test(i)) << i;
  }
}

TEST(Bitmap, RelaxedPrecheckBeforeClaimStillElectsOneWinner) {
  // The top-down protocol: skip bits that already read set, claim the
  // rest with test_and_set_atomic. A stale relaxed read may only send a
  // thread on to the RMW, which re-validates — so every bit is still
  // claimed exactly once, while other threads set neighbouring bits of
  // the same words.
  constexpr std::size_t kBits = 1 << 14;
  constexpr int kThreads = 4;
  Bitmap bm(kBits);
  std::vector<std::size_t> claims(kThreads, 0);
  {
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&bm, &claims, t] {
        for (std::size_t k = 0; k < kBits; ++k) {
          // Threads sweep from different offsets so they contend.
          const std::size_t i =
              (k + static_cast<std::size_t>(t) * (kBits / kThreads)) % kBits;
          if (bm.test_relaxed(i)) continue;
          if (bm.test_and_set_atomic(i)) ++claims[static_cast<std::size_t>(t)];
        }
      });
    }
    for (auto& w : workers) w.join();
  }
  std::size_t total = 0;
  for (const std::size_t c : claims) total += c;
  EXPECT_EQ(total, kBits);  // every bit claimed exactly once
  EXPECT_EQ(bm.count(), kBits);
}

TEST(Bitmap, TestRelaxedSeesBitsOnceSetByOtherThreads) {
  // A set bit is final: once a reader sees it, it keeps seeing it.
  constexpr std::size_t kBits = 1 << 12;
  Bitmap bm(kBits);
  bool regressed = false;
  std::thread writer([&bm] {
    for (std::size_t i = 0; i < kBits; ++i) bm.set_atomic(i);
  });
  std::thread reader([&bm, &regressed] {
    std::vector<bool> seen(kBits, false);
    for (int pass = 0; pass < 8; ++pass) {
      for (std::size_t i = 0; i < kBits; ++i) {
        const bool now = bm.test_relaxed(i);
        if (seen[i] && !now) regressed = true;
        seen[i] = seen[i] || now;
      }
    }
  });
  writer.join();
  reader.join();
  EXPECT_FALSE(regressed);
  for (std::size_t i = 0; i < kBits; ++i) EXPECT_TRUE(bm.test_relaxed(i));
}

TEST(Bitmap, OrAssignFoldsWordWise) {
  // 130 bits (a partial last word) and 600000 bits (over the parallel
  // cutoff of 4096 words).
  for (const std::size_t n : {std::size_t{130}, std::size_t{600000}}) {
    Bitmap acc(n);
    Bitmap add(n);
    std::size_t want = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const bool a = i % 3 == 0;
      const bool b = i % 5 == 1 || i == n - 1;
      if (a) acc.set(i);
      if (b) add.set(i);
      if (a || b) ++want;
    }
    const std::size_t add_count = add.count();
    acc |= add;
    EXPECT_EQ(acc.count(), want) << n;
    EXPECT_EQ(add.count(), add_count) << n;  // the operand is untouched
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(acc.test(i), i % 3 == 0 || i % 5 == 1 || i == n - 1)
          << n << " bit " << i;
    }
  }
}

TEST(Bitmap, CountMatchesPopulationAcrossWordBoundaries) {
  Bitmap bm(1000);
  std::size_t want = 0;
  for (std::size_t i = 0; i < 1000; i += 7) {
    bm.set(i);
    ++want;
  }
  EXPECT_EQ(bm.count(), want);
}

}  // namespace
}  // namespace bfsx::graph
