// Tests for the perf_event_open wrapper (obs/perf_counters.h). The
// load-bearing contract is graceful degradation: containers routinely
// deny the syscall, so construction must never throw and an unavailable
// group must yield invalid all-zero samples — in every environment this
// suite runs in, available() may be either true or false, and both
// paths must behave.
#include "obs/perf_counters.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace bfsx::obs {
namespace {

TEST(PerfCounters, ConstructionNeverThrows) {
  EXPECT_NO_THROW({
    PerfCounters counters;
    (void)counters.available();
  });
}

TEST(PerfCounters, StopWithoutStartIsSafe) {
  PerfCounters counters;
  const PerfSample s = counters.stop();
  if (!counters.available()) {
    EXPECT_FALSE(s.valid);
  }
}

TEST(PerfCounters, UnavailableDegradesToZeroSamples) {
  PerfCounters counters;
  counters.start();
  // Burn a few instructions so an *available* PMU has something to
  // count; an unavailable one must still return all zeros.
  volatile std::uint64_t sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + static_cast<std::uint64_t>(i);
  const PerfSample s = counters.stop();
  if (counters.available()) {
    EXPECT_TRUE(s.valid);
    EXPECT_GT(s.instructions, 0u);
    EXPECT_GE(s.ipc(), 0.0);
  } else {
    EXPECT_FALSE(s.valid);
    EXPECT_EQ(s.cycles, 0u);
    EXPECT_EQ(s.instructions, 0u);
    EXPECT_EQ(s.cache_references, 0u);
    EXPECT_EQ(s.cache_misses, 0u);
    EXPECT_EQ(s.branch_misses, 0u);
    EXPECT_EQ(s.ipc(), 0.0);
    EXPECT_EQ(s.cache_miss_rate(), 0.0);
  }
}

TEST(PerfCounters, RepeatedStartStopCyclesAreIndependent) {
  PerfCounters counters;
  for (int round = 0; round < 3; ++round) {
    counters.start();
    volatile std::uint64_t sink = 0;
    for (int i = 0; i < 1000; ++i) sink = sink + static_cast<std::uint64_t>(i);
    const PerfSample s = counters.stop();
    EXPECT_EQ(s.valid, counters.available()) << round;
  }
}

TEST(PerfSample, DerivedRatiosGateOnValidity) {
  PerfSample s;  // default: invalid, all zero
  EXPECT_EQ(s.ipc(), 0.0);
  EXPECT_EQ(s.cache_miss_rate(), 0.0);
  s.valid = true;
  s.cycles = 100;
  s.instructions = 250;
  s.cache_references = 1000;
  s.cache_misses = 50;
  EXPECT_DOUBLE_EQ(s.ipc(), 2.5);
  EXPECT_DOUBLE_EQ(s.cache_miss_rate(), 0.05);
  // Invalid samples must not divide, even with nonzero fields.
  s.valid = false;
  EXPECT_EQ(s.ipc(), 0.0);
  EXPECT_EQ(s.cache_miss_rate(), 0.0);
}

}  // namespace
}  // namespace bfsx::obs
