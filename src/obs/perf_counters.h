// Hardware performance-counter sampling via perf_event_open(2).
//
// Cache-behaviour claims need measuring, not inferring from wall
// clock: this wrapper lets bench_build_pipeline read cycles,
// instructions, cache references/misses, and branch misses around a
// region of interest, read as one counter group so all five share the
// same enabled window.
//
// Containers and locked-down kernels routinely refuse perf_event_open
// (perf_event_paranoid, seccomp, missing PMU). That must never break a
// benchmark run, so failure to open degrades to available() == false
// and all-zero samples with valid == false — callers print "n/a"
// columns and move on. test_perf_counters pins the no-throw contract
// both ways.
#pragma once

#include <cstdint>

namespace bfsx::obs {

/// One measured region. `valid` is false when the counters could not be
/// opened (sample is all zeros) — consumers must gate derived ratios on
/// it rather than dividing zeros.
struct PerfSample {
  bool valid = false;
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t cache_references = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t branch_misses = 0;

  /// Instructions per cycle; 0 when invalid or cycles == 0.
  [[nodiscard]] double ipc() const noexcept {
    return (valid && cycles > 0)
               ? static_cast<double>(instructions) / static_cast<double>(cycles)
               : 0.0;
  }

  /// cache_misses / cache_references; 0 when invalid or no references.
  [[nodiscard]] double cache_miss_rate() const noexcept {
    return (valid && cache_references > 0)
               ? static_cast<double>(cache_misses) /
                     static_cast<double>(cache_references)
               : 0.0;
  }
};

/// A group of hardware counters following the calling thread (and, via
/// inherit, the OpenMP workers it spawns). Construction attempts to
/// open the group; any failure — syscall denied, PMU absent, non-Linux
/// build — leaves the object inert: start()/stop() are harmless no-ops
/// returning invalid samples. Never throws.
class PerfCounters {
 public:
  PerfCounters() noexcept;
  ~PerfCounters();

  PerfCounters(const PerfCounters&) = delete;
  PerfCounters& operator=(const PerfCounters&) = delete;

  /// True when at least the cycles counter opened.
  [[nodiscard]] bool available() const noexcept { return leader_fd_ >= 0; }

  /// Resets and enables the group. No-op when unavailable.
  void start() noexcept;

  /// Disables the group and reads it. Counter values are scaled by
  /// time_enabled / time_running when the kernel multiplexed the PMU.
  /// Returns an invalid all-zero sample when unavailable.
  [[nodiscard]] PerfSample stop() noexcept;

 private:
  static constexpr int kMaxEvents = 5;
  int leader_fd_ = -1;
  int fds_[kMaxEvents] = {-1, -1, -1, -1, -1};
  std::uint64_t ids_[kMaxEvents] = {0, 0, 0, 0, 0};
  bool opened_[kMaxEvents] = {false, false, false, false, false};
};

}  // namespace bfsx::obs
