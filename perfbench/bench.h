// Shared types of the perfbench workloads (g500.cc, serve.cc) and the
// entry point that prints their results (main.cc).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <utility>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 1.0;  // length of the measured phase
  bool trace = false;    // per-layer (traced) run instead of end-to-end
};

/// What one workload run measured and checked. `values` holds every
/// figure the run computed, by metric name; main.cc prints the ones the
/// run's mode reports and writes all of them to the run record.
struct Outcome {
  bool correct = true;  // every output check ran and passed
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, double> values;
  /// Sizes and settings of the run (scale, thread counts, sample
  /// counts), recorded but not reported as metrics.
  std::map<std::string, std::string> facts;
};

[[nodiscard]] Outcome run_g500(const Options& opts);
[[nodiscard]] Outcome run_serve(const Options& opts, bool churn);

/// Derives independent stream seeds from the workload seed, so the
/// graph, roots, trace, arrivals and writes each vary with it.
[[nodiscard]] constexpr std::uint64_t derive_seed(std::uint64_t seed,
                                                  std::uint64_t stream) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// A thread joined when this object dies, on exception paths too.
class JoiningThread {
 public:
  template <typename Fn>
  explicit JoiningThread(Fn&& fn) : thread_(std::forward<Fn>(fn)) {}
  ~JoiningThread() { join(); }
  JoiningThread(const JoiningThread&) = delete;
  JoiningThread& operator=(const JoiningThread&) = delete;
  JoiningThread(JoiningThread&&) = delete;
  JoiningThread& operator=(JoiningThread&&) = delete;

  void join() {
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::thread thread_;
};

/// Calls `fn` when the scope ends, on exception paths too.
class OnExit {
 public:
  explicit OnExit(std::function<void()> fn) : fn_(std::move(fn)) {}
  ~OnExit() { fn_(); }
  OnExit(const OnExit&) = delete;
  OnExit& operator=(const OnExit&) = delete;
  OnExit(OnExit&&) = delete;
  OnExit& operator=(OnExit&&) = delete;

 private:
  std::function<void()> fn_;
};

}  // namespace perfbench
