// The arithmetic every perfbench figure goes through: percentiles with
// the ten-beyond tail rule, Graph 500 harmonic-mean TEPS, open-loop
// latency measured from each request's due time, and the attribution of
// serve spans (queue wait, pass time) from stamped query events.
//
// It lives apart from the workloads so selftest.cc can check it on
// hand-built inputs without a graph or a server.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/events.h"

namespace bfsx::graph {
class CsrGraph;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_between(Clock::time_point from,
                                     Clock::time_point to);

/// Nearest-rank median (obs::compute_percentiles); 0 for no samples.
[[nodiscard]] double median(std::vector<double> samples);

/// Samples that must lie beyond a reported tail percentile.
inline constexpr std::size_t kTailBeyond = 10;

/// Nearest-rank percentile `q` of `samples`, lowered where needed so
/// that at least kTailBeyond samples lie beyond it: p99 needs 1000
/// samples, and 64 samples give their 54th smallest (p84). With
/// kTailBeyond samples or fewer no percentile qualifies and the maximum
/// is returned. 0 for no samples.
[[nodiscard]] double tail_percentile(std::vector<double> samples, double q);

/// Percentile `q` of each time window's samples, in window order:
/// samples[i] taken at times[i] fall into window floor(times[i] / window).
/// q = 0.5 gives each window's median; any other q its tail_percentile,
/// so the ten-beyond rule holds inside every window. Windows with fewer
/// than `min_samples` samples are skipped.
[[nodiscard]] std::vector<double> window_percentiles(
    const std::vector<double>& times, const std::vector<double>& samples,
    double window, std::size_t min_samples, double q);

/// Median over the windows of window_percentiles. A stall that slows
/// one window of a run moves this less than the percentile of all
/// samples.
[[nodiscard]] double median_of_windows(const std::vector<double>& times,
                                       const std::vector<double>& samples,
                                       double window, std::size_t min_samples,
                                       double q = 0.5);

/// "v0 v1 ..." with 4 significant digits, for run records.
[[nodiscard]] std::string join(const std::vector<double>& values);

/// Bytes of a symmetric CSR's offsets and targets, computed from its
/// vertex and edge counts.
[[nodiscard]] double csr_bytes(const bfsx::graph::CsrGraph& g);

/// Graph 500 harmonic-mean TEPS of searches that each traversed
/// `edges[i]` component edges in `seconds[i]`, via
/// graph500::compute_teps_stats.
[[nodiscard]] double teps_hmean(const std::vector<std::int64_t>& edges,
                                const std::vector<double>& seconds);

/// Due times (seconds from the phase start) of a Poisson arrival process
/// at `rate` per second, covering [0, duration). Same seed, same times.
[[nodiscard]] std::vector<double> poisson_schedule(double rate,
                                                   double duration,
                                                   std::uint64_t seed);

/// When an open-loop request was due and when it actually went out,
/// both in seconds from the phase start.
struct Send {
  double due = 0.0;
  double sent = 0.0;
};

/// Sends request i at start + due[i], in order, from the calling thread:
/// `submit(i, send)` is called once per request. A submit that stalls
/// delays every later send, and each Send records by how much.
template <typename Submit>
void run_open_loop(const std::vector<double>& due, Clock::time_point start,
                   Submit&& submit) {
  for (std::size_t i = 0; i < due.size(); ++i) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(due[i])));
    submit(i, Send{due[i], seconds_between(start, Clock::now())});
  }
}

/// Latency of an open-loop request measured from when it was due: the
/// time the generator sent late plus the server's own submit-to-answer
/// latency, which starts when the request went out.
[[nodiscard]] inline double latency_from_due(const Send& send,
                                             double served_seconds) {
  return (send.sent - send.due) + served_seconds;
}

/// One query-engine event as the benchmark's sink saw it: when, and on
/// which thread (a small index, in order of first appearance).
struct StampedEvent {
  bfsx::obs::QueryEvent event;
  double t = 0.0;
  int thread = 0;
};

/// One scheduler tick reconstructed from the events.
struct Pass {
  bool msbfs = false;          // coalesced MS-BFS pass, else single-source
  std::int32_t batch = 0;      // queries in the tick
  std::int32_t lanes = 0;      // distinct MS-BFS lanes
  std::uint64_t epoch = 0;     // epoch the tick pinned
  double dispatched = 0.0;
  double first_complete = -1.0;  // < 0 until a query of the tick answers

  [[nodiscard]] double seconds() const { return first_complete - dispatched; }
};

struct Spans {
  std::vector<Pass> passes;
  /// Per queued query: dispatch time minus enqueue time.
  std::vector<double> queue_wait;
};

/// Rebuilds ticks and queue waits. `enqueued` maps a query id to when it
/// was submitted. A completion belongs to the dispatch its thread
/// emitted last before it; completions on a thread that never
/// dispatched (cache hits, answered inside submit) have no queue wait.
[[nodiscard]] Spans attribute_spans(
    const std::vector<StampedEvent>& events,
    const std::unordered_map<std::int64_t, double>& enqueued);

}  // namespace perfbench
