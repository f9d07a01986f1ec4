#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "graph/csr.h"
#include "graph/prng.h"
#include "graph500/teps.h"
#include "obs/percentiles.h"

namespace perfbench {

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double median(std::vector<double> samples) {
  return bfsx::obs::compute_percentiles(std::move(samples)).p50;
}

double tail_percentile(std::vector<double> samples, double q) {
  const std::size_t n = samples.size();
  if (n == 0) return 0.0;
  std::sort(samples.begin(), samples.end());
  if (n <= kTailBeyond) return samples.back();
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n)));  // 1-based nearest rank
  const std::size_t capped = std::min(std::max<std::size_t>(rank, 1),
                                      n - kTailBeyond);
  return samples[capped - 1];
}

std::vector<double> window_percentiles(const std::vector<double>& times,
                                       const std::vector<double>& samples,
                                       double window, std::size_t min_samples,
                                       double q) {
  std::map<std::int64_t, std::vector<double>> by_window;
  for (std::size_t i = 0; i < times.size() && i < samples.size(); ++i) {
    by_window[static_cast<std::int64_t>(std::floor(times[i] / window))]
        .push_back(samples[i]);
  }
  std::vector<double> out;
  for (auto& [w, v] : by_window) {
    if (v.size() < min_samples) continue;
    out.push_back(q == 0.5 ? median(std::move(v))
                           : tail_percentile(std::move(v), q));
  }
  return out;
}

double median_of_windows(const std::vector<double>& times,
                         const std::vector<double>& samples, double window,
                         std::size_t min_samples, double q) {
  return median(window_percentiles(times, samples, window, min_samples, q));
}

std::string join(const std::vector<double>& values) {
  std::string out;
  for (const double v : values) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.4g", out.empty() ? "" : " ", v);
    out += buf;
  }
  return out;
}

double csr_bytes(const bfsx::graph::CsrGraph& g) {
  return static_cast<double>(
      (static_cast<std::size_t>(g.num_vertices()) + 1) * sizeof(std::int64_t) +
      static_cast<std::size_t>(g.num_edges()) * sizeof(bfsx::graph::vid_t));
}

double teps_hmean(const std::vector<std::int64_t>& edges,
                  const std::vector<double>& seconds) {
  std::vector<double> teps;
  teps.reserve(edges.size());
  for (std::size_t i = 0; i < edges.size() && i < seconds.size(); ++i) {
    teps.push_back(static_cast<double>(edges[i]) / seconds[i]);
  }
  return bfsx::graph500::compute_teps_stats(teps).harmonic_mean;
}

std::vector<double> poisson_schedule(double rate, double duration,
                                     std::uint64_t seed) {
  bfsx::graph::Xoshiro256ss rng(seed);
  std::vector<double> due;
  double t = 0.0;
  for (;;) {
    // Exponential gap by inversion; 1 - u lies in (0, 1].
    t += -std::log(1.0 - rng.next_double()) / rate;
    if (t >= duration) return due;
    due.push_back(t);
  }
}

Spans attribute_spans(
    const std::vector<StampedEvent>& events,
    const std::unordered_map<std::int64_t, double>& enqueued) {
  using Stage = bfsx::obs::QueryEvent::Stage;
  Spans out;
  std::unordered_map<int, std::size_t> open_pass;  // thread -> pass index
  for (const StampedEvent& s : events) {
    const bfsx::obs::QueryEvent& e = s.event;
    if (e.stage == Stage::kDispatch) {
      Pass p;
      p.msbfs = e.lanes > 0;
      p.batch = e.batch_size;
      p.lanes = e.lanes;
      p.epoch = e.epoch;
      p.dispatched = s.t;
      open_pass[s.thread] = out.passes.size();
      out.passes.push_back(p);
      continue;
    }
    if (e.stage != Stage::kComplete || e.query_id < 0) continue;
    const auto pass = open_pass.find(s.thread);
    if (pass == open_pass.end()) continue;
    Pass& p = out.passes[pass->second];
    if (p.first_complete < 0.0) p.first_complete = s.t;
    if (const auto enq = enqueued.find(e.query_id); enq != enqueued.end()) {
      out.queue_wait.push_back(p.dispatched - enq->second);
    }
  }
  return out;
}

}  // namespace perfbench
