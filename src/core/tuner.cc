#include "core/tuner.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace bfsx::core {

std::vector<double> SwitchCandidates::log_spaced(double lo, double hi,
                                                 int count) {
  if (lo <= 0 || hi < lo || count < 1) {
    throw std::invalid_argument("log_spaced: bad range");
  }
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(count));
  const double step =
      count > 1 ? std::log(hi / lo) / static_cast<double>(count - 1) : 0.0;
  for (int i = 0; i < count; ++i) {
    out.push_back(lo * std::exp(step * i));
  }
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

SwitchCandidates SwitchCandidates::paper_grid() {
  return {log_spaced(1.0, 300.0, 50), log_spaced(1.0, 300.0, 20)};
}

SwitchCandidates SwitchCandidates::coarse_grid() {
  return {log_spaced(1.0, 300.0, 10), log_spaced(1.0, 300.0, 6)};
}

namespace {

template <typename CostFn>
CandidateSweep sweep_impl(const SwitchCandidates& candidates, CostFn&& cost) {
  if (candidates.size() == 0) {
    throw std::invalid_argument("sweep: empty candidate grid");
  }
  CandidateSweep sweep;
  sweep.seconds.reserve(candidates.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const double s = cost(candidates.at(i));
    sweep.seconds.push_back(s);
    sum += s;
    if (s < sweep.seconds[sweep.best_index]) sweep.best_index = i;
    if (s > sweep.seconds[sweep.worst_index]) sweep.worst_index = i;
  }
  sweep.mean_seconds = sum / static_cast<double>(candidates.size());
  return sweep;
}

}  // namespace

CandidateSweep sweep_single(const LevelTrace& trace, const sim::ArchSpec& arch,
                            const SwitchCandidates& candidates) {
  return sweep_impl(candidates, [&](const HybridPolicy& p) {
    return replay_single(trace, arch, p);
  });
}

CandidateSweep sweep_cross(const LevelTrace& trace, const sim::ArchSpec& host,
                           const sim::ArchSpec& accel,
                           const sim::InterconnectSpec& link,
                           const SwitchCandidates& candidates,
                           const HybridPolicy& accel_policy) {
  return sweep_impl(candidates, [&](const HybridPolicy& p) {
    return replay_cross(trace, host, accel, link, p, accel_policy);
  });
}

TunedPolicy pick_best(const CandidateSweep& sweep,
                      const SwitchCandidates& candidates) {
  return {candidates.at(sweep.best_index), sweep.best_seconds()};
}

}  // namespace bfsx::core
