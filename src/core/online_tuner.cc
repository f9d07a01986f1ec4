#include "core/online_tuner.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "graph/prng.h"

namespace bfsx::core {

OnlineTuner::OnlineTuner(OnlineTunerOptions opts) : opts_(opts) {
  if (opts_.probes_per_round < 2 || opts_.rounds < 1 || opts_.shrink <= 0 ||
      opts_.shrink >= 1) {
    throw std::invalid_argument("OnlineTuner: bad options");
  }
  reset();
}

void OnlineTuner::reset() {
  lo_m_ = lo_n_ = 1.0;
  hi_m_ = hi_n_ = 300.0;
  round_ = 0;
  probe_in_round_ = 0;
  probes_used_ = 0;
  rng_state_ = opts_.seed;
  have_best_ = false;
}

bool OnlineTuner::done() const noexcept { return round_ >= opts_.rounds; }

HybridPolicy OnlineTuner::next_probe() {
  if (done()) throw std::logic_error("OnlineTuner: schedule exhausted");
  // Low-discrepancy-ish draws: SplitMix keyed by (seed, round, probe)
  // in log space over the current box.
  graph::SplitMix64 sm(rng_state_ + std::uint64_t{1099511628211} *
                                        static_cast<std::uint64_t>(
                                            probe_in_round_ + 31 * round_));
  const double u =
      static_cast<double>(sm.next() >> 11) * 0x1.0p-53;
  const double v =
      static_cast<double>(sm.next() >> 11) * 0x1.0p-53;
  HybridPolicy p;
  p.m = lo_m_ * std::exp(u * std::log(hi_m_ / lo_m_));
  p.n = lo_n_ * std::exp(v * std::log(hi_n_ / lo_n_));
  return p;
}

void OnlineTuner::record(const HybridPolicy& policy, double seconds) {
  if (done()) throw std::logic_error("OnlineTuner: record after done");
  if (!(seconds >= 0) || !std::isfinite(seconds)) {
    throw std::invalid_argument("OnlineTuner: bad cost");
  }
  if (!have_best_ || seconds < best_.seconds) {
    best_ = {policy, seconds};
    have_best_ = true;
  }
  ++probes_used_;
  if (++probe_in_round_ >= opts_.probes_per_round) advance_round();
}

void OnlineTuner::advance_round() {
  probe_in_round_ = 0;
  ++round_;
  if (done() || !have_best_) return;
  // Shrink the box (log-space) around the incumbent, clamped to the
  // global [1, 300] range.
  const double span_m = std::log(hi_m_ / lo_m_) * opts_.shrink / 2.0;
  const double span_n = std::log(hi_n_ / lo_n_) * opts_.shrink / 2.0;
  lo_m_ = std::max(1.0, best_.policy.m * std::exp(-span_m));
  hi_m_ = std::min(300.0, best_.policy.m * std::exp(span_m));
  lo_n_ = std::max(1.0, best_.policy.n * std::exp(-span_n));
  hi_n_ = std::min(300.0, best_.policy.n * std::exp(span_n));
}

TunedPolicy OnlineTuner::best() const {
  if (!have_best_) throw std::logic_error("OnlineTuner: no probes recorded");
  return best_;
}

}  // namespace bfsx::core
