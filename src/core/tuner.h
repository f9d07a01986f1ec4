// Switching-point search: the candidate grid, every candidate priced
// against a trace, and the exhaustive pick — the training labels and
// the Average and Exhaustive bars of the paper's Fig. 8.
#pragma once

#include <vector>

#include "core/level_trace.h"

namespace bfsx::core {

/// The candidate (M, N) grid. The paper searches M in [1, 300]
/// (Section III-C extends Beamer's [1, 30]) and evaluates "1,000
/// possible cases" per traversal in Fig. 8.
struct SwitchCandidates {
  std::vector<double> m_values;
  std::vector<double> n_values;

  [[nodiscard]] std::size_t size() const noexcept {
    return m_values.size() * n_values.size();
  }
  [[nodiscard]] HybridPolicy at(std::size_t index) const {
    return {m_values[index / n_values.size()],
            n_values[index % n_values.size()]};
  }

  /// 50 log-spaced M in [1, 300] x 20 log-spaced N in [1, 300] =
  /// 1,000 candidates, the Fig. 8 setup.
  static SwitchCandidates paper_grid();

  /// A coarse 10 x 6 grid for quick tests.
  static SwitchCandidates coarse_grid();

  /// `count` log-spaced values in [lo, hi], deduplicated and sorted.
  static std::vector<double> log_spaced(double lo, double hi, int count);
};

/// How one policy choice performed, in modelled seconds.
struct TunedPolicy {
  HybridPolicy policy;
  double seconds = 0.0;
};

/// Every candidate priced against a trace: the raw material for the
/// Average / Exhaustive comparison. Entry i corresponds to
/// candidates.at(i).
struct CandidateSweep {
  std::vector<double> seconds;
  std::size_t best_index = 0;
  std::size_t worst_index = 0;
  double mean_seconds = 0.0;

  [[nodiscard]] double best_seconds() const { return seconds[best_index]; }
  [[nodiscard]] double worst_seconds() const { return seconds[worst_index]; }
};

/// Prices every candidate for the *single-architecture* combination.
[[nodiscard]] CandidateSweep sweep_single(const LevelTrace& trace,
                                          const sim::ArchSpec& arch,
                                          const SwitchCandidates& candidates);

/// Prices every candidate (M1, N1) for the *cross-architecture*
/// combination, holding the accelerator-internal policy fixed (the two
/// policies are tuned/predicted independently, per Algorithm 3 lines
/// 1-2).
[[nodiscard]] CandidateSweep sweep_cross(const LevelTrace& trace,
                                         const sim::ArchSpec& host,
                                         const sim::ArchSpec& accel,
                                         const sim::InterconnectSpec& link,
                                         const SwitchCandidates& candidates,
                                         const HybridPolicy& accel_policy);

/// Exhaustive search (the paper's hybrid-oracle): best candidate of a
/// sweep. This is the training-label generator and the Fig. 8
/// "Exhaustive" bar.
[[nodiscard]] TunedPolicy pick_best(const CandidateSweep& sweep,
                                    const SwitchCandidates& candidates);

}  // namespace bfsx::core
