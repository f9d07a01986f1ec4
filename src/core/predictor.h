// Runtime switching-point predictor (the paper's on-line stage, Fig. 6
// left): two SVR models — one for M, one for N ("We will only
// illustrate how to get the best M. The best N can be obtained the same
// way", Section III) — queried with the Fig. 7 feature vector.
#pragma once

#include <iosfwd>
#include <string>

#include "core/feature.h"
#include "core/hybrid_policy.h"
#include "ml/svr.h"

namespace bfsx::core {

class SwitchPredictor {
 public:
  SwitchPredictor(ml::SvrModel m_model, ml::SvrModel n_model)
      : m_model_(std::move(m_model)), n_model_(std::move(n_model)) {}

  /// Predicts the best (M, N) for traversing a graph with features `gf`
  /// using top-down on `td_arch` and bottom-up on `bu_arch`. The raw
  /// SVR outputs are clamped into the paper's search range [1, 300] so
  /// an extrapolating model can never produce an invalid policy.
  [[nodiscard]] HybridPolicy predict(const GraphFeatures& gf,
                                     const sim::ArchSpec& td_arch,
                                     const sim::ArchSpec& bu_arch) const;

  /// Single-architecture convenience: td and bu on the same platform.
  [[nodiscard]] HybridPolicy predict(const GraphFeatures& gf,
                                     const sim::ArchSpec& arch) const {
    return predict(gf, arch, arch);
  }

  void save(std::ostream& os) const;
  static SwitchPredictor load(std::istream& is);

  void save_file(const std::string& path) const;
  static SwitchPredictor load_file(const std::string& path);

 private:
  ml::SvrModel m_model_;
  ml::SvrModel n_model_;
};

/// Clamp range shared by predictor and tuner grids.
inline constexpr double kMinSwitchKnob = 1.0;
inline constexpr double kMaxSwitchKnob = 300.0;

}  // namespace bfsx::core
