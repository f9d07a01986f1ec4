// Training data containers and feature standardisation.
//
// Mirrors the paper's Section II-C setup: a dataset is n samples
// X_i (feature vectors) with one target value y_i each; a model is fit
// on it offline and queried online (paper Fig. 6).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace bfsx::ml {

struct Dataset {
  /// Row-major samples; every row has the same width.
  std::vector<std::vector<double>> x;
  std::vector<double> y;

  [[nodiscard]] std::size_t size() const noexcept { return x.size(); }
  [[nodiscard]] std::size_t num_features() const {
    return x.empty() ? 0 : x.front().size();
  }

  void add(std::vector<double> features, double target);

  /// Throws std::invalid_argument when rows are ragged or |x| != |y|.
  void validate() const;
};

/// Per-feature affine map to zero mean / unit variance. SVR with an RBF
/// kernel is scale-sensitive; the paper's features span six orders of
/// magnitude (vertex counts vs. Kronecker probabilities), so training
/// without this would let |V| dominate the kernel.
class Standardizer {
 public:
  /// Learns mean/stddev per column. Constant columns get stddev 1 so
  /// they standardise to exactly zero instead of dividing by zero.
  static Standardizer fit(const Dataset& data);

  [[nodiscard]] std::vector<double> transform(
      std::span<const double> sample) const;

  [[nodiscard]] Dataset transform_all(const Dataset& data) const;

  [[nodiscard]] const std::vector<double>& means() const noexcept {
    return mean_;
  }
  [[nodiscard]] const std::vector<double>& stddevs() const noexcept {
    return stddev_;
  }

  /// Reconstructs a standardizer from stored statistics (model loading).
  static Standardizer from_moments(std::vector<double> means,
                                   std::vector<double> stddevs);

 private:
  std::vector<double> mean_;
  std::vector<double> stddev_;
};

/// Deterministic split into train/test by shuffling with `seed` and
/// cutting at `train_fraction`.
struct SplitResult {
  Dataset train;
  Dataset test;
};
[[nodiscard]] SplitResult train_test_split(const Dataset& data,
                                           double train_fraction,
                                           std::uint64_t seed);

}  // namespace bfsx::ml
