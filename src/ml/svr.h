// ε-Support Vector Regression trained by Sequential Minimal
// Optimization — a from-scratch replacement for the LIBSVM dependency
// the paper uses ("we use Support Vector Machine regression ...
// A practical open-source SVM can be found in [10]", Section II-C).
//
// Formulation (the standard LIBSVM one): with training pairs (x_i, y_i),
// i < n, solve over alpha, alpha* in [0, C]^n
//
//   min 1/2 (a-a*)^T K (a-a*) + eps * sum(a+a*) - y^T (a-a*)
//   s.t. sum(a - a*) = 0
//
// mapped onto a single 2n-variable QP with labels s_t = +1 (t<n, the
// alpha block) and s_t = -1 (t>=n, the alpha* block). SMO repeatedly
// picks the maximal-violating pair under the equality constraint and
// solves the two-variable subproblem analytically.
#pragma once

#include <span>
#include <vector>

#include "ml/dataset.h"
#include "ml/kernel.h"

namespace bfsx::ml {

struct SvrParams {
  KernelParams kernel;
  /// Box constraint: larger C fits tighter, risks overfitting.
  double c = 10.0;
  /// Width of the no-penalty tube around the regression surface.
  double epsilon = 0.1;
  /// KKT violation tolerance for convergence.
  double tolerance = 1e-3;
  /// Hard cap on SMO iterations (pair updates).
  long max_iterations = 200'000;
};

/// Training diagnostics, useful in tests and logs.
struct SvrTrainInfo {
  long iterations = 0;
  bool converged = false;
  int support_vectors = 0;
};

class SvrModel {
 public:
  /// Fits on raw samples; standardisation of features is internal.
  /// Targets are also centred/scaled internally so `epsilon` acts on a
  /// unit-variance target — one less hyper-parameter to retune per
  /// problem. `info`, when non-null, receives training diagnostics.
  static SvrModel fit(const Dataset& data, const SvrParams& params = {},
                      SvrTrainInfo* info = nullptr);

  /// Predicts the target for one raw (unstandardised) sample.
  [[nodiscard]] double predict(std::span<const double> sample) const;

  /// predict() over every row of `data`, in row order.
  [[nodiscard]] std::vector<double> predict_all(const Dataset& data) const;

  /// "svr-rbf" or "svr-linear".
  [[nodiscard]] const char* kind() const noexcept {
    return kernel_.type == KernelType::kRbf ? "svr-rbf" : "svr-linear";
  }

  // ---- serialisation support (see model_io.h) ------------------------
  struct Parts {
    KernelParams kernel;
    std::vector<double> feature_means;
    std::vector<double> feature_stddevs;
    double y_mean = 0.0;
    double y_scale = 1.0;
    double bias = 0.0;
    std::vector<std::vector<double>> support_vectors;  // standardised
    std::vector<double> coefficients;                  // beta_i
  };
  [[nodiscard]] Parts to_parts() const;
  static SvrModel from_parts(Parts parts);

 private:
  SvrModel() = default;

  Standardizer standardizer_{Standardizer::from_moments({}, {})};
  KernelParams kernel_;
  double y_mean_ = 0.0;
  double y_scale_ = 1.0;
  double bias_ = 0.0;
  std::vector<std::vector<double>> sv_;  // standardised support vectors
  std::vector<double> coef_;             // beta_i = alpha_i - alpha*_i
};

}  // namespace bfsx::ml
