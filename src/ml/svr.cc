#include "ml/svr.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <tuple>
#include <utility>

namespace bfsx::ml {
namespace {

constexpr double kTau = 1e-12;  // floor for the 2nd-order denominator

/// The 2n-variable SMO solver state. Index t < n is the alpha block
/// (label +1), t >= n the alpha* block (label -1); both reference
/// training sample t % n.
class SmoSolver {
 public:
  SmoSolver(const Dataset& z, const KernelParams& kernel,
            const SvrParams& params)
      : n_(z.size()), params_(params) {
    // Dense base kernel matrix K_ij; n is small (the paper trains on
    // 140 samples), so O(n^2) storage is the right trade.
    k_.assign(n_ * n_, 0.0);
    for (std::size_t i = 0; i < n_; ++i) {
      for (std::size_t j = i; j < n_; ++j) {
        const double v = kernel_eval(kernel, z.x[i], z.x[j]);
        k_[i * n_ + j] = v;
        k_[j * n_ + i] = v;
      }
    }
    alpha_.assign(2 * n_, 0.0);
    // Linear term p_t and gradient G = Q alpha + p; alpha = 0 initially.
    grad_.resize(2 * n_);
    for (std::size_t t = 0; t < 2 * n_; ++t) {
      const double y = z.y[t % n_];
      grad_[t] = (t < n_) ? params.epsilon - y : params.epsilon + y;
    }
  }

  [[nodiscard]] double label(std::size_t t) const noexcept {
    return t < n_ ? 1.0 : -1.0;
  }
  [[nodiscard]] double q(std::size_t t, std::size_t s) const noexcept {
    return label(t) * label(s) * k_[(t % n_) * n_ + (s % n_)];
  }

  /// Runs SMO to convergence or the iteration cap.
  SvrTrainInfo solve() {
    SvrTrainInfo info;
    for (long it = 0; it < params_.max_iterations; ++it) {
      const auto [i, j, gap] = select_working_set();
      if (gap < params_.tolerance) {
        info.converged = true;
        info.iterations = it;
        return info;
      }
      update_pair(i, j);
    }
    info.iterations = params_.max_iterations;
    return info;
  }

  /// beta_i = alpha_i - alpha*_i per training sample.
  [[nodiscard]] std::vector<double> betas() const {
    std::vector<double> beta(n_);
    for (std::size_t i = 0; i < n_; ++i) beta[i] = alpha_[i] - alpha_[n_ + i];
    return beta;
  }

  /// Bias from the KKT conditions. At a free variable t the optimality
  /// condition pins b = -s_t G_t exactly (for the alpha block this reads
  /// f(x_i) = y_i - eps, for the alpha* block f(x_i) = y_i + eps);
  /// average over all free variables. With none free, b is only
  /// bracketed by the up/low sets — take the midpoint, as LIBSVM does.
  [[nodiscard]] double bias() const {
    double sum = 0.0;
    int free_count = 0;
    double gmax = -std::numeric_limits<double>::infinity();
    double gmin = std::numeric_limits<double>::infinity();
    for (std::size_t t = 0; t < 2 * n_; ++t) {
      const double yg = -label(t) * grad_[t];
      if (alpha_[t] > 0.0 && alpha_[t] < params_.c) {
        sum += yg;
        ++free_count;
      }
      if (in_up_set(t)) gmax = std::max(gmax, yg);
      if (in_low_set(t)) gmin = std::min(gmin, yg);
    }
    if (free_count > 0) return sum / free_count;
    return (gmax + gmin) / 2.0;
  }

 private:
  [[nodiscard]] bool in_up_set(std::size_t t) const noexcept {
    // Can increase s_t * alpha_t: (+1 block below C) or (-1 block above 0).
    return (t < n_) ? alpha_[t] < params_.c : alpha_[t] > 0.0;
  }
  [[nodiscard]] bool in_low_set(std::size_t t) const noexcept {
    return (t < n_) ? alpha_[t] > 0.0 : alpha_[t] < params_.c;
  }

  /// Maximal violating pair (WSS1): i maximises -s G over the up set,
  /// j minimises it over the low set; gap is the KKT violation.
  [[nodiscard]] std::tuple<std::size_t, std::size_t, double>
  select_working_set() const {
    double gmax = -std::numeric_limits<double>::infinity();
    double gmin = std::numeric_limits<double>::infinity();
    std::size_t i = 0;
    std::size_t j = 0;
    for (std::size_t t = 0; t < 2 * n_; ++t) {
      const double v = -label(t) * grad_[t];
      if (in_up_set(t) && v > gmax) {
        gmax = v;
        i = t;
      }
      if (in_low_set(t) && v < gmin) {
        gmin = v;
        j = t;
      }
    }
    return {i, j, gmax - gmin};
  }

  /// Analytic two-variable subproblem (LIBSVM's update, specialised to
  /// the two label-sign cases), then an incremental gradient refresh.
  void update_pair(std::size_t i, std::size_t j) {
    const double c = params_.c;
    const double old_ai = alpha_[i];
    const double old_aj = alpha_[j];

    if (label(i) != label(j)) {
      double quad = q(i, i) + q(j, j) + 2.0 * k_[(i % n_) * n_ + (j % n_)];
      if (quad <= 0) quad = kTau;
      const double delta = (-grad_[i] - grad_[j]) / quad;
      const double diff = alpha_[i] - alpha_[j];
      alpha_[i] += delta;
      alpha_[j] += delta;
      if (diff > 0) {
        if (alpha_[j] < 0) {
          alpha_[j] = 0;
          alpha_[i] = diff;
        }
        if (alpha_[i] > c) {
          alpha_[i] = c;
          alpha_[j] = c - diff;
        }
      } else {
        if (alpha_[i] < 0) {
          alpha_[i] = 0;
          alpha_[j] = -diff;
        }
        if (alpha_[j] > c) {
          alpha_[j] = c;
          alpha_[i] = c + diff;
        }
      }
    } else {
      double quad = q(i, i) + q(j, j) - 2.0 * k_[(i % n_) * n_ + (j % n_)];
      if (quad <= 0) quad = kTau;
      const double delta = (grad_[i] - grad_[j]) / quad;
      const double sum = alpha_[i] + alpha_[j];
      alpha_[i] -= delta;
      alpha_[j] += delta;
      if (sum > c) {
        if (alpha_[i] > c) {
          alpha_[i] = c;
          alpha_[j] = sum - c;
        }
        if (alpha_[j] > c) {
          alpha_[j] = c;
          alpha_[i] = sum - c;
        }
      } else {
        if (alpha_[j] < 0) {
          alpha_[j] = 0;
          alpha_[i] = sum;
        }
        if (alpha_[i] < 0) {
          alpha_[i] = 0;
          alpha_[j] = sum;
        }
      }
    }

    const double dai = alpha_[i] - old_ai;
    const double daj = alpha_[j] - old_aj;
    if (dai == 0.0 && daj == 0.0) return;
    for (std::size_t t = 0; t < 2 * n_; ++t) {
      grad_[t] += q(t, i) * dai + q(t, j) * daj;
    }
  }

  std::size_t n_;
  SvrParams params_;
  std::vector<double> k_;      // base kernel matrix, n x n
  std::vector<double> alpha_;  // 2n variables
  std::vector<double> grad_;   // 2n gradient
};

}  // namespace

SvrModel SvrModel::fit(const Dataset& data, const SvrParams& params,
                       SvrTrainInfo* info) {
  data.validate();
  if (data.size() == 0) throw std::invalid_argument("SvrModel::fit: empty");
  if (params.c <= 0) throw std::invalid_argument("SvrModel::fit: C <= 0");
  if (params.epsilon < 0) {
    throw std::invalid_argument("SvrModel::fit: epsilon < 0");
  }

  SvrModel model;
  model.standardizer_ = Standardizer::fit(data);
  model.kernel_ = params.kernel;
  if (model.kernel_.gamma <= 0) {
    model.kernel_.gamma = 1.0 / static_cast<double>(data.num_features());
  }

  Dataset z = model.standardizer_.transform_all(data);

  // Centre/scale targets so epsilon is in units of target stddev.
  double mean = 0.0;
  for (double yv : z.y) mean += yv;
  mean /= static_cast<double>(z.size());
  double var = 0.0;
  for (double yv : z.y) var += (yv - mean) * (yv - mean);
  var /= static_cast<double>(z.size());
  const double scale = var > 1e-24 ? std::sqrt(var) : 1.0;
  for (double& yv : z.y) yv = (yv - mean) / scale;
  model.y_mean_ = mean;
  model.y_scale_ = scale;

  SmoSolver solver(z, model.kernel_, params);
  SvrTrainInfo local_info = solver.solve();
  model.bias_ = solver.bias();

  const std::vector<double> beta = solver.betas();
  for (std::size_t i = 0; i < z.size(); ++i) {
    if (std::abs(beta[i]) > 1e-12) {
      model.sv_.push_back(z.x[i]);
      model.coef_.push_back(beta[i]);
    }
  }
  local_info.support_vectors = static_cast<int>(model.sv_.size());
  if (info != nullptr) *info = local_info;
  return model;
}

double SvrModel::predict(std::span<const double> sample) const {
  const std::vector<double> z = standardizer_.transform(sample);
  double f = bias_;
  for (std::size_t i = 0; i < sv_.size(); ++i) {
    f += coef_[i] * kernel_eval(kernel_, sv_[i], z);
  }
  return f * y_scale_ + y_mean_;
}

std::vector<double> SvrModel::predict_all(const Dataset& data) const {
  std::vector<double> out;
  out.reserve(data.size());
  for (const auto& row : data.x) out.push_back(predict(row));
  return out;
}

SvrModel::Parts SvrModel::to_parts() const {
  Parts p;
  p.kernel = kernel_;
  p.feature_means = standardizer_.means();
  p.feature_stddevs = standardizer_.stddevs();
  p.y_mean = y_mean_;
  p.y_scale = y_scale_;
  p.bias = bias_;
  p.support_vectors = sv_;
  p.coefficients = coef_;
  return p;
}

SvrModel SvrModel::from_parts(Parts parts) {
  if (parts.support_vectors.size() != parts.coefficients.size()) {
    throw std::invalid_argument("SvrModel::from_parts: SV/coef mismatch");
  }
  SvrModel m;
  m.standardizer_ = Standardizer::from_moments(std::move(parts.feature_means),
                                               std::move(parts.feature_stddevs));
  m.kernel_ = parts.kernel;
  m.y_mean_ = parts.y_mean;
  m.y_scale_ = parts.y_scale;
  m.bias_ = parts.bias;
  m.sv_ = std::move(parts.support_vectors);
  m.coef_ = std::move(parts.coefficients);
  return m;
}

}  // namespace bfsx::ml
