#include "ml/metrics.h"

#include <stdexcept>

namespace bfsx::ml {
namespace {

void check(std::span<const double> truth, std::span<const double> pred) {
  if (truth.size() != pred.size()) {
    throw std::invalid_argument("metrics: size mismatch");
  }
  if (truth.empty()) throw std::invalid_argument("metrics: empty input");
}

}  // namespace

double mean_squared_error(std::span<const double> truth,
                          std::span<const double> pred) {
  check(truth, pred);
  double sum = 0.0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    const double d = truth[i] - pred[i];
    sum += d * d;
  }
  return sum / static_cast<double>(truth.size());
}

double r_squared(std::span<const double> truth, std::span<const double> pred) {
  check(truth, pred);
  double mean = 0.0;
  for (double t : truth) mean += t;
  mean /= static_cast<double>(truth.size());
  double ss_res = 0.0;
  double ss_tot = 0.0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    ss_res += (truth[i] - pred[i]) * (truth[i] - pred[i]);
    ss_tot += (truth[i] - mean) * (truth[i] - mean);
  }
  if (ss_tot < 1e-300) return ss_res < 1e-300 ? 1.0 : 0.0;
  return 1.0 - ss_res / ss_tot;
}

}  // namespace bfsx::ml
