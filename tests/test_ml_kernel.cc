// Unit tests for the SVR kernel functions.
#include "ml/kernel.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "graph/prng.h"

namespace bfsx::ml {
namespace {

const KernelParams kLinear{.type = KernelType::kLinear};

KernelParams rbf(double gamma) {
  return {.type = KernelType::kRbf, .gamma = gamma};
}

TEST(Kernel, LinearIsTheDotProduct) {
  const std::vector<double> u = {1.0, 2.0, 3.0};
  const std::vector<double> v = {4.0, -5.0, 6.0};
  EXPECT_DOUBLE_EQ(kernel_eval(kLinear, u, v), 4.0 - 10.0 + 18.0);
  EXPECT_DOUBLE_EQ(kernel_eval(kLinear, u, u), 14.0);
}

TEST(Kernel, RbfIsOneAtZeroDistance) {
  const std::vector<double> u = {0.3, -7.0, 1e6};
  for (double gamma : {1e-3, 0.5, 40.0}) {
    EXPECT_DOUBLE_EQ(kernel_eval(rbf(gamma), u, u), 1.0) << gamma;
  }
}

TEST(Kernel, RbfMatchesClosedForm) {
  // ||u - v||^2 = 3^2 + 4^2 = 25.
  const std::vector<double> u = {0.0, 0.0};
  const std::vector<double> v = {3.0, 4.0};
  EXPECT_DOUBLE_EQ(kernel_eval(rbf(0.1), u, v), std::exp(-2.5));
  EXPECT_DOUBLE_EQ(kernel_eval(rbf(2.0), u, v), std::exp(-50.0));
}

TEST(Kernel, RbfIsSymmetricAndDecaysWithDistance) {
  graph::Xoshiro256ss rng(12);
  const std::vector<double> origin = {0.0, 0.0};
  for (int i = 0; i < 20; ++i) {
    const std::vector<double> u = {rng.next_double(), rng.next_double()};
    const std::vector<double> v = {rng.next_double(), rng.next_double()};
    const double k = kernel_eval(rbf(0.7), u, v);
    EXPECT_DOUBLE_EQ(k, kernel_eval(rbf(0.7), v, u));
    EXPECT_GT(k, 0.0);
    EXPECT_LE(k, 1.0);
  }
  double previous = 1.0;
  for (double r : {0.5, 1.0, 2.0, 4.0}) {
    const std::vector<double> p = {r, 0.0};
    const double k = kernel_eval(rbf(0.7), origin, p);
    EXPECT_LT(k, previous) << "r=" << r;
    // A wider gamma decays faster at the same distance.
    EXPECT_LT(kernel_eval(rbf(1.4), origin, p), k) << "r=" << r;
    previous = k;
  }
}

TEST(Kernel, RejectsDimensionMismatch) {
  const std::vector<double> u = {1.0, 2.0};
  const std::vector<double> v = {1.0};
  EXPECT_THROW((void)kernel_eval(kLinear, u, v), std::invalid_argument);
  EXPECT_THROW((void)kernel_eval(rbf(1.0), u, v), std::invalid_argument);
}

}  // namespace
}  // namespace bfsx::ml
