// Unit tests for the regression metrics the SVR tests measure with.
#include "ml/metrics.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace bfsx::ml {
namespace {

const std::vector<double> kTruth = {1.0, 2.0, 3.0, 6.0};  // mean 3

TEST(Metrics, MseMatchesHandComputedValue) {
  EXPECT_DOUBLE_EQ(mean_squared_error(kTruth, kTruth), 0.0);
  const std::vector<double> pred = {2.0, 2.0, 5.0, 6.0};
  EXPECT_DOUBLE_EQ(mean_squared_error(kTruth, pred), (1.0 + 0.0 + 4.0) / 4.0);
}

TEST(Metrics, RSquaredIsOneForPerfectPrediction) {
  EXPECT_DOUBLE_EQ(r_squared(kTruth, kTruth), 1.0);
}

TEST(Metrics, RSquaredIsZeroForTheMeanPredictor) {
  const std::vector<double> mean(kTruth.size(), 3.0);
  EXPECT_DOUBLE_EQ(r_squared(kTruth, mean), 0.0);
}

TEST(Metrics, RSquaredIsNegativeWhenWorseThanTheMean) {
  // ss_tot = 4 + 1 + 0 + 9 = 14; reversed predictions give ss_res = 52.
  const std::vector<double> reversed = {6.0, 3.0, 2.0, 1.0};
  EXPECT_DOUBLE_EQ(r_squared(kTruth, reversed), 1.0 - 52.0 / 14.0);
}

TEST(Metrics, RSquaredOnConstantTruth) {
  // No variance to explain: a perfect fit scores 1, anything else 0.
  const std::vector<double> flat = {5.0, 5.0, 5.0};
  EXPECT_DOUBLE_EQ(r_squared(flat, flat), 1.0);
  const std::vector<double> off = {5.0, 5.0, 6.0};
  EXPECT_DOUBLE_EQ(r_squared(flat, off), 0.0);
}

TEST(Metrics, RejectSizeMismatchAndEmptyInput) {
  const std::vector<double> short_pred = {1.0, 2.0};
  const std::vector<double> empty;
  EXPECT_THROW((void)mean_squared_error(kTruth, short_pred),
               std::invalid_argument);
  EXPECT_THROW((void)r_squared(kTruth, short_pred), std::invalid_argument);
  EXPECT_THROW((void)mean_squared_error(empty, empty), std::invalid_argument);
  EXPECT_THROW((void)r_squared(empty, empty), std::invalid_argument);
}

}  // namespace
}  // namespace bfsx::ml
