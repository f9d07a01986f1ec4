// Unit tests for the Graph 500 statistics kernel.
#include "graph500/teps.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace bfsx::graph500 {
namespace {

TEST(Quantile, EndpointsAndMedian) {
  const std::vector<double> v = {5, 1, 3, 2, 4};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 3);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 5);
}

TEST(Quantile, InterpolatesBetweenRanks) {
  const std::vector<double> v = {0, 10};
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 2.5);
  EXPECT_DOUBLE_EQ(quantile(v, 0.75), 7.5);
}

TEST(Quantile, RejectsBadInputs) {
  EXPECT_THROW((void)quantile({}, 0.5), std::invalid_argument);
  EXPECT_THROW((void)quantile(std::vector<double>{1.0}, 1.5),
               std::invalid_argument);
}

TEST(TepsStats, SingleValue) {
  const TepsStats s = compute_teps_stats(std::vector<double>{2.0});
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 2.0);
  EXPECT_DOUBLE_EQ(s.harmonic_mean, 2.0);
  EXPECT_DOUBLE_EQ(s.harmonic_stddev, 0.0);
  EXPECT_EQ(s.count, 1u);
}

TEST(TepsStats, HarmonicMeanOfKnownPair) {
  // HM(1, 3) = 2 / (1 + 1/3) = 1.5
  const TepsStats s = compute_teps_stats(std::vector<double>{1.0, 3.0});
  EXPECT_DOUBLE_EQ(s.harmonic_mean, 1.5);
}

TEST(TepsStats, HarmonicMeanIsBelowArithmetic) {
  const std::vector<double> v = {1, 2, 3, 4, 100};
  const TepsStats s = compute_teps_stats(v);
  double arith = 0;
  for (double x : v) arith += x;
  arith /= 5;
  EXPECT_LT(s.harmonic_mean, arith);
  EXPECT_GE(s.harmonic_mean, s.min);
}

TEST(TepsStats, QuartilesOrdered) {
  const std::vector<double> v = {9, 1, 8, 2, 7, 3, 6, 4, 5};
  const TepsStats s = compute_teps_stats(v);
  EXPECT_LE(s.min, s.first_quartile);
  EXPECT_LE(s.first_quartile, s.median);
  EXPECT_LE(s.median, s.third_quartile);
  EXPECT_LE(s.third_quartile, s.max);
}

TEST(TepsStats, RejectsNonPositiveRates) {
  EXPECT_THROW((void)compute_teps_stats(std::vector<double>{1.0, 0.0}),
               std::invalid_argument);
  EXPECT_THROW((void)compute_teps_stats(std::vector<double>{-1.0}),
               std::invalid_argument);
  EXPECT_THROW((void)compute_teps_stats({}), std::invalid_argument);
}

TEST(TepsStats, FormatContainsGraph500Keys) {
  const std::string out =
      format_teps_stats(compute_teps_stats(std::vector<double>{1.0, 2.0}));
  EXPECT_NE(out.find("harmonic_mean_TEPS"), std::string::npos);
  EXPECT_NE(out.find("median_TEPS"), std::string::npos);
}

}  // namespace
}  // namespace bfsx::graph500
