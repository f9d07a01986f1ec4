// Unit tests for Dataset, Standardizer and train/test split.
#include "ml/dataset.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace bfsx::ml {
namespace {

Dataset tiny() {
  Dataset d;
  d.add({1.0, 10.0}, 100.0);
  d.add({2.0, 20.0}, 200.0);
  d.add({3.0, 30.0}, 300.0);
  return d;
}

TEST(Dataset, AddAndShape) {
  const Dataset d = tiny();
  EXPECT_EQ(d.size(), 3u);
  EXPECT_EQ(d.num_features(), 2u);
  EXPECT_NO_THROW(d.validate());
}

TEST(Dataset, AddRejectsRaggedRow) {
  Dataset d = tiny();
  EXPECT_THROW(d.add({1.0}, 5.0), std::invalid_argument);
}

TEST(Dataset, ValidateCatchesMismatch) {
  Dataset d = tiny();
  d.y.pop_back();
  EXPECT_THROW(d.validate(), std::invalid_argument);
}

TEST(Dataset, ValidateCatchesRaggedRows) {
  // Rows written directly, bypassing add()'s width check.
  Dataset d = tiny();
  d.x[1].push_back(0.0);
  EXPECT_THROW(d.validate(), std::invalid_argument);
}

TEST(Dataset, EmptyHasNoRowsOrFeatures) {
  const Dataset d;
  EXPECT_EQ(d.size(), 0u);
  EXPECT_EQ(d.num_features(), 0u);
  EXPECT_NO_THROW(d.validate());
}

TEST(Standardizer, ZeroMeanUnitVariance) {
  const Dataset d = tiny();
  const Standardizer s = Standardizer::fit(d);
  const Dataset z = s.transform_all(d);
  for (std::size_t j = 0; j < 2; ++j) {
    double mean = 0;
    double var = 0;
    for (const auto& row : z.x) mean += row[j];
    mean /= 3;
    for (const auto& row : z.x) var += (row[j] - mean) * (row[j] - mean);
    var /= 3;
    EXPECT_NEAR(mean, 0.0, 1e-12);
    EXPECT_NEAR(var, 1.0, 1e-12);
  }
}

TEST(Standardizer, ConstantColumnMapsToZero) {
  Dataset d;
  d.add({5.0, 1.0}, 0.0);
  d.add({5.0, 2.0}, 1.0);
  const Standardizer s = Standardizer::fit(d);
  const auto z = s.transform(std::vector<double>{5.0, 1.5});
  EXPECT_DOUBLE_EQ(z[0], 0.0);
  EXPECT_TRUE(std::isfinite(z[1]));
}

TEST(Standardizer, TransformRejectsWrongWidth) {
  const Standardizer s = Standardizer::fit(tiny());
  EXPECT_THROW(s.transform(std::vector<double>{1.0}), std::invalid_argument);
}

TEST(Standardizer, FitRejectsEmpty) {
  EXPECT_THROW(Standardizer::fit(Dataset{}), std::invalid_argument);
}

TEST(Standardizer, TransformAllKeepsTargetsAndMatchesRowwise) {
  const Dataset d = tiny();
  const Standardizer s = Standardizer::fit(d);
  const Dataset z = s.transform_all(d);
  EXPECT_EQ(z.y, d.y);
  ASSERT_EQ(z.size(), d.size());
  for (std::size_t i = 0; i < d.size(); ++i) {
    EXPECT_EQ(z.x[i], s.transform(d.x[i])) << "row " << i;
  }
}

TEST(Standardizer, FromMomentsReproducesTheFittedMap) {
  // Model loading rebuilds the map from its stored moments; it must
  // transform exactly as the fitted one did.
  const Standardizer fitted = Standardizer::fit(tiny());
  const Standardizer loaded =
      Standardizer::from_moments(fitted.means(), fitted.stddevs());
  const std::vector<double> q = {2.5, -4.0};
  EXPECT_EQ(loaded.transform(q), fitted.transform(q));
  EXPECT_EQ(loaded.means(), fitted.means());
  EXPECT_EQ(loaded.stddevs(), fitted.stddevs());
}

TEST(Standardizer, FromMomentsRejectsMismatchedLengths) {
  EXPECT_THROW(Standardizer::from_moments({0.0, 1.0}, {1.0}),
               std::invalid_argument);
}

TEST(Split, PartitionsWithoutLossOrDuplication) {
  Dataset d;
  for (int i = 0; i < 100; ++i) d.add({static_cast<double>(i)}, i);
  const SplitResult r = train_test_split(d, 0.8, 7);
  EXPECT_EQ(r.train.size(), 80u);
  EXPECT_EQ(r.test.size(), 20u);
  std::vector<double> all;
  for (const auto& row : r.train.x) all.push_back(row[0]);
  for (const auto& row : r.test.x) all.push_back(row[0]);
  std::sort(all.begin(), all.end());
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(all[static_cast<std::size_t>(i)], i);
}

TEST(Split, IsDeterministicPerSeedAndShuffles) {
  Dataset d;
  for (int i = 0; i < 50; ++i) d.add({static_cast<double>(i)}, i);
  const SplitResult a = train_test_split(d, 0.5, 3);
  const SplitResult b = train_test_split(d, 0.5, 3);
  EXPECT_EQ(a.train.x, b.train.x);
  // Shuffled: the train half is (almost surely) not just 0..24.
  bool identity = true;
  for (std::size_t i = 0; i < a.train.size(); ++i) {
    if (a.train.x[i][0] != static_cast<double>(i)) identity = false;
  }
  EXPECT_FALSE(identity);
}

TEST(Split, KeepsEachRowWithItsTarget) {
  Dataset d;
  for (int i = 0; i < 40; ++i) {
    d.add({static_cast<double>(i), -static_cast<double>(i)}, 10.0 * i);
  }
  const SplitResult r = train_test_split(d, 0.7, 19);
  for (const Dataset* part : {&r.train, &r.test}) {
    ASSERT_NO_THROW(part->validate());
    for (std::size_t k = 0; k < part->size(); ++k) {
      EXPECT_DOUBLE_EQ(part->x[k][1], -part->x[k][0]);
      EXPECT_DOUBLE_EQ(part->y[k], 10.0 * part->x[k][0]);
    }
  }
}

TEST(Split, FractionEndpointsPutEveryRowOnOneSide) {
  const SplitResult none = train_test_split(tiny(), 0.0, 4);
  EXPECT_EQ(none.train.size(), 0u);
  EXPECT_EQ(none.test.size(), 3u);
  const SplitResult all = train_test_split(tiny(), 1.0, 4);
  EXPECT_EQ(all.train.size(), 3u);
  EXPECT_EQ(all.test.size(), 0u);
}

TEST(Split, RejectsBadFraction) {
  EXPECT_THROW(train_test_split(tiny(), 1.5, 1), std::invalid_argument);
}

}  // namespace
}  // namespace bfsx::ml
