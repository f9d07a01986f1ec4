// Unit and property tests for the from-scratch epsilon-SVR (SMO), plus
// its accuracy on the trainer's real switching-point labels.
#include "ml/svr.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "core/trainer.h"
#include "graph/prng.h"
#include "ml/metrics.h"

namespace bfsx::ml {
namespace {

Dataset sine_data(int n, std::uint64_t seed, double noise = 0.0) {
  graph::Xoshiro256ss rng(seed);
  Dataset d;
  for (int i = 0; i < n; ++i) {
    const double x0 = 3 * rng.next_double();
    const double x1 = 3 * rng.next_double();
    const double eps = noise * (rng.next_double() - 0.5);
    d.add({x0, x1}, std::sin(x0) + 0.5 * x1 + eps);
  }
  return d;
}

TEST(Svr, ConvergesOnSmoothTarget) {
  SvrTrainInfo info;
  const SvrModel m = SvrModel::fit(sine_data(140, 7), {}, &info);
  EXPECT_TRUE(info.converged);
  EXPECT_GT(info.support_vectors, 0);
  EXPECT_LE(info.support_vectors, 140);
}

TEST(Svr, RbfFitsNonlinearTargetWell) {
  const SvrModel m = SvrModel::fit(sine_data(140, 7),
                                   {.kernel = {}, .c = 10, .epsilon = 0.05});
  const Dataset test = sine_data(200, 99);
  EXPECT_GT(r_squared(test.y, m.predict_all(test)), 0.98);
}

TEST(Svr, LinearKernelRecoversLinearRelation) {
  graph::Xoshiro256ss rng(21);
  Dataset d;
  for (int i = 0; i < 80; ++i) {
    const double x0 = rng.next_double() * 4;
    d.add({x0}, 2.5 * x0 - 1.0);
  }
  SvrParams p;
  p.kernel.type = KernelType::kLinear;
  p.c = 100;
  p.epsilon = 0.01;
  const SvrModel m = SvrModel::fit(d, p);
  EXPECT_NEAR(m.predict(std::vector<double>{2.0}), 4.0, 0.1);
  EXPECT_STREQ(m.kind(), "svr-linear");
}

TEST(Svr, EpsilonTubeIgnoresSmallNoise) {
  // With a wide tube, noisy targets inside the tube produce few SVs.
  SvrTrainInfo tight_info;
  SvrTrainInfo wide_info;
  const Dataset noisy = sine_data(100, 17, /*noise=*/0.1);
  (void)SvrModel::fit(noisy, {.kernel = {}, .c = 10, .epsilon = 0.01},
                      &tight_info);
  (void)SvrModel::fit(noisy, {.kernel = {}, .c = 10, .epsilon = 0.5},
                      &wide_info);
  EXPECT_LT(wide_info.support_vectors, tight_info.support_vectors);
}

TEST(Svr, ConstantTargetPredictsConstant) {
  Dataset d;
  for (int i = 0; i < 20; ++i) d.add({static_cast<double>(i)}, 42.0);
  const SvrModel m = SvrModel::fit(d);
  EXPECT_NEAR(m.predict(std::vector<double>{7.5}), 42.0, 0.5);
}

TEST(Svr, RejectsBadHyperparameters) {
  Dataset d;
  d.add({1.0}, 1.0);
  EXPECT_THROW(SvrModel::fit(d, {.kernel = {}, .c = 0}), std::invalid_argument);
  EXPECT_THROW(SvrModel::fit(d, {.kernel = {}, .epsilon = -0.1}),
               std::invalid_argument);
  EXPECT_THROW(SvrModel::fit(Dataset{}), std::invalid_argument);
}

TEST(Svr, DefaultGammaIsOneOverFeatures) {
  const SvrModel m = SvrModel::fit(sine_data(30, 1));
  EXPECT_DOUBLE_EQ(m.to_parts().kernel.gamma, 0.5);  // 2 features
}

TEST(Svr, PartsRoundTripPreservesPredictions) {
  const SvrModel m = SvrModel::fit(sine_data(60, 5));
  const SvrModel copy = SvrModel::from_parts(m.to_parts());
  graph::Xoshiro256ss rng(8);
  for (int i = 0; i < 20; ++i) {
    const std::vector<double> x = {3 * rng.next_double(), 3 * rng.next_double()};
    EXPECT_DOUBLE_EQ(m.predict(x), copy.predict(x));
  }
}

// Property sweep: SVR must interpolate y = a*x0 + b within tolerance
// for a grid of (a, b) slopes — the regression machinery cannot depend
// on the sign or magnitude of the relationship.
class SvrSlopeSweep
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(SvrSlopeSweep, FitsAffineFamily) {
  const auto [a, b] = GetParam();
  graph::Xoshiro256ss rng(31);
  Dataset train;
  for (int i = 0; i < 60; ++i) {
    const double x = rng.next_double() * 2 - 1;
    train.add({x}, a * x + b);
  }
  const SvrModel m =
      SvrModel::fit(train, {.kernel = {}, .c = 50, .epsilon = 0.01});
  for (double q : {-0.8, -0.2, 0.3, 0.9}) {
    const double want = a * q + b;
    const double tolerance = 0.05 * (1.0 + std::abs(a));
    EXPECT_NEAR(m.predict(std::vector<double>{q}), want, tolerance)
        << "a=" << a << " b=" << b << " q=" << q;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Slopes, SvrSlopeSweep,
    ::testing::Combine(::testing::Values(-20.0, -1.0, 0.0, 1.0, 20.0),
                       ::testing::Values(-5.0, 0.0, 5.0)));

TEST(Svr, KindNamesTheRbfKernelByDefault) {
  EXPECT_STREQ(SvrModel::fit(sine_data(20, 3)).kind(), "svr-rbf");
}

TEST(Svr, ExplicitGammaIsKept) {
  SvrParams p;
  p.kernel.gamma = 2.5;
  EXPECT_DOUBLE_EQ(SvrModel::fit(sine_data(30, 1), p).to_parts().kernel.gamma,
                   2.5);
}

TEST(Svr, SingleSamplePredictsItsTarget) {
  Dataset d;
  d.add({3.0, -1.0}, 42.5);
  SvrTrainInfo info;
  const SvrModel m = SvrModel::fit(d, {}, &info);
  EXPECT_TRUE(info.converged);
  EXPECT_DOUBLE_EQ(m.predict(std::vector<double>{3.0, -1.0}), 42.5);
  EXPECT_DOUBLE_EQ(m.predict(std::vector<double>{-7.0, 100.0}), 42.5);
}

TEST(Svr, CollinearFeaturesStillFit) {
  // x1 = 2 * x0 exactly: both standardise to the same column, so the
  // kernel matrix carries every distance twice. The fit must not care.
  graph::Xoshiro256ss rng(9);
  Dataset d;
  for (int i = 0; i < 40; ++i) {
    const double x0 = rng.next_double();
    d.add({x0, 2 * x0}, 5 * x0 + 1);
  }
  SvrTrainInfo info;
  const SvrModel m = SvrModel::fit(d, {}, &info);
  EXPECT_TRUE(info.converged);
  EXPECT_NEAR(m.predict(std::vector<double>{0.5, 1.0}), 3.5, 0.05);
}

TEST(Svr, NoisyLinearTargetBeatsTheMeanBaseline) {
  graph::Xoshiro256ss rng(2);
  Dataset train;
  Dataset test;
  for (int i = 0; i < 200; ++i) {
    const double x0 = rng.next_double() * 4 - 2;
    const double noise = (rng.next_double() - 0.5) * 0.2;
    (i < 150 ? train : test).add({x0}, 2 * x0 + noise);
  }
  const SvrModel m = SvrModel::fit(train);
  EXPECT_GT(r_squared(test.y, m.predict_all(test)), 0.95);
}

TEST(Svr, FitsAQuadraticOnHeldOutPoints) {
  graph::Xoshiro256ss rng(5);
  Dataset train;
  Dataset test;
  for (int i = 0; i < 400; ++i) {
    const double x = rng.next_double() * 6;
    (i < 300 ? train : test).add({x}, x * x);
  }
  const SvrModel m = SvrModel::fit(train);
  EXPECT_GT(r_squared(test.y, m.predict_all(test)), 0.98);
}

TEST(Svr, TrainingResidualsStayInsideTheTube) {
  // SMO stops once the KKT gap is below `tolerance`. With no multiplier
  // at the box bound C, that pins every training residual to the
  // epsilon tube widened by the tolerance, in unit-variance target
  // units (the solver's scale).
  const Dataset d = sine_data(100, 3);
  const SvrParams p{.kernel = {}, .c = 100, .epsilon = 0.1};
  SvrTrainInfo info;
  const SvrModel m = SvrModel::fit(d, p, &info);
  ASSERT_TRUE(info.converged);
  const SvrModel::Parts parts = m.to_parts();
  for (double beta : parts.coefficients) ASSERT_LT(std::abs(beta), p.c);
  const double bound = (p.epsilon + p.tolerance) * parts.y_scale;
  for (std::size_t i = 0; i < d.size(); ++i) {
    EXPECT_LE(std::abs(m.predict(d.x[i]) - d.y[i]), bound) << "row " << i;
  }
}

TEST(Svr, SeparatesTheLevelsOfAStepFunction) {
  Dataset d;
  for (int i = 0; i < 40; ++i) {
    const double x = i / 40.0;
    d.add({x}, x < 0.5 ? 1.0 : 9.0);
  }
  const SvrModel m = SvrModel::fit(d);
  EXPECT_NEAR(m.predict(std::vector<double>{0.2}), 1.0, 0.5);
  EXPECT_NEAR(m.predict(std::vector<double>{0.8}), 9.0, 0.5);
}

TEST(Svr, NoiseFeatureBarelyMovesPredictions) {
  // Feature 0 is noise; feature 1 carries the signal y = 4 * x1.
  graph::Xoshiro256ss rng(3);
  Dataset d;
  for (int i = 0; i < 100; ++i) {
    const double noise = rng.next_double();
    const double signal = rng.next_double();
    d.add({noise, signal}, 4 * signal);
  }
  const SvrModel m = SvrModel::fit(d);
  const double along_noise = m.predict(std::vector<double>{0.9, 0.5}) -
                             m.predict(std::vector<double>{0.1, 0.5});
  const double along_signal = m.predict(std::vector<double>{0.5, 0.9}) -
                              m.predict(std::vector<double>{0.5, 0.1});
  EXPECT_LT(std::abs(along_noise), 0.5);
  EXPECT_NEAR(along_signal, 4 * 0.8, 0.5);
}

TEST(Svr, TighterTubeFitsACleanSignalBetter) {
  graph::Xoshiro256ss rng(11);
  Dataset train;
  Dataset test;
  for (int i = 0; i < 150; ++i) {
    const double x = rng.next_double() * 3;
    (i < 90 ? train : test).add({x}, std::sin(2 * x));
  }
  const SvrModel tight =
      SvrModel::fit(train, {.kernel = {}, .c = 10, .epsilon = 0.01});
  const SvrModel wide =
      SvrModel::fit(train, {.kernel = {}, .c = 10, .epsilon = 0.3});
  EXPECT_LT(mean_squared_error(test.y, tight.predict_all(test)),
            mean_squared_error(test.y, wide.predict_all(test)));
}

TEST(Svr, LargerCFitsTrainingDataTighter) {
  const Dataset d = sine_data(100, 13);
  const SvrModel loose =
      SvrModel::fit(d, {.kernel = {}, .c = 0.01, .epsilon = 0.05});
  const SvrModel firm =
      SvrModel::fit(d, {.kernel = {}, .c = 10, .epsilon = 0.05});
  EXPECT_GT(mean_squared_error(d.y, loose.predict_all(d)),
            10 * mean_squared_error(d.y, firm.predict_all(d)));
}

TEST(Svr, IterationCapStopsTheSolver) {
  SvrParams p;
  p.max_iterations = 3;
  SvrTrainInfo info;
  const SvrModel m = SvrModel::fit(sine_data(60, 2), p, &info);
  EXPECT_FALSE(info.converged);
  EXPECT_EQ(info.iterations, 3);
  EXPECT_TRUE(std::isfinite(m.predict(std::vector<double>{1.0, 1.0})));
}

TEST(Svr, FitIsBitIdenticalAcrossRuns) {
  // Trained model files are compared byte for byte, so a refit on the
  // same data must reproduce every stored number exactly.
  const Dataset d = sine_data(90, 41, /*noise=*/0.2);
  const SvrModel::Parts a = SvrModel::fit(d).to_parts();
  const SvrModel::Parts b = SvrModel::fit(d).to_parts();
  EXPECT_EQ(a.feature_means, b.feature_means);
  EXPECT_EQ(a.feature_stddevs, b.feature_stddevs);
  EXPECT_EQ(a.y_mean, b.y_mean);
  EXPECT_EQ(a.y_scale, b.y_scale);
  EXPECT_EQ(a.bias, b.bias);
  EXPECT_EQ(a.support_vectors, b.support_vectors);
  EXPECT_EQ(a.coefficients, b.coefficients);
}

TEST(Svr, PredictAllMatchesPredictRowByRow) {
  const SvrModel m = SvrModel::fit(sine_data(50, 6));
  const Dataset queries = sine_data(30, 60);
  const std::vector<double> all = m.predict_all(queries);
  ASSERT_EQ(all.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(all[i], m.predict(queries.x[i])) << "row " << i;
  }
}

TEST(Svr, FeatureScaleDoesNotChangePredictions) {
  // Features are standardised inside fit(), so rescaling one column by
  // 1000 (the paper's features span six orders of magnitude) must
  // leave every prediction where it was.
  const Dataset d = sine_data(80, 23);
  Dataset scaled = d;
  for (auto& row : scaled.x) row[1] *= 1000.0;
  const SvrModel a = SvrModel::fit(d);
  const SvrModel b = SvrModel::fit(scaled);
  graph::Xoshiro256ss rng(8);
  for (int i = 0; i < 20; ++i) {
    const double x0 = 3 * rng.next_double();
    const double x1 = 3 * rng.next_double();
    EXPECT_NEAR(a.predict(std::vector<double>{x0, x1}),
                b.predict(std::vector<double>{x0, x1 * 1000.0}), 1e-9);
  }
}

TEST(Svr, TargetShiftAndScaleCarryThroughPredictions) {
  // Targets are centred and scaled inside fit(), so epsilon acts on a
  // unit-variance target: an affine map of y maps the predictions the
  // same way.
  const Dataset d = sine_data(80, 23);
  Dataset mapped = d;
  for (double& y : mapped.y) y = 1000.0 * y + 500.0;
  const SvrModel a = SvrModel::fit(d);
  const SvrModel b = SvrModel::fit(mapped);
  graph::Xoshiro256ss rng(9);
  for (int i = 0; i < 20; ++i) {
    const std::vector<double> q = {3 * rng.next_double(), 3 * rng.next_double()};
    EXPECT_NEAR(1000.0 * a.predict(q) + 500.0, b.predict(q), 1e-6);
  }
}

TEST(Svr, PredictRejectsWrongWidth) {
  const SvrModel m = SvrModel::fit(sine_data(20, 4));
  EXPECT_THROW((void)m.predict(std::vector<double>{1.0}),
               std::invalid_argument);
  EXPECT_THROW((void)m.predict(std::vector<double>{1.0, 2.0, 3.0}),
               std::invalid_argument);
}

TEST(Svr, RejectsInconsistentDataset) {
  Dataset d = sine_data(10, 5);
  d.y.pop_back();
  EXPECT_THROW((void)SvrModel::fit(d), std::invalid_argument);
}

TEST(Svr, FromPartsRejectsMismatchedCoefficients) {
  SvrModel::Parts parts = SvrModel::fit(sine_data(30, 7)).to_parts();
  parts.coefficients.push_back(1.0);
  EXPECT_THROW((void)SvrModel::from_parts(parts), std::invalid_argument);
}

// ---- the Section II-C claim on real switching-point labels ----------

TEST(ModelBakeoff, SvrIsCompetitiveOnSwitchingPointData) {
  // Real labelled data from the trainer (small config), split 75/25.
  core::TrainerConfig cfg;
  for (int scale : {10, 11, 12}) {
    for (int ef : {8, 16, 32}) {
      for (std::uint64_t seed : {1ULL, 2ULL}) {
        graph::RmatParams p;
        p.scale = scale;
        p.edgefactor = ef;
        p.seed = seed;
        cfg.graphs.push_back(p);
      }
    }
  }
  const sim::ArchSpec cpu = sim::make_sandy_bridge_cpu();
  const sim::ArchSpec gpu = sim::make_kepler_gpu();
  cfg.arch_pairs = {{cpu, cpu}, {gpu, gpu}, {cpu, gpu}};
  cfg.candidates = core::SwitchCandidates::coarse_grid();
  const core::TrainingData data = core::generate_training_data(cfg);

  const SplitResult split = train_test_split(data.m_data, 0.75, 11);
  const SvrModel svr =
      SvrModel::fit(split.train, {.kernel = {}, .c = 10, .epsilon = 0.1});
  const double mse_svr =
      mean_squared_error(split.test.y, svr.predict_all(split.test));

  // The paper's claim is qualitative ("SVM can get good prediction
  // accuracy even with small number of training samples"). The best-M
  // labels are intrinsically noisy — the optimum is a wide region and
  // the labeller tie-breaks to its lowest edge (see Table III bench) —
  // so no model dominates robustly here. The SVR must stay within 2x
  // of the best alternative measured on this split: a CART tree at
  // 2071.65 (ridge regression 2201.05, 3-NN 4150.11).
  EXPECT_LT(mse_svr, 2.0 * 2071.65) << "svr=" << mse_svr;
  RecordProperty("mse_svr", std::to_string(mse_svr));
}

}  // namespace
}  // namespace bfsx::ml
