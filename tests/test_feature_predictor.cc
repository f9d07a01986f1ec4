// Unit tests for the Fig. 7 feature builder and the SwitchPredictor.
#include "core/predictor.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "graph/builder.h"
#include "graph/rmat.h"

namespace bfsx::core {
namespace {

TEST(Features, FromRmatMatchesGeneratorParameters) {
  graph::RmatParams p;
  p.scale = 20;  // 1M vertices
  p.edgefactor = 16;
  const GraphFeatures f = features_from_rmat(p);
  EXPECT_NEAR(f.vertices_millions, 1.048576, 1e-9);
  EXPECT_NEAR(f.edges_millions, 2 * 16 * 1.048576, 1e-6);
  EXPECT_DOUBLE_EQ(f.a, 0.57);
  EXPECT_DOUBLE_EQ(f.d, 0.05);
}

TEST(Features, FromGraphReadsCsr) {
  graph::RmatParams p;
  p.scale = 10;
  const graph::CsrGraph g = graph::build_csr(graph::generate_rmat(p));
  const GraphFeatures f = features_from_graph(g, 0.5, 0.2, 0.2, 0.1);
  EXPECT_NEAR(f.vertices_millions,
              static_cast<double>(g.num_vertices()) / 1e6, 1e-12);
  EXPECT_NEAR(f.edges_millions, static_cast<double>(g.num_edges()) / 1e6,
              1e-12);
  EXPECT_DOUBLE_EQ(f.b, 0.2);
}

TEST(Features, SampleLayoutIsFigSeven) {
  const GraphFeatures gf{32.0, 256.0, 0.57, 0.19, 0.19, 0.05};
  const sim::ArchSpec cpu = sim::make_sandy_bridge_cpu();
  const sim::ArchSpec gpu = sim::make_kepler_gpu();
  const std::vector<double> s = build_sample(gf, cpu, gpu);
  ASSERT_EQ(s.size(), kNumFeatures);
  EXPECT_DOUBLE_EQ(s[0], 32.0);               // V
  EXPECT_DOUBLE_EQ(s[1], 256.0);              // E
  EXPECT_DOUBLE_EQ(s[2], 0.57);               // A
  EXPECT_DOUBLE_EQ(s[6], cpu.peak_sp_gflops); // P1 (top-down side)
  EXPECT_DOUBLE_EQ(s[7], cpu.l1_kb);          // L1
  EXPECT_DOUBLE_EQ(s[8], cpu.bw_measured_gbps);  // B1
  EXPECT_DOUBLE_EQ(s[9], gpu.peak_sp_gflops);    // P2 (bottom-up side)
  EXPECT_DOUBLE_EQ(s[11], gpu.bw_measured_gbps); // B2
}

TEST(Features, SameArchitectureDuplicatesBlock) {
  const GraphFeatures gf{1, 32, 0.57, 0.19, 0.19, 0.05};
  const sim::ArchSpec cpu = sim::make_sandy_bridge_cpu();
  const std::vector<double> s = build_sample(gf, cpu, cpu);
  EXPECT_DOUBLE_EQ(s[6], s[9]);
  EXPECT_DOUBLE_EQ(s[7], s[10]);
  EXPECT_DOUBLE_EQ(s[8], s[11]);
}

TEST(Features, NamesAlignWithLayout) {
  const auto names = feature_names();
  EXPECT_STREQ(names[0], "V_millions");
  EXPECT_STREQ(names[6], "P1_gflops");
  EXPECT_STREQ(names[11], "B2");
}

ml::Dataset synthetic_policy_data(bool for_n) {
  // Target depends smoothly on V and the TD-side bandwidth: enough for
  // the predictor plumbing tests (real labels are exercised in the
  // trainer integration test).
  ml::Dataset d;
  const sim::ArchSpec archs[] = {sim::make_sandy_bridge_cpu(),
                                 sim::make_kepler_gpu(),
                                 sim::make_knights_corner_mic()};
  for (double v : {0.5, 1.0, 2.0, 4.0, 8.0}) {
    for (double ef : {8.0, 16.0, 32.0}) {
      for (const auto& td : archs) {
        for (const auto& bu : archs) {
          const GraphFeatures gf{v, 2 * v * ef, 0.57, 0.19, 0.19, 0.05};
          const double target = (for_n ? 30.0 : 60.0) + 3.0 * v +
                                0.1 * td.bw_measured_gbps -
                                0.05 * bu.bw_measured_gbps + 0.5 * ef;
          d.add(build_sample(gf, td, bu), target);
        }
      }
    }
  }
  return d;
}

TEST(Predictor, LearnsSmoothPolicySurface) {
  const SwitchPredictor pred(
      ml::SvrModel::fit(synthetic_policy_data(false),
                        {.kernel = {}, .c = 50, .epsilon = 0.02}),
      ml::SvrModel::fit(synthetic_policy_data(true),
                        {.kernel = {}, .c = 50, .epsilon = 0.02}));
  const GraphFeatures gf{2.0, 2 * 2 * 16.0, 0.57, 0.19, 0.19, 0.05};
  const sim::ArchSpec cpu = sim::make_sandy_bridge_cpu();
  const sim::ArchSpec gpu = sim::make_kepler_gpu();
  const HybridPolicy p = pred.predict(gf, cpu, gpu);
  const double want_m = 60 + 3 * 2 + 0.1 * 34 - 0.05 * 188 + 0.5 * 16;
  const double want_n = 30 + 3 * 2 + 0.1 * 34 - 0.05 * 188 + 0.5 * 16;
  EXPECT_NEAR(p.m, want_m, 3.0);
  EXPECT_NEAR(p.n, want_n, 3.0);
}

TEST(Predictor, ClampsIntoValidRange) {
  // A model trained on constant extreme targets must still produce a
  // policy inside [1, 300].
  ml::Dataset low;
  ml::Dataset high;
  const sim::ArchSpec cpu = sim::make_sandy_bridge_cpu();
  for (double v : {1.0, 2.0, 3.0, 4.0}) {
    const GraphFeatures gf{v, 32 * v, 0.57, 0.19, 0.19, 0.05};
    low.add(build_sample(gf, cpu, cpu), -500.0);
    high.add(build_sample(gf, cpu, cpu), 5000.0);
  }
  const SwitchPredictor pred(ml::SvrModel::fit(low), ml::SvrModel::fit(high));
  const GraphFeatures gf{2.5, 80, 0.57, 0.19, 0.19, 0.05};
  const HybridPolicy p = pred.predict(gf, cpu);
  EXPECT_GE(p.m, kMinSwitchKnob);
  EXPECT_LE(p.m, kMaxSwitchKnob);
  EXPECT_GE(p.n, kMinSwitchKnob);
  EXPECT_LE(p.n, kMaxSwitchKnob);
  EXPECT_NO_THROW(p.validate());
}

TEST(Predictor, SaveLoadRoundTrip) {
  const SwitchPredictor pred(
      ml::SvrModel::fit(synthetic_policy_data(false)),
      ml::SvrModel::fit(synthetic_policy_data(true)));
  std::stringstream ss;
  pred.save(ss);
  const SwitchPredictor back = SwitchPredictor::load(ss);
  const GraphFeatures gf{1.5, 48, 0.57, 0.19, 0.19, 0.05};
  const sim::ArchSpec gpu = sim::make_kepler_gpu();
  const HybridPolicy a = pred.predict(gf, gpu);
  const HybridPolicy b = back.predict(gf, gpu);
  EXPECT_DOUBLE_EQ(a.m, b.m);
  EXPECT_DOUBLE_EQ(a.n, b.n);
}

TEST(Predictor, SingleArchitectureOverloadUsesTheSamePair) {
  const SwitchPredictor pred(ml::SvrModel::fit(synthetic_policy_data(false)),
                             ml::SvrModel::fit(synthetic_policy_data(true)));
  const GraphFeatures gf{4.0, 2 * 4 * 8.0, 0.57, 0.19, 0.19, 0.05};
  const sim::ArchSpec mic = sim::make_knights_corner_mic();
  const HybridPolicy single = pred.predict(gf, mic);
  const HybridPolicy pair = pred.predict(gf, mic, mic);
  EXPECT_EQ(single.m, pair.m);
  EXPECT_EQ(single.n, pair.n);
}

TEST(Predictor, FileRoundTrip) {
  const SwitchPredictor pred(ml::SvrModel::fit(synthetic_policy_data(false)),
                             ml::SvrModel::fit(synthetic_policy_data(true)));
  const std::string path = ::testing::TempDir() + "/bfsx_switch_predictor.txt";
  pred.save_file(path);
  const SwitchPredictor back = SwitchPredictor::load_file(path);
  const GraphFeatures gf{1.0, 2 * 16.0, 0.57, 0.19, 0.19, 0.05};
  const sim::ArchSpec cpu = sim::make_sandy_bridge_cpu();
  const sim::ArchSpec gpu = sim::make_kepler_gpu();
  const HybridPolicy a = pred.predict(gf, cpu, gpu);
  const HybridPolicy b = back.predict(gf, cpu, gpu);
  EXPECT_EQ(a.m, b.m);
  EXPECT_EQ(a.n, b.n);
}

TEST(Predictor, FileHelpersThrowOnBadPath) {
  const SwitchPredictor pred(ml::SvrModel::fit(synthetic_policy_data(false)),
                             ml::SvrModel::fit(synthetic_policy_data(true)));
  EXPECT_THROW(pred.save_file("/nonexistent-dir/m.txt"), std::runtime_error);
  EXPECT_THROW((void)SwitchPredictor::load_file("/nonexistent-dir/m.txt"),
               std::runtime_error);
}

TEST(Predictor, LoadRejectsAStreamWithOnlyTheMModel) {
  // A predictor file holds the M model and then the N model; a file cut
  // after the first must not load as a predictor.
  std::stringstream full;
  SwitchPredictor(ml::SvrModel::fit(synthetic_policy_data(false)),
                  ml::SvrModel::fit(synthetic_policy_data(true)))
      .save(full);
  const std::string text = full.str();
  std::stringstream m_only(text.substr(0, text.find("bfsx-model", 1)));
  EXPECT_THROW((void)SwitchPredictor::load(m_only), std::runtime_error);
}

}  // namespace
}  // namespace bfsx::core
