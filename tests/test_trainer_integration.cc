// Integration tests: the full offline-training -> online-prediction
// pipeline of paper Fig. 6, on container-sized graphs.
#include "core/trainer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "bfs/validate.h"
#include "core/api.h"
#include "graph/builder.h"
#include "graph/graph_stats.h"
#include "obs/sink.h"

namespace bfsx::core {
namespace {

/// Small config (scales 10-11, coarse grid) so the whole pipeline runs
/// in seconds inside the test suite.
TrainerConfig tiny_config() {
  TrainerConfig cfg;
  for (int scale : {10, 11}) {
    for (int ef : {8, 16}) {
      graph::RmatParams p;
      p.scale = scale;
      p.edgefactor = ef;
      p.seed = 101;
      cfg.graphs.push_back(p);
    }
  }
  const sim::ArchSpec cpu = sim::make_sandy_bridge_cpu();
  const sim::ArchSpec gpu = sim::make_kepler_gpu();
  cfg.arch_pairs = {{cpu, cpu}, {gpu, gpu}, {cpu, gpu}};
  cfg.candidates = SwitchCandidates::coarse_grid();
  return cfg;
}

TEST(Trainer, GeneratesOneSamplePerConfiguration) {
  const TrainerConfig cfg = tiny_config();
  const TrainingData data = generate_training_data(cfg);
  const std::size_t want = cfg.graphs.size() * cfg.arch_pairs.size();
  EXPECT_EQ(data.m_data.size(), want);
  EXPECT_EQ(data.n_data.size(), want);
  EXPECT_EQ(data.m_data.num_features(), kNumFeatures);
  for (double m : data.m_data.y) {
    EXPECT_GE(m, kMinSwitchKnob);
    EXPECT_LE(m, kMaxSwitchKnob);
  }
}

TEST(Trainer, LabelsAreReproducible) {
  const TrainerConfig cfg = tiny_config();
  const TrainingData a = generate_training_data(cfg);
  const TrainingData b = generate_training_data(cfg);
  EXPECT_EQ(a.m_data.y, b.m_data.y);
  EXPECT_EQ(a.n_data.y, b.n_data.y);
}

#ifdef _OPENMP
// One thread labels the graphs serially; four label them across
// workers while each graph's build and kernels sit inside the outer
// team. This is the regression guard for the nested
// `num_threads(workers)` sites (DESIGN §9): a site that chunks by a
// team size it did not get drops work and changes the labels.
TEST(Trainer, ParallelLabelingMatchesSerialBitExactly) {
  const TrainerConfig cfg = tiny_config();
  const int saved = omp_get_max_threads();
  omp_set_num_threads(1);
  const TrainingData serial = generate_training_data(cfg);
  omp_set_num_threads(4);
  const TrainingData parallel = generate_training_data(cfg);
  omp_set_num_threads(saved);
  EXPECT_EQ(serial.m_data.x, parallel.m_data.x);
  EXPECT_EQ(serial.m_data.y, parallel.m_data.y);
  EXPECT_EQ(serial.n_data.y, parallel.n_data.y);
}
#endif  // _OPENMP

TEST(Trainer, LabelsLieOnTheCandidateGrid) {
  const TrainerConfig cfg = tiny_config();
  const TrainingData data = generate_training_data(cfg);
  const std::vector<double>& ms = cfg.candidates.m_values;
  const std::vector<double>& ns = cfg.candidates.n_values;
  for (double m : data.m_data.y) {
    EXPECT_NE(std::find(ms.begin(), ms.end(), m), ms.end()) << m;
  }
  for (double n : data.n_data.y) {
    EXPECT_NE(std::find(ns.begin(), ns.end(), n), ns.end()) << n;
  }
}

TEST(Trainer, RowsFollowGraphThenPairOrder) {
  // Row g * |pairs| + k is graph g labelled on arch pair k, with the
  // same Fig. 7 sample in both datasets.
  const TrainerConfig cfg = tiny_config();
  const TrainingData data = generate_training_data(cfg);
  const std::size_t pairs = cfg.arch_pairs.size();
  ASSERT_EQ(data.m_data.size(), cfg.graphs.size() * pairs);
  for (std::size_t row = 0; row < data.m_data.size(); ++row) {
    const ArchPair& pair = cfg.arch_pairs[row % pairs];
    const std::vector<double> want = build_sample(
        features_from_rmat(cfg.graphs[row / pairs]), pair.td, pair.bu);
    EXPECT_EQ(data.m_data.x[row], want) << "row " << row;
    EXPECT_EQ(data.n_data.x[row], want) << "row " << row;
  }
}

TEST(Trainer, SingleArchitectureLabelIsTheExhaustiveBest) {
  graph::RmatParams p;
  p.scale = 11;
  const graph::CsrGraph g = graph::build_csr(graph::generate_rmat(p));
  const LevelTrace trace =
      build_level_trace(g, graph::sample_roots(g, 1, 5)[0]);
  const sim::ArchSpec gpu = sim::make_kepler_gpu();
  const SwitchCandidates cands = SwitchCandidates::coarse_grid();
  const TunedPolicy label =
      label_configuration(trace, ArchPair{gpu, gpu}, sim::InterconnectSpec{},
                          cands);
  const CandidateSweep sweep = sweep_single(trace, gpu, cands);
  EXPECT_EQ(label.policy, cands.at(sweep.best_index));
  EXPECT_EQ(label.seconds, sweep.best_seconds());
}

TEST(Trainer, DefaultConfigIsPaperSized) {
  const TrainerConfig cfg = default_trainer_config();
  const std::size_t samples = cfg.graphs.size() * cfg.arch_pairs.size();
  EXPECT_GE(samples, 120u);  // "140 training samples" regime
  EXPECT_LE(samples, 200u);
}

TEST(Pipeline, TrainedPredictorIsNearExhaustiveOnHeldOutGraph) {
  const TrainerConfig cfg = tiny_config();
  const SwitchPredictor pred = train_predictor(generate_training_data(cfg));

  // Held-out graph: same family, unseen seed/size combination.
  graph::RmatParams p;
  p.scale = 11;
  p.edgefactor = 12;
  p.seed = 999;
  const graph::CsrGraph g = graph::build_csr(graph::generate_rmat(p));
  const graph::vid_t root = graph::sample_roots(g, 1, 5)[0];
  const LevelTrace trace = build_level_trace(g, root);

  const sim::ArchSpec cpu = sim::make_sandy_bridge_cpu();
  const CandidateSweep sweep =
      sweep_single(trace, cpu, SwitchCandidates::paper_grid());
  const HybridPolicy predicted =
      pred.predict(features_from_rmat(p), cpu, cpu);
  const double predicted_seconds = replay_single(trace, cpu, predicted);

  // The paper reports regression reaching ~95% of the exhaustive best
  // with 140 samples; with this deliberately tiny training set we
  // require 70% — the trainer bench measures the real figure. (At this
  // scale the CPU's whole sweep range is narrow, so this is the only
  // meaningful bound; range membership below guards against NaNs.)
  EXPECT_GE(sweep.best_seconds() / predicted_seconds, 0.70);
  EXPECT_GE(predicted_seconds, sweep.best_seconds());
  EXPECT_LE(predicted_seconds, sweep.worst_seconds());
}

TEST(Pipeline, TrainedModelsAreByteIdenticalAcrossRuns) {
  // Labelling and fitting twice must write the same model file.
  const TrainerConfig cfg = tiny_config();
  std::stringstream first;
  std::stringstream second;
  train_predictor(generate_training_data(cfg)).save(first);
  train_predictor(generate_training_data(cfg)).save(second);
  EXPECT_FALSE(first.str().empty());
  EXPECT_EQ(first.str(), second.str());
}

TEST(Pipeline, RunAdaptiveEndToEnd) {
  const TrainerConfig cfg = tiny_config();
  const SwitchPredictor pred = train_predictor(generate_training_data(cfg));

  graph::RmatParams p;
  p.scale = 11;
  p.seed = 4242;
  const graph::CsrGraph g = graph::build_csr(graph::generate_rmat(p));
  const graph::vid_t root = graph::sample_roots(g, 1, 5)[0];

  sim::Machine machine = sim::make_paper_node();
  const CombinationRun run =
      run_adaptive(g, root, features_from_rmat(p), machine, pred);
  EXPECT_TRUE(bfs::validate_bfs(g, root, run.result).ok);
  EXPECT_GT(run.seconds, 0.0);
  EXPECT_EQ(run.levels.front().device, "SandyBridgeCPU");
}

TEST(Pipeline, RunAdaptiveSingleEndToEnd) {
  const TrainerConfig cfg = tiny_config();
  const SwitchPredictor pred = train_predictor(generate_training_data(cfg));

  graph::RmatParams p;
  p.scale = 10;
  p.seed = 7;
  const graph::CsrGraph g = graph::build_csr(graph::generate_rmat(p));
  const graph::vid_t root = graph::sample_roots(g, 1, 5)[0];
  const sim::Device gpu{sim::make_kepler_gpu()};
  obs::MemorySink sink;
  const CombinationRun run =
      run_adaptive_single(g, root, features_from_rmat(p), gpu, pred, &sink);
  EXPECT_TRUE(bfs::validate_bfs(g, root, run.result).ok);
  for (const obs::LevelEvent& lvl : run.levels) {
    EXPECT_EQ(lvl.device, "KeplerK20xGPU");
  }
  // The sink sees the whole run: one bracket, one event per level.
  EXPECT_EQ(sink.run_begins.size(), 1u);
  EXPECT_EQ(sink.levels.size(), run.levels.size());
  EXPECT_EQ(sink.levels_of_run(0).size(), run.levels.size());
  ASSERT_EQ(sink.run_ends.size(), 1u);
  EXPECT_EQ(sink.run_ends[0].depth,
            static_cast<std::int32_t>(run.levels.size()));
}

TEST(Trainer, LabelConfigurationCrossUsesLink) {
  graph::RmatParams p;
  p.scale = 11;
  const graph::CsrGraph g = graph::build_csr(graph::generate_rmat(p));
  const LevelTrace trace =
      build_level_trace(g, graph::sample_roots(g, 1, 5)[0]);
  const ArchPair cross{sim::make_sandy_bridge_cpu(), sim::make_kepler_gpu()};
  sim::InterconnectSpec cheap;
  cheap.latency_us = 0.0;
  cheap.bandwidth_gbps = 1e6;
  sim::InterconnectSpec expensive;
  expensive.latency_us = 5e5;  // half a second per handoff
  const SwitchCandidates cands = SwitchCandidates::coarse_grid();
  const TunedPolicy with_cheap =
      label_configuration(trace, cross, cheap, cands);
  const TunedPolicy with_expensive =
      label_configuration(trace, cross, expensive, cands);
  // An absurdly expensive link must make the tuned plan slower (or keep
  // everything on the host, which caps the damage).
  EXPECT_GE(with_expensive.seconds, with_cheap.seconds);
}

}  // namespace
}  // namespace bfsx::core
