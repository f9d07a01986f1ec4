// Offline training workflow (paper Fig. 6): generate labelled data by
// exhaustive search, train the two SVR models, persist them, reload,
// and sanity-check the reloaded predictor on a fresh graph.
//
// Usage: ./examples/train_and_save [model-path]
// (default model path: ./bfsx_switch_model.txt)
#include <cstdio>
#include <string>

#include "core/api.h"
#include "core/level_trace.h"
#include "core/tuner.h"
#include "graph/builder.h"
#include "graph/graph_stats.h"

int main(int argc, char** argv) {
  using namespace bfsx;
  const std::string path =
      argc > 1 ? argv[1] : std::string("bfsx_switch_model.txt");

  // Step 1-2 of Fig. 6: exhaustive-search labelling over the training
  // configurations (36 graphs x 5 architecture pairs = 180 samples).
  std::printf("generating training data (this is the one-time cost the "
              "paper amortises)...\n");
  const core::TrainerConfig cfg = core::default_trainer_config();
  const core::TrainingData data = core::generate_training_data(cfg);
  std::printf("  %zu samples, %zu features each\n", data.m_data.size(),
              data.m_data.num_features());

  // Step 3: fit the two SVR models and persist them.
  const core::SwitchPredictor predictor = core::train_predictor(data);
  predictor.save_file(path);
  std::printf("saved model to %s\n", path.c_str());

  // Runtime side: load and predict for an unseen graph.
  const core::SwitchPredictor loaded = core::SwitchPredictor::load_file(path);
  graph::RmatParams p;
  p.scale = 13;
  p.edgefactor = 20;
  p.seed = 31337;
  const graph::CsrGraph g = graph::build_csr(graph::generate_rmat(p));
  const graph::vid_t root = graph::sample_roots(g, 1, 3)[0];

  const sim::ArchSpec cpu = sim::make_sandy_bridge_cpu();
  const sim::ArchSpec gpu = sim::make_kepler_gpu();
  const core::HybridPolicy predicted =
      loaded.predict(core::features_from_rmat(p), cpu, gpu);
  std::printf("\npredicted switching point for an unseen graph "
              "(CPU-TD / GPU-BU pair): M=%.1f N=%.1f\n",
              predicted.m, predicted.n);

  // How good is it? Compare against the exhaustive oracle.
  const core::LevelTrace trace = core::build_level_trace(g, root);
  const core::SwitchCandidates cands = core::SwitchCandidates::paper_grid();
  const core::HybridPolicy inner =
      loaded.predict(core::features_from_rmat(p), gpu, gpu);
  const core::CandidateSweep sweep = core::sweep_cross(
      trace, cpu, gpu, sim::InterconnectSpec{}, cands, inner);
  const double mine = core::replay_cross(trace, cpu, gpu,
                                         sim::InterconnectSpec{}, predicted,
                                         inner);
  std::printf("predicted plan: %.4f ms | exhaustive best: %.4f ms | worst: "
              "%.4f ms\n-> prediction reaches %.0f%% of the oracle with one "
              "SVR evaluation instead of %zu replays\n",
              mine * 1e3, sweep.best_seconds() * 1e3,
              sweep.worst_seconds() * 1e3,
              100.0 * sweep.best_seconds() / mine, cands.size());
  return 0;
}
