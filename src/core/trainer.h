// Offline training pipeline (paper Fig. 6, right side).
//
// step 1: for each (graph, td-arch, bu-arch) configuration, run the
//         instrumented traversal once, then price every candidate
//         switching point by trace replay and keep the best (the
//         paper's exhaustive search, made affordable — DESIGN.md §5.1);
// step 2: build the Fig. 7 sample from graph + architecture info, with
//         the best M (resp. N) as target;
// step 3: fit one SVR per target on the collected samples.
#pragma once

#include <vector>

#include "core/predictor.h"
#include "core/tuner.h"
#include "graph/rmat.h"
#include "ml/dataset.h"

namespace bfsx::core {

/// One architecture pairing: where top-down runs and where bottom-up
/// runs. Same spec on both sides = single-architecture combination.
struct ArchPair {
  sim::ArchSpec td;
  sim::ArchSpec bu;

  [[nodiscard]] bool is_cross() const { return td.name != bu.name; }
};

struct TrainerConfig {
  std::vector<graph::RmatParams> graphs;
  std::vector<ArchPair> arch_pairs;
  sim::InterconnectSpec link;
  SwitchCandidates candidates = SwitchCandidates::paper_grid();
  /// Root used for the per-configuration instrumented traversal.
  std::uint64_t root_seed = 42;
};

/// 180 samples at container-friendly scales (SCALE 11-13), near the
/// paper's 140-sample training set: 3 scales x 3 edgefactors x
/// 2 Kronecker parameter sets x 2 seeds x 5 architecture pairs.
[[nodiscard]] TrainerConfig default_trainer_config();

struct TrainingData {
  ml::Dataset m_data;  // target: best M
  ml::Dataset n_data;  // target: best N
};

/// Fig. 6 steps 1-2: the expensive exhaustive-search labelling pass.
/// Graphs are labelled across OpenMP workers; each graph's
/// generate/build/trace/label chain is independent and its rows are
/// folded in graph order, so the datasets are bit-identical for every
/// OMP_NUM_THREADS.
[[nodiscard]] TrainingData generate_training_data(const TrainerConfig& cfg);

/// Fig. 6 step 3, with the default ε-SVR parameters (RBF kernel,
/// C = 10, ε = 0.1, γ = 1/|features|).
[[nodiscard]] SwitchPredictor train_predictor(const TrainingData& data);

/// Labels one configuration: the exhaustively-best policy for
/// traversing `trace` with top-down on `pair.td` / bottom-up on
/// `pair.bu`. For a cross pair the accelerator-internal policy is
/// tuned first (on `pair.bu` alone) and held fixed, matching how
/// Algorithm 3 composes its two predictions.
[[nodiscard]] TunedPolicy label_configuration(const LevelTrace& trace,
                                              const ArchPair& pair,
                                              const sim::InterconnectSpec& link,
                                              const SwitchCandidates& candidates);

}  // namespace bfsx::core
