// Library front door: the paper's complete pipeline as two calls.
//
//   SwitchPredictor predictor = train_predictor(           // offline, once
//       generate_training_data(default_trainer_config()));
//   CombinationRun run = run_adaptive(g, root, features,   // online, per BFS
//                                     machine, predictor);
//
// run_adaptive is Algorithm 3 end to end: predict (M1, N1) from
// (graph, host, accelerator), predict (M2, N2) from
// (graph, accelerator, accelerator), then execute the
// cross-architecture combination with those policies.
#pragma once

#include "core/cross_arch_bfs.h"
#include "core/predictor.h"
#include "core/trainer.h"
#include "sim/machine.h"

namespace bfsx::core {

/// Algorithm 3 with regression-predicted switching points, on
/// `machine`'s host + first accelerator.
[[nodiscard]] CombinationRun run_adaptive(const graph::CsrGraph& g,
                                          graph::vid_t root,
                                          const GraphFeatures& features,
                                          const sim::Machine& machine,
                                          const SwitchPredictor& predictor,
                                          obs::TraceSink* sink = nullptr);

/// Single-architecture adaptive combination (the paper's CPUCB/GPUCB/
/// MICCB rows, with the switching point predicted instead of hand-tuned).
[[nodiscard]] CombinationRun run_adaptive_single(
    const graph::CsrGraph& g, graph::vid_t root,
    const GraphFeatures& features, const sim::Device& device,
    const SwitchPredictor& predictor, obs::TraceSink* sink = nullptr);

}  // namespace bfsx::core
