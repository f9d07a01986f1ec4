#include "core/api.h"

#include <stdexcept>

namespace bfsx::core {

CombinationRun run_adaptive(const graph::CsrGraph& g, graph::vid_t root,
                            const GraphFeatures& features,
                            const sim::Machine& machine,
                            const SwitchPredictor& predictor,
                            obs::TraceSink* sink) {
  const sim::Device& host = machine.host();
  const sim::Device& accel = machine.accelerator(0);
  // Algorithm 3 lines 1-2: the two independent predictions.
  const HybridPolicy handoff =
      predictor.predict(features, host.spec(), accel.spec());
  const HybridPolicy on_accel =
      predictor.predict(features, accel.spec(), accel.spec());
  return run_cross_arch(g, root, host, accel, machine.link(), handoff,
                        on_accel, sink);
}

std::size_t select_accelerator(const GraphFeatures& features,
                               const sim::Machine& machine,
                               const TimePredictor& times) {
  if (machine.num_accelerators() == 0) {
    throw std::invalid_argument("select_accelerator: no accelerators");
  }
  std::size_t best = 0;
  double best_seconds = 0.0;
  for (std::size_t i = 0; i < machine.num_accelerators(); ++i) {
    // The cross pairing runs top-down on the host, bottom-up (mostly)
    // on accelerator i — exactly the feature layout of Fig. 7.
    const double s = times.predict_seconds(
        features, machine.host().spec(), machine.accelerator(i).spec());
    if (i == 0 || s < best_seconds) {
      best = i;
      best_seconds = s;
    }
  }
  return best;
}

CombinationRun run_adaptive_auto(const graph::CsrGraph& g, graph::vid_t root,
                                 const GraphFeatures& features,
                                 const sim::Machine& machine,
                                 const SwitchPredictor& predictor,
                                 const TimePredictor& times,
                                 obs::TraceSink* sink) {
  const std::size_t pick = select_accelerator(features, machine, times);
  const sim::Device& host = machine.host();
  const sim::Device& accel = machine.accelerator(pick);
  const HybridPolicy handoff =
      predictor.predict(features, host.spec(), accel.spec());
  const HybridPolicy on_accel =
      predictor.predict(features, accel.spec(), accel.spec());
  return run_cross_arch(g, root, host, accel, machine.link(), handoff,
                        on_accel, sink);
}

CombinationRun run_adaptive_single(const graph::CsrGraph& g,
                                   graph::vid_t root,
                                   const GraphFeatures& features,
                                   const sim::Device& device,
                                   const SwitchPredictor& predictor,
                                   obs::TraceSink* sink) {
  const HybridPolicy policy = predictor.predict(features, device.spec());
  return run_combination(g, root, device, policy, sink);
}

}  // namespace bfsx::core
