#include "core/api.h"

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
