#include "core/adaptive_bfs.h"

namespace bfsx::core {

CombinationRun run_combination(const graph::CsrGraph& g, graph::vid_t root,
                               const sim::Device& device,
                               const HybridPolicy& policy,
                               obs::TraceSink* sink) {
  policy.validate();
  return run_modelled(g, root, "hybrid", policy, DeviceClock{device}, sink);
}

CombinationRun run_combination_beamer(const graph::CsrGraph& g,
                                      graph::vid_t root,
                                      const sim::Device& device,
                                      const BeamerPolicy& policy,
                                      obs::TraceSink* sink) {
  policy.validate();
  return run_modelled(g, root, "beamer", BeamerRule(policy),
                      DeviceClock{device}, sink);
}

CombinationRun run_pure(const graph::CsrGraph& g, graph::vid_t root,
                        const sim::Device& device, bfs::Direction direction,
                        obs::TraceSink* sink) {
  return run_modelled(g, root,
                      direction == bfs::Direction::kTopDown ? "td" : "bu",
                      bfs::ForcedPolicy{direction}, DeviceClock{device}, sink);
}

}  // namespace bfsx::core
