#include "graph500/reference_bfs.h"

#include "bfs/drivers.h"
#include "core/adaptive_bfs.h"
#include "core/traversal.h"

namespace bfsx::graph500 {

bfs::BfsResult reference_bfs(const graph::CsrGraph& g, graph::vid_t root) {
  return bfs::run_serial(g, root);
}

BfsEngine make_reference_engine(const sim::Device& device,
                                obs::TraceSink* sink) {
  return [device, sink](const graph::CsrGraph& g,
                        graph::vid_t root) -> TimedBfs {
    core::Traversal run = core::run_traversal(
        g, root, "ref", bfs::ForcedPolicy{bfs::Direction::kTopDown},
        core::DeviceClock{device, kReferencePenalty}, sink);
    return {std::move(run.result), run.seconds};
  };
}

BfsEngine make_top_down_engine(const sim::Device& device,
                               obs::TraceSink* sink) {
  return [device, sink](const graph::CsrGraph& g,
                        graph::vid_t root) -> TimedBfs {
    core::CombinationRun run =
        core::run_pure(g, root, device, bfs::Direction::kTopDown, sink);
    return {std::move(run.result), run.seconds};
  };
}

BfsEngine make_bottom_up_engine(const sim::Device& device,
                                obs::TraceSink* sink) {
  return [device, sink](const graph::CsrGraph& g,
                        graph::vid_t root) -> TimedBfs {
    core::CombinationRun run =
        core::run_pure(g, root, device, bfs::Direction::kBottomUp, sink);
    return {std::move(run.result), run.seconds};
  };
}

}  // namespace bfsx::graph500
