#include "core/cross_arch_bfs.h"

#include "core/trace_emit.h"

namespace bfsx::core {
namespace {

CombinationRun run_cross_impl(const graph::CsrGraph& g, graph::vid_t root,
                              const sim::Device& host,
                              const sim::Device& accel,
                              const sim::InterconnectSpec& link,
                              const HybridPolicy& handoff_policy,
                              const HybridPolicy* accel_policy,
                              obs::TraceSink* sink) {
  handoff_policy.validate();
  if (accel_policy != nullptr) accel_policy->validate();

  CombinationRun run;
  obs::RunEvent trace = trace_begin_run(
      sink, accel_policy != nullptr ? "cross" : "cross-bu", g, root);
  bfs::BfsState state(g, root);
  bool on_accel = false;
  bfs::Direction prev = bfs::Direction::kTopDown;
  bool first = true;

  while (!state.frontier_empty()) {
    const graph::eid_t e_cq = state.frontier_out_edges(g);
    const auto v_cq = static_cast<graph::vid_t>(state.frontier_queue.size());

    const sim::Device* device = nullptr;
    bfs::Direction dir = bfs::Direction::kTopDown;
    if (!on_accel) {
      dir = handoff_policy.decide(e_cq, v_cq, g.num_edges(), g.num_vertices());
      if (dir == bfs::Direction::kTopDown) {
        device = &host;
      } else {
        // Algorithm 3 line 11: permanent handoff to the accelerator.
        on_accel = true;
        const double xfer =
            sim::transfer_seconds(link, sim::handoff_bytes(g.num_vertices()));
        run.transfer_seconds += xfer;
        run.seconds += xfer;
        if (sink != nullptr) {
          obs::LevelEvent handoff;
          handoff.kind = obs::LevelEvent::Kind::kHandoff;
          handoff.level = state.current_level;
          handoff.device = std::string(accel.name());
          handoff.frontier_vertices = v_cq;
          handoff.frontier_edges = e_cq;
          handoff.comm_seconds = xfer;
          sink->on_level(handoff);
        }
      }
    }
    if (on_accel) {
      device = &accel;
      dir = accel_policy != nullptr
                ? accel_policy->decide(e_cq, v_cq, g.num_edges(),
                                       g.num_vertices())
                : bfs::Direction::kBottomUp;
    }

    const sim::LevelOutcome out = dir == bfs::Direction::kTopDown
                                      ? device->run_top_down_level(g, state)
                                      : device->run_bottom_up_level(g, state);
    if (!first && dir != prev) ++run.direction_switches;
    prev = dir;
    first = false;
    run.seconds += out.seconds;
    if (sink != nullptr) {
      sink->on_level(trace_level(out, std::string(device->name())));
    }
    run.levels.push_back({out, std::string(device->name())});
  }
  run.result = std::move(state).take_result(g);
  trace_end_run(sink, std::move(trace), run.result, run.seconds,
                run.transfer_seconds,
                static_cast<std::int32_t>(run.levels.size()),
                run.direction_switches);
  return run;
}

}  // namespace

CombinationRun run_cross_arch(const graph::CsrGraph& g, graph::vid_t root,
                              const sim::Device& host,
                              const sim::Device& accel,
                              const sim::InterconnectSpec& link,
                              const HybridPolicy& handoff_policy,
                              const HybridPolicy& accel_policy,
                              obs::TraceSink* sink) {
  return run_cross_impl(g, root, host, accel, link, handoff_policy,
                        &accel_policy, sink);
}

CombinationRun run_cross_arch_bu_only(const graph::CsrGraph& g,
                                      graph::vid_t root,
                                      const sim::Device& host,
                                      const sim::Device& accel,
                                      const sim::InterconnectSpec& link,
                                      const HybridPolicy& handoff_policy,
                                      obs::TraceSink* sink) {
  return run_cross_impl(g, root, host, accel, link, handoff_policy, nullptr,
                        sink);
}

}  // namespace bfsx::core
