#include "core/adaptive_bfs.h"

#include "core/trace_emit.h"

namespace bfsx::core {

CombinationRun run_combination(const graph::CsrGraph& g, graph::vid_t root,
                               const sim::Device& device,
                               const HybridPolicy& policy,
                               obs::TraceSink* sink) {
  policy.validate();
  CombinationRun run;
  obs::RunEvent trace = trace_begin_run(sink, "hybrid", g, root);
  bfs::BfsState state(g, root);
  bfs::Direction prev = bfs::Direction::kTopDown;
  bool first = true;
  while (!state.frontier_empty()) {
    const graph::eid_t e_cq = state.frontier_out_edges(g);
    const auto v_cq = static_cast<graph::vid_t>(state.frontier_queue.size());
    const bfs::Direction dir =
        policy.decide(e_cq, v_cq, g.num_edges(), g.num_vertices());
    const sim::LevelOutcome out = dir == bfs::Direction::kTopDown
                                      ? device.run_top_down_level(g, state)
                                      : device.run_bottom_up_level(g, state);
    if (!first && dir != prev) ++run.direction_switches;
    prev = dir;
    first = false;
    run.seconds += out.seconds;
    if (sink != nullptr) {
      sink->on_level(trace_level(out, std::string(device.name())));
    }
    run.levels.push_back({out, std::string(device.name())});
  }
  run.result = std::move(state).take_result(g);
  trace_end_run(sink, std::move(trace), run.result, run.seconds, 0.0,
                static_cast<std::int32_t>(run.levels.size()),
                run.direction_switches);
  return run;
}

CombinationRun run_combination_beamer(const graph::CsrGraph& g,
                                      graph::vid_t root,
                                      const sim::Device& device,
                                      const BeamerPolicy& policy,
                                      obs::TraceSink* sink) {
  policy.validate();
  CombinationRun run;
  obs::RunEvent trace = trace_begin_run(sink, "beamer", g, root);
  bfs::BfsState state(g, root);
  bfs::Direction prev = bfs::Direction::kTopDown;
  graph::eid_t explored = 0;
  bool first = true;
  while (!state.frontier_empty()) {
    const graph::eid_t e_cq = state.frontier_out_edges(g);
    explored += e_cq;
    const auto v_cq = static_cast<graph::vid_t>(state.frontier_queue.size());
    const bfs::Direction dir = policy.decide(
        e_cq, g.num_edges() - explored, v_cq, g.num_vertices(), prev);
    const sim::LevelOutcome out = dir == bfs::Direction::kTopDown
                                      ? device.run_top_down_level(g, state)
                                      : device.run_bottom_up_level(g, state);
    if (!first && dir != prev) ++run.direction_switches;
    prev = dir;
    first = false;
    run.seconds += out.seconds;
    if (sink != nullptr) {
      sink->on_level(trace_level(out, std::string(device.name())));
    }
    run.levels.push_back({out, std::string(device.name())});
  }
  run.result = std::move(state).take_result(g);
  trace_end_run(sink, std::move(trace), run.result, run.seconds, 0.0,
                static_cast<std::int32_t>(run.levels.size()),
                run.direction_switches);
  return run;
}

CombinationRun run_pure(const graph::CsrGraph& g, graph::vid_t root,
                        const sim::Device& device, bfs::Direction direction,
                        obs::TraceSink* sink) {
  CombinationRun run;
  obs::RunEvent trace = trace_begin_run(
      sink, direction == bfs::Direction::kTopDown ? "td" : "bu", g, root);
  bfs::BfsState state(g, root);
  while (!state.frontier_empty()) {
    const sim::LevelOutcome out =
        direction == bfs::Direction::kTopDown
            ? device.run_top_down_level(g, state)
            : device.run_bottom_up_level(g, state);
    run.seconds += out.seconds;
    if (sink != nullptr) {
      sink->on_level(trace_level(out, std::string(device.name())));
    }
    run.levels.push_back({out, std::string(device.name())});
  }
  run.result = std::move(state).take_result(g);
  trace_end_run(sink, std::move(trace), run.result, run.seconds, 0.0,
                static_cast<std::int32_t>(run.levels.size()),
                run.direction_switches);
  return run;
}

}  // namespace bfsx::core
