#include "core/level_trace.h"

#include "bfs/bottomup.h"
#include "bfs/topdown.h"

namespace bfsx::core {

LevelTrace build_level_trace(const graph::CsrGraph& g, graph::vid_t root) {
  LevelTrace trace;
  trace.num_vertices = g.num_vertices();
  trace.num_edges = g.num_edges();

  bfs::BfsState state(g, root);
  while (!state.frontier_empty()) {
    TraceLevel lvl;
    lvl.level = state.current_level;
    lvl.frontier_vertices = static_cast<graph::vid_t>(state.frontier_queue.size());
    lvl.frontier_edges = state.frontier_out_edges(g);

    const bfs::BottomUpStats probe = bfs::bottom_up_probe(g, state);
    lvl.bu_edges_hit = probe.edges_scanned_hit;
    lvl.bu_edges_miss = probe.edges_scanned_miss;

    const bfs::TopDownStats advanced = bfs::top_down_step(g, state);
    lvl.next_vertices = advanced.next_vertices;
    trace.levels.push_back(lvl);
  }
  return trace;
}

namespace {

double level_cost(const TraceLevel& lvl, const LevelTrace& trace,
                  const sim::ArchSpec& arch, bfs::Direction dir) {
  if (dir == bfs::Direction::kTopDown) {
    return sim::top_down_level_seconds(arch, lvl.frontier_edges);
  }
  return sim::bottom_up_level_seconds(arch, trace.num_vertices,
                                      lvl.bu_edges_hit, lvl.bu_edges_miss);
}

}  // namespace

double replay_pure(const LevelTrace& trace, const sim::ArchSpec& arch,
                   bfs::Direction direction) {
  double seconds = 0.0;
  for (const TraceLevel& lvl : trace.levels) {
    seconds += level_cost(lvl, trace, arch, direction);
  }
  return seconds;
}

double replay_single(const LevelTrace& trace, const sim::ArchSpec& arch,
                     const HybridPolicy& policy) {
  policy.validate();
  double seconds = 0.0;
  for (const TraceLevel& lvl : trace.levels) {
    const bfs::Direction dir =
        policy.decide(lvl.frontier_edges, lvl.frontier_vertices,
                      trace.num_edges, trace.num_vertices);
    seconds += level_cost(lvl, trace, arch, dir);
  }
  return seconds;
}

double replay_beamer(const LevelTrace& trace, const sim::ArchSpec& arch,
                     const BeamerPolicy& policy) {
  policy.validate();
  double seconds = 0.0;
  graph::eid_t explored = 0;  // out-edges of all visited levels so far
  bfs::Direction prev = bfs::Direction::kTopDown;
  for (const TraceLevel& lvl : trace.levels) {
    explored += lvl.frontier_edges;
    const graph::eid_t unexplored = trace.num_edges - explored;
    const bfs::Direction dir =
        policy.decide(lvl.frontier_edges, unexplored, lvl.frontier_vertices,
                      trace.num_vertices, prev);
    seconds += level_cost(lvl, trace, arch, dir);
    prev = dir;
  }
  return seconds;
}

double replay_cross(const LevelTrace& trace, const sim::ArchSpec& host,
                    const sim::ArchSpec& accel,
                    const sim::InterconnectSpec& link,
                    const HybridPolicy& handoff_policy,
                    const HybridPolicy& accel_policy) {
  handoff_policy.validate();
  accel_policy.validate();
  double seconds = 0.0;
  bool on_accel = false;
  for (const TraceLevel& lvl : trace.levels) {
    if (!on_accel) {
      const bfs::Direction dir =
          handoff_policy.decide(lvl.frontier_edges, lvl.frontier_vertices,
                                trace.num_edges, trace.num_vertices);
      if (dir == bfs::Direction::kTopDown) {
        seconds += level_cost(lvl, trace, host, bfs::Direction::kTopDown);
        continue;
      }
      // Algorithm 3, line 11: leave the host for good; ship the
      // frontier + visited bitmaps across the link.
      on_accel = true;
      seconds +=
          sim::transfer_seconds(link, sim::handoff_bytes(trace.num_vertices));
    }
    const bfs::Direction dir =
        accel_policy.decide(lvl.frontier_edges, lvl.frontier_vertices,
                            trace.num_edges, trace.num_vertices);
    seconds += level_cost(lvl, trace, accel, dir);
  }
  return seconds;
}

}  // namespace bfsx::core
