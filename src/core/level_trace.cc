#include "core/level_trace.h"

#include "bfs/traverse.h"
#include "core/cross_arch_bfs.h"

namespace bfsx::core {

LevelTrace build_level_trace(const graph::CsrGraph& g, graph::vid_t root) {
  LevelTrace trace;
  trace.num_vertices = g.num_vertices();
  trace.num_edges = g.num_edges();

  // Top-down advances the state; before each step, a bottom-up probe
  // records what that direction would have scanned.
  bfs::BfsState state(g, root);
  bfs::traverse(g, state, bfs::ForcedPolicy{bfs::Direction::kTopDown},
                [&trace](const graph::CsrGraph& view, bfs::BfsState& s,
                         const bfs::Frontier& f, bfs::Decision d) {
                  const bfs::BottomUpStats probe =
                      bfs::bottom_up_probe(view, s);
                  const bfs::LevelStats step =
                      bfs::step_level(view, s, f, d.direction);
                  trace.levels.push_back(
                      {f.level, f.vertices, f.edges, probe.edges_scanned_hit,
                       probe.edges_scanned_miss, step.next_vertices});
                });
  return trace;
}

namespace {

bfs::Frontier frontier_of(const TraceLevel& lvl, const LevelTrace& trace) {
  return {lvl.level, lvl.frontier_vertices, lvl.frontier_edges,
          trace.num_vertices, trace.num_edges};
}

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
    seconds +=
        level_cost(lvl, trace, arch, policy.decide(frontier_of(lvl, trace)));
  }
  return seconds;
}

double replay_beamer(const LevelTrace& trace, const sim::ArchSpec& arch,
                     const BeamerPolicy& policy) {
  policy.validate();
  BeamerRule rule(policy);
  double seconds = 0.0;
  for (const TraceLevel& lvl : trace.levels) {
    seconds +=
        level_cost(lvl, trace, arch, rule.decide(frontier_of(lvl, trace)));
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
  HandoffRule rule(handoff_policy, &accel_policy);
  double seconds = 0.0;
  int device = 0;
  for (const TraceLevel& lvl : trace.levels) {
    const bfs::Decision d = rule.decide(frontier_of(lvl, trace));
    if (d.device != device) {
      // Algorithm 3, line 11: leave the host for good; ship the
      // frontier + visited bitmaps across the link.
      device = d.device;
      seconds +=
          sim::transfer_seconds(link, sim::handoff_bytes(trace.num_vertices));
    }
    seconds += level_cost(lvl, trace, d.device == 0 ? host : accel,
                          d.direction);
  }
  return seconds;
}

}  // namespace bfsx::core
