// Templated wall-clock traversal core, shared by the CSR-facing native
// engines (native_engine.cc) and the implicit-graph scenario engines
// (scenario_engine.cc).
//
// Everything here is parameterized over the graph type `G` — either
// graph::CsrGraph (whose kernel overloads forward through the
// zero-overhead CsrGraphView adapter) or any graph::HybridView such as
// GridWorld / NPuzzleSpace. One definition of the traced level loop
// therefore serves both worlds, and the per-level counters it emits are
// byte-identical for identical work regardless of representation.
#pragma once

#include <chrono>
#include <optional>
#include <utility>

#include "bfs/bottomup.h"
#include "bfs/state_pool.h"
#include "bfs/topdown.h"
#include "core/hybrid_policy.h"
#include "core/trace_emit.h"
#include "graph500/runner.h"
#include "obs/sink.h"

namespace bfsx::graph500::detail {

using EngineClock = std::chrono::steady_clock;

inline double seconds_since(EngineClock::time_point start) {
  return std::chrono::duration<double>(EngineClock::now() - start).count();
}

/// Runs a traversal with `step(state, event_or_null)`. With no sink the
/// loop is exactly the untraced original — one clock read per
/// traversal, no per-level work. With a sink, each level is wall-timed
/// and emitted; the counters come from the kernels' own stats and the
/// |E|cq the previous step carried in the state, so a traced level
/// costs two clock reads and an event, never an extra frontier scan.
/// With a pool, the state is a recycled lease instead of a fresh
/// allocation; take_result still moves the maps out, and the next
/// checkout's reset refills them.
template <typename G, typename Step>
TimedBfs traced_traversal(const G& g, graph::vid_t root, const char* engine,
                          obs::TraceSink* sink, bfs::StatePool* pool,
                          Step&& step) {
  std::optional<bfs::StatePool::Lease> lease;
  std::optional<bfs::BfsState> local;
  bfs::BfsState& state =
      pool != nullptr ? *lease.emplace(pool->acquire(g.num_vertices(), root))
                      : local.emplace(g.num_vertices(), root);
  if (sink == nullptr) {
    const auto start = EngineClock::now();
    while (!state.frontier_empty()) step(state, nullptr);
    const double seconds = seconds_since(start);
    return {std::move(state).take_result(g), seconds};
  }

  obs::RunEvent trace = core::trace_begin_run(sink, engine, g, root);
  std::int32_t depth = 0;
  int switches = 0;
  bfs::Direction prev = bfs::Direction::kTopDown;
  const auto start = EngineClock::now();
  while (!state.frontier_empty()) {
    obs::LevelEvent event;
    event.device = "host";
    const auto level_start = EngineClock::now();
    step(state, &event);
    event.compute_seconds = seconds_since(level_start);
    if (depth > 0 && event.direction != prev) ++switches;
    prev = event.direction;
    ++depth;
    sink->on_level(event);
  }
  const double seconds = seconds_since(start);
  TimedBfs timed{std::move(state).take_result(g), seconds};
  core::trace_end_run(sink, std::move(trace), timed.result, seconds, 0.0,
                      depth, switches);
  return timed;
}

/// One top-down level; with an event, its counters are recorded.
template <typename G>
void step_top_down(const G& g, bfs::BfsState& s, obs::LevelEvent* e) {
  if (e == nullptr) {
    bfs::top_down_step(g, s);
    return;
  }
  e->level = s.current_level;
  e->direction = bfs::Direction::kTopDown;
  const bfs::TopDownStats stats = bfs::top_down_step(g, s);
  e->frontier_vertices = stats.frontier_vertices;
  e->frontier_edges = stats.frontier_edges;
  e->next_vertices = stats.next_vertices;
}

/// One bottom-up level; with an event, its counters are recorded.
template <typename G>
void step_bottom_up(const G& g, bfs::BfsState& s, obs::LevelEvent* e) {
  if (e == nullptr) {
    bfs::bottom_up_step(g, s);
    return;
  }
  e->level = s.current_level;
  e->direction = bfs::Direction::kBottomUp;
  // |E|cq is not something bottom-up scans for; the step that built
  // this frontier carried it, so traces from every engine family hold
  // the same per-level counters.
  e->frontier_edges = s.frontier_out_edges(g);
  const bfs::BottomUpStats stats = bfs::bottom_up_step(g, s);
  e->frontier_vertices = stats.frontier_vertices;
  e->bu_edges_hit = stats.edges_scanned_hit;
  e->bu_edges_miss = stats.edges_scanned_miss;
  e->next_vertices = stats.next_vertices;
}

/// One M/N-decided level: evaluates `policy` against the real frontier
/// statistics — exactly like the simulated executor — then steps in the
/// chosen direction. |E|cq is the value the previous step carried.
template <typename G>
void step_hybrid(const G& g, const core::HybridPolicy& policy,
                 bfs::BfsState& s, obs::LevelEvent* e) {
  const graph::eid_t e_cq = s.frontier_out_edges(g);
  const auto v_cq = static_cast<graph::vid_t>(s.frontier_queue.size());
  if (policy.decide(e_cq, v_cq, g.num_edges(), g.num_vertices()) ==
      bfs::Direction::kTopDown) {
    step_top_down(g, s, e);
  } else {
    step_bottom_up(g, s, e);
  }
}

}  // namespace bfsx::graph500::detail
