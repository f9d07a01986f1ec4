// Whole-traversal drivers: run a single direction (or the serial
// reference) from root to completion. The hybrid and cross-architecture
// executors live in src/core; these drivers are the pure baselines the
// paper calls GPUTD/GPUBU/CPUTD/CPUBU when bound to a device model.
//
// All three drivers are templates over graph views (graph/view.h):
// run_top_down and run_serial need only out-neighbour enumeration
// (graph::GraphView); run_bottom_up needs predecessor access
// (graph::TransposeView). The CsrGraph overloads forward through the
// zero-overhead adapter.
#pragma once

#include <deque>

#include "bfs/bottomup.h"
#include "bfs/state.h"
#include "bfs/topdown.h"
#include "check/agreement.h"
#include "graph/view.h"

namespace bfsx::bfs {

/// Per-level record of a full traversal; the raw material for the
/// paper's Figures 1-3 and for LevelTrace (src/core).
struct LevelRecord {
  std::int32_t level = 0;       // level being *expanded* (0 = root level)
  vid_t frontier_vertices = 0;  // |V|cq
  eid_t frontier_edges = 0;     // |E|cq
  eid_t bottom_up_scanned = 0;  // edges a BU pass scanned (0 for TD runs)
  vid_t next_vertices = 0;
};

struct TraversalLog {
  std::vector<LevelRecord> levels;
};

/// Adapts a traversal log into the engine-agnostic counter rows the
/// cross-engine agreement checker (check/agreement.h) compares. The
/// bottom_up_scanned column is direction-specific by design and is
/// deliberately not part of the agreement contract.
[[nodiscard]] inline std::vector<check::LevelCounters> to_level_counters(
    const TraversalLog& log) {
  std::vector<check::LevelCounters> out;
  out.reserve(log.levels.size());
  for (const LevelRecord& r : log.levels) {
    out.push_back({r.level, r.frontier_vertices, r.frontier_edges,
                   r.next_vertices});
  }
  return out;
}

/// Pure top-down traversal (paper Algorithm 1).
template <graph::GraphView V>
BfsResult run_top_down(const V& g, vid_t root, TraversalLog* log = nullptr) {
  BfsState state(g.num_vertices(), root);
  while (!state.frontier_empty()) {
    const std::int32_t lvl = state.current_level;
    const TopDownStats s = top_down_step(g, state);
    if (log != nullptr) {
      log->levels.push_back({lvl, s.frontier_vertices, s.frontier_edges,
                             /*bottom_up_scanned=*/0, s.next_vertices});
    }
  }
  return std::move(state).take_result(g);
}

/// Pure bottom-up traversal (paper Algorithm 2).
template <graph::TransposeView V>
BfsResult run_bottom_up(const V& g, vid_t root, TraversalLog* log = nullptr) {
  BfsState state(g.num_vertices(), root);
  while (!state.frontier_empty()) {
    const std::int32_t lvl = state.current_level;
    const eid_t cq_edges = state.frontier_out_edges(g);
    const vid_t cq_vertices = static_cast<vid_t>(state.frontier_queue.size());
    const BottomUpStats s = bottom_up_step(g, state);
    if (log != nullptr) {
      log->levels.push_back(
          {lvl, cq_vertices, cq_edges, s.edges_scanned(), s.next_vertices});
    }
  }
  return std::move(state).take_result(g);
}

/// Textbook serial queue BFS; the oracle all parallel kernels are
/// checked against in tests.
template <graph::GraphView V>
BfsResult run_serial(const V& g, vid_t root) {
  BfsState state(g.num_vertices(), root);
  std::deque<vid_t> queue;
  queue.push_back(root);
  while (!queue.empty()) {
    const vid_t u = queue.front();
    queue.pop_front();
    g.for_each_out_neighbor(u, [&state, &queue, u](vid_t v) {
      auto& p = state.parent[static_cast<std::size_t>(v)];
      if (p == kNoVertex) {
        p = u;
        state.level[static_cast<std::size_t>(v)] =
            state.level[static_cast<std::size_t>(u)] + 1;
        ++state.reached;
        queue.push_back(v);
      }
    });
  }
  state.frontier_queue.clear();
  return std::move(state).take_result(g);
}

/// CSR entry points: forward through the zero-overhead adapter.
BfsResult run_top_down(const CsrGraph& g, vid_t root,
                       TraversalLog* log = nullptr);
BfsResult run_bottom_up(const CsrGraph& g, vid_t root,
                        TraversalLog* log = nullptr);
BfsResult run_serial(const CsrGraph& g, vid_t root);

}  // namespace bfsx::bfs
