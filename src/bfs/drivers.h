// Whole-traversal drivers: run a single direction (or the serial
// reference) from root to completion. The hybrid and cross-architecture
// executors live in src/core; these drivers are the pure baselines the
// paper calls GPUTD/GPUBU/CPUTD/CPUBU when bound to a device model.
//
// All three drivers are templates over graph views (graph/view.h):
// run_serial needs only out-neighbour enumeration (graph::GraphView);
// run_top_down runs the level loop (bfs/traverse.h), which reads |E|
// (graph::EdgeCountedView); run_bottom_up also needs predecessor
// access (graph::HybridView). The CsrGraph overloads forward through
// the zero-overhead adapter.
#pragma once

#include <deque>

#include "bfs/state.h"
#include "bfs/traverse.h"
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

/// One pure-direction run through the level loop (bfs/traverse.h),
/// each level recorded into `log` when one is given.
template <graph::EdgeCountedView V>
BfsResult run_forced(const V& g, vid_t root, Direction direction,
                     TraversalLog* log) {
  BfsState state(g.num_vertices(), root);
  traverse(g, state, ForcedPolicy{direction},
           [log](const V& view, BfsState& s, const Frontier& f, Decision d) {
             const LevelStats l = step_level(view, s, f, d.direction);
             if (log != nullptr) {
               log->levels.push_back({l.level, l.frontier_vertices,
                                      l.frontier_edges,
                                      l.bu_edges_hit + l.bu_edges_miss,
                                      l.next_vertices});
             }
           });
  return std::move(state).take_result(g);
}

/// Pure top-down traversal (paper Algorithm 1).
template <graph::EdgeCountedView V>
BfsResult run_top_down(const V& g, vid_t root, TraversalLog* log = nullptr) {
  return run_forced(g, root, Direction::kTopDown, log);
}

/// Pure bottom-up traversal (paper Algorithm 2).
template <graph::HybridView V>
BfsResult run_bottom_up(const V& g, vid_t root, TraversalLog* log = nullptr) {
  return run_forced(g, root, Direction::kBottomUp, log);
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
