// Parallel top-down BFS level step (paper Algorithm 1, lines 6-13).
//
// The kernel is a template over any graph::GraphView (graph/view.h), so
// the identical loop runs on CSR storage (through graph::CsrGraphView)
// and on implicit successor functions. The historical CsrGraph overload
// below forwards through the adapter, which keeps every existing call
// site source-compatible and makes CSR bit-equality structural rather
// than promised.
//
// Scratch discipline: the per-thread discovery buffers and the merged
// next queue live in BfsState (td_local_next / td_next), so steady-state
// levels perform no allocation — the buffers reach their high-water
// capacity after the widest level and are recycled by the
// queue-swap at the end of each step (test_mem_tuning pins this).
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "bfs/frontier.h"
#include "bfs/mem_tuning.h"
#include "bfs/state.h"
#include "check/contract.h"
#include "graph/view.h"

namespace bfsx::bfs {

/// Exact work counters for one top-down level. These are the inputs to
/// the architecture cost model and to the switching heuristic.
struct TopDownStats {
  vid_t frontier_vertices = 0;  // |V|cq
  eid_t frontier_edges = 0;     // |E|cq — every one of these is traversed
  vid_t next_vertices = 0;      // |V| of the produced next queue
};

/// Advances `state` by one level using the top-down direction: each
/// frontier vertex tries to claim its unvisited out-neighbours
/// (Algorithm 1 lines 7-12). Parallelised over frontier vertices with
/// OpenMP; a neighbour whose visited bit already reads set is skipped
/// with a relaxed load, and the rest are claimed with an atomic
/// test-and-set so each vertex gets exactly one parent. Claimed
/// vertices set their next-frontier bit and add their out-degree to
/// the carried |E|cq (state.frontier_edges) as they are found, and each
/// thread copies its own discoveries into the merged queue, so no loop
/// after the traversal is serial in the frontier.
///
/// `tuning.prefetch` (bfs/mem_tuning.h): with distance d > 0 and a
/// PrefetchableView, each iteration prefetches the adjacency row of
/// queue[i + d] and — inside the row walk — the visited-bitmap word of
/// the neighbour d slots ahead, hiding the two dependent random-access
/// misses of the gather. d == 0 (the default) takes the plain loop;
/// non-prefetchable views compile the hints out entirely. Prefetching
/// never changes which vertices are discovered or in what order.
///
/// On return the state's frontier (queue + bitmap), visited set, parent
/// and level maps, carried |E|cq, current_level, and reached count are
/// all updated.
template <graph::GraphView V>
TopDownStats top_down_step(const V& g, BfsState& state, MemTuning tuning) {
  TopDownStats stats;
  stats.frontier_vertices = static_cast<vid_t>(state.frontier_queue.size());

  const auto& queue = state.frontier_queue;
  const std::int32_t next_level = state.current_level + 1;
  // |E|cq is accumulated inside the traversal loop (one queue walk)
  // rather than by a frontier_out_edges pre-pass (two queue walks); the
  // reduction makes it exact under any schedule. `next_edges` is the
  // same sum over the vertices this level discovers.
  eid_t frontier_edges = 0;
  eid_t next_edges = 0;

#ifdef _OPENMP
  const int num_threads = omp_get_max_threads();
#else
  const int num_threads = 1;
#endif
  auto& local_next = state.td_local_next;
  if (local_next.size() < static_cast<std::size_t>(num_threads)) {
    local_next.resize(static_cast<std::size_t>(num_threads));
  }
  for (auto& part : local_next) part.clear();  // capacity retained
  auto& next = state.td_next;
  next.clear();
  // Top-down never reads the frontier bitmap; it is rebuilt below as
  // the claims land.
  state.frontier_bitmap.reset();

  std::size_t dist = 0;
  if constexpr (graph::PrefetchableView<V>) {
    if (tuning.prefetch.enabled()) {
      dist = static_cast<std::size_t>(tuning.prefetch.distance);
    }
  }

#ifdef _OPENMP
#pragma omp parallel reduction(+ : frontier_edges, next_edges)
#endif
  {
#ifdef _OPENMP
    // analyze: allow(nested-chunking) tid only selects this thread's
    // private scratch slot; in a nested 1-thread team tid is 0 and the
    // slot count (omp_get_max_threads, taken outside) stays an upper
    // bound, so no work is partitioned by a stale team size.
    const int tid = omp_get_thread_num();
#else
    const int tid = 0;
#endif
    auto& mine = local_next[static_cast<std::size_t>(tid)];
#ifdef _OPENMP
#pragma omp for schedule(dynamic, 64)
#endif
    for (std::size_t i = 0; i < queue.size(); ++i) {
      const vid_t u = queue[i];
      frontier_edges += g.out_degree(u);
      const auto visit = [&g, &state, &mine, &next_edges, u,
                          next_level](vid_t v) {
        const auto vi = static_cast<std::size_t>(v);
        // Algorithm 1 line 9: visited check. The relaxed load filters
        // out vertices already claimed; the claim itself is the atomic
        // test-and-set, so two frontier vertices cannot both adopt v.
        if (state.visited.test_relaxed(vi)) return;
        if (!state.visited.test_and_set_atomic(vi)) return;
        state.parent[vi] = u;
        state.level[vi] = next_level;
        state.frontier_bitmap.set_atomic(vi);
        next_edges += g.out_degree(v);
        mine.push_back(v);
      };
      if constexpr (graph::PrefetchableView<V>) {
        if (dist > 0) {
          // Row-level lookahead: pull queue[i + d]'s adjacency row in
          // while this row is being walked.
          if (i + dist < queue.size()) g.prefetch_out_row(queue[i + dist]);
          // Word-level lookahead inside the row: the visited word of the
          // neighbour d slots ahead, write intent (test_and_set is next).
          g.for_each_out_neighbor_ahead(
              u, static_cast<int>(dist),
              [&state](vid_t w) {
                state.visited.prefetch_write(static_cast<std::size_t>(w));
              },
              visit);
          continue;
        }
      }
      g.for_each_out_neighbor(u, visit);
    }

    // Every part is complete (the loop's barrier). Concatenate them in
    // thread-id order into the state-owned next queue, each thread
    // copying its own part to the offset its predecessors' sizes give.
#ifdef _OPENMP
#pragma omp single
#endif
    {
      std::size_t total = 0;
      for (const auto& part : local_next) total += part.size();
      next.resize(total);
    }
    std::size_t at = 0;
    for (int t = 0; t < tid; ++t) {
      at += local_next[static_cast<std::size_t>(t)].size();
    }
    std::copy(mine.begin(), mine.end(),
              next.begin() + static_cast<std::ptrdiff_t>(at));
  }

  stats.frontier_edges = frontier_edges;
  stats.next_vertices = static_cast<vid_t>(next.size());
  state.reached += stats.next_vertices;
  state.current_level = next_level;
  state.frontier_edges = next_edges;
  // Swap the merged queue in as the frontier: the old frontier's
  // storage becomes the next level's merge target — no allocation once
  // capacities plateau.
  state.frontier_queue.swap(next);
  // Catches a lost atomic claim (parent written without the level, a
  // double discovery) at the level it happened, including the straggler
  // bookkeeping this step leaves in a primed bottom-up candidate list.
  BFSX_PARANOID(state.assert_invariants(g.num_vertices()));
  BFSX_PARANOID(BFSX_CHECK_EQ(state.frontier_edges,
                              frontier_out_edges(g, state.frontier_queue)));
  return stats;
}

/// Untuned entry point: default knobs, bit-identical to the historical
/// kernel (the golden-trace test runs through here).
template <graph::GraphView V>
TopDownStats top_down_step(const V& g, BfsState& state) {
  return top_down_step(g, state, MemTuning{});
}

/// CSR entry points: forward through the zero-overhead adapter.
TopDownStats top_down_step(const CsrGraph& g, BfsState& state);
TopDownStats top_down_step(const CsrGraph& g, BfsState& state,
                           MemTuning tuning);

}  // namespace bfsx::bfs
