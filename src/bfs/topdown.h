// Parallel top-down BFS level step (paper Algorithm 1, lines 6-13).
//
// The kernel is a template over any graph::GraphView (graph/view.h), so
// the identical loop runs on flat CSR storage (through
// graph::CsrGraphView), compressed rows and delta-CSR epochs. The
// historical CsrGraph overload below forwards through the adapter,
// which keeps every existing call site source-compatible and makes CSR
// bit-equality structural rather than promised.
//
// Work is dealt out by edges, not by vertices. The M/N rule runs
// top-down exactly where the frontier is small — the root's
// neighbourhood and the tail — and on scale-free graphs those few
// vertices are hubs, so a per-vertex schedule leaves such a level on
// one thread. Instead the frontier's rows, laid end to end, are cut
// into pieces of kPieceEdges edges (bfs/frontier.h), and threads take
// pieces: a view with contiguous rows (graph::RowView) splits a hub row
// over the team; other views run the same loop with each row whole.
//
// The parent map depends only on the graph and the root: the visited
// set is read-only while a level runs, the claim that enqueues a vertex
// goes to the next-frontier bitmap, and parent[v] is the smallest-id
// frontier vertex with an edge to v — an atomic min — which on views
// with ascending rows is also the first frontier in-neighbour the
// bottom-up kernel adopts. Which thread claims v, and so the order of
// the next queue, still follows the schedule.
//
// Scratch discipline: the frontier's degree prefix, the per-thread
// discovery buffers and the merged next queue live in BfsState
// (td_offsets / td_local_next / td_next), so steady-state levels
// perform no allocation — the buffers reach their high-water capacity
// after the widest level and are recycled by the queue-swap at the end
// of each step (test_bfs_kernels' TopDownScratch cases pin this).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "bfs/frontier.h"
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

namespace detail {

/// Lowers `slot` to `u` when u is the smaller id, reading kNoVertex
/// (-1, all ones unsigned) as +infinity, so the first candidate always
/// lands and every later one only ever lowers it.
inline void lower_parent(vid_t& slot, vid_t u) noexcept {
  std::atomic_ref<vid_t> parent(slot);
  // mem-order: relaxed — a minimum needs no ordering: the value only
  // falls, a stale read merely sends the CAS below around once more,
  // and the map is read only after the barrier that ends the level.
  vid_t cur = parent.load(std::memory_order_relaxed);
  while (static_cast<std::uint32_t>(u) < static_cast<std::uint32_t>(cur) &&
         // mem-order: relaxed — see the load above; a failed exchange
         // reloads `cur` and the loop re-tests it.
         !parent.compare_exchange_weak(cur, u, std::memory_order_relaxed)) {
  }
}

}  // namespace detail

/// Advances `state` by one level using the top-down direction: every
/// frontier vertex offers itself as parent to its unvisited
/// out-neighbours (Algorithm 1 lines 7-12). Parallelised over pieces of
/// kPieceEdges frontier edges with OpenMP. `visited` is only read
/// during the level; each neighbour it does not hold gets the smallest
/// offering frontier vertex as parent (atomic min), and is claimed —
/// level written, queued, its out-degree added to the carried |E|cq
/// (state.frontier_edges) — by whichever thread first sets its
/// next-frontier bit. After the loop's barrier the next-frontier bitmap
/// is folded into `visited` word-wise, as the bottom-up kernel does,
/// and each thread copies its own discoveries into the merged queue. The
/// degree prefix that cuts the pieces is a blocked parallel pass, so no
/// loop is serial in the frontier; a level of one piece runs on the
/// calling thread.
///
/// Parents, levels, counters and the next frontier's vertex set are
/// identical for every team size, nested 1-thread teams included; the
/// order of the next queue is the schedule's.
///
/// On return the state's frontier (queue + bitmap), visited set, parent
/// and level maps, carried |E|cq, current_level, and reached count are
/// all updated.
template <graph::GraphView V>
TopDownStats top_down_step(const V& g, BfsState& state) {
  TopDownStats stats;
  const std::vector<vid_t>& queue = state.frontier_queue;
  const std::size_t count = queue.size();
  stats.frontier_vertices = static_cast<vid_t>(count);
  const std::int32_t next_level = state.current_level + 1;

#ifdef _OPENMP
  const int num_threads = omp_get_max_threads();
#else
  const int num_threads = 1;
#endif
  auto& local_next = state.td_local_next;
  if (local_next.size() < static_cast<std::size_t>(num_threads)) {
    local_next.resize(static_cast<std::size_t>(num_threads));
  }
  for (auto& part : local_next) part.items.clear();  // capacity retained
  auto& next = state.td_next;
  next.clear();
  stats.frontier_edges = prefix_offsets(
      count, [&g, &queue](std::size_t i) { return g.out_degree(queue[i]); },
      state.td_offsets, state.spans);
  const eid_t* const offsets = state.td_offsets.data();
  const std::int64_t pieces = piece_count(stats.frontier_edges);
  // Top-down never reads the frontier bitmap, so it becomes the claim
  // map of the frontier under construction.
  Bitmap& claimed = state.frontier_bitmap;
  claimed.reset();

  // The out-degrees of the vertices this level discovers: the next
  // frontier's |E|cq.
  eid_t next_edges = 0;

  // A level of one piece runs on the calling thread.
#ifdef _OPENMP
#pragma omp parallel if (pieces > 1) reduction(+ : next_edges)
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
    auto& mine = local_next[static_cast<std::size_t>(tid)].items;
#ifdef _OPENMP
#pragma omp for schedule(dynamic, 1)
#endif
    for (std::int64_t p = 0; p < pieces; ++p) {
      expand_piece(g, queue, offsets, p,
                   [&g, &state, &queue, &claimed, &mine, &next_edges,
                    next_level](std::size_t i, vid_t v) {
                     const auto vi = static_cast<std::size_t>(v);
                     // Algorithm 1 line 9: visited check. No thread
                     // writes `visited` until the level ends.
                     if (state.visited.test(vi)) return;
                     detail::lower_parent(state.parent[vi], queue[i]);
                     // The claim: one thread per vertex writes its level
                     // and queues it; a set bit read relaxed is final.
                     if (claimed.test_relaxed(vi) ||
                         !claimed.test_and_set_atomic(vi)) {
                       return;
                     }
                     state.level[vi] = next_level;
                     next_edges += g.out_degree(v);
                     mine.push_back(v);
                   });
    }

    // Every claim has landed (the loop's barrier), so this level's
    // discoveries may now count as visited: folded word-wise, as
    // bottom-up does, and complete at the single's barrier below.
    state.visited.or_words(claimed);

    // Every part is complete. Concatenate them in thread-id order into
    // the state-owned next queue, each thread copying its own part to
    // the offset its predecessors' sizes give.
#ifdef _OPENMP
#pragma omp single
#endif
    {
      std::size_t total = 0;
      for (const auto& part : local_next) total += part.items.size();
      next.resize(total);
    }
    std::size_t at = 0;
    for (int t = 0; t < tid; ++t) {
      at += local_next[static_cast<std::size_t>(t)].items.size();
    }
    std::copy(mine.begin(), mine.end(),
              next.begin() + static_cast<std::ptrdiff_t>(at));
  }

  stats.next_vertices = static_cast<vid_t>(next.size());
  state.reached += stats.next_vertices;
  state.current_level = next_level;
  state.frontier_edges = next_edges;
  // Swap the merged queue in as the frontier: the old frontier's
  // storage becomes the next level's merge target — no allocation once
  // capacities plateau.
  state.frontier_queue.swap(next);
  // Catches a lost claim (parent written without the level, a double
  // discovery) at the level it happened, including the straggler
  // bookkeeping this step leaves in a primed bottom-up candidate list.
  BFSX_PARANOID(state.assert_invariants(g));
  BFSX_PARANOID(BFSX_CHECK_EQ(state.frontier_edges,
                              frontier_out_edges(g, state.frontier_queue)));
  return stats;
}

/// CSR entry point: forwards through the zero-overhead adapter.
TopDownStats top_down_step(const CsrGraph& g, BfsState& state);

}  // namespace bfsx::bfs
