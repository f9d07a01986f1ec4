// Parallel bottom-up BFS level step (paper Algorithm 2, lines 6-13).
//
// Templated over graph::TransposeView (graph/view.h): bottom-up is the
// one direction that needs predecessor enumeration, so only views that
// expose `for_each_in_neighbor` — a stored transpose, or a symmetric
// graph's out-rows, since there in == out — can run it. The early-exit
// protocol (callback returns false to stop the scan) is the paper's
// "adopt the first frontier predecessor and break" (Algorithm 2 line
// 12). The historical CsrGraph overloads forward through
// graph::CsrGraphView.
//
// Candidates: the step scans a compacted list of unvisited vertices,
// not 0..n. A candidate that misses after walking zero edges has an
// empty in-row; the view is immutable for the traversal, so no level
// can ever discover it, and it leaves the list. From the first
// bottom-up level on, the list therefore holds every unvisited vertex
// whose in-row is non-empty (plus stragglers top-down visited since),
// and the |V| - reached unvisited count, not the list length, is what
// the counters report — bit-equal to a full scan's.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "bfs/frontier.h"
#include "bfs/state.h"
#include "check/contract.h"
#include "graph/view.h"

namespace bfsx::bfs {

/// Exact work counters for one bottom-up level.
struct BottomUpStats {
  vid_t frontier_vertices = 0;  // |V|cq entering the level
  /// Vertices unvisited entering the level (|V| - reached): the ones a
  /// full 0..n scan would search a parent for.
  vid_t unvisited_vertices = 0;
  /// Loop trip count of the candidate scan: the length of the compacted
  /// unvisited list (or n for an unprimed probe's full scan). Strictly
  /// shrinks level over level; the gap to n is exactly the rescan work
  /// the compacted list avoids. Diagnostic only — not a paper counter.
  vid_t candidates = 0;
  /// In-edges examined by vertices that *found* a parent (each scan
  /// breaks at its first frontier hit, Algorithm 2 line 12 — a short,
  /// cache-friendly prefix walk).
  eid_t edges_scanned_hit = 0;
  /// In-edges examined by vertices that walked their whole predecessor
  /// list without finding a frontier member. These full failed scans
  /// dominate the early levels and are what makes bottom-up so
  /// expensive there (97% of GPUBU time in the paper's Table IV).
  eid_t edges_scanned_miss = 0;
  vid_t next_vertices = 0;

  [[nodiscard]] eid_t edges_scanned() const noexcept {
    return edges_scanned_hit + edges_scanned_miss;
  }
};

/// Advances `state` by one level using the bottom-up direction: every
/// unvisited vertex searches its in-neighbours for one that is in the
/// current frontier and adopts it as parent (Algorithm 2 lines 7-12).
/// Parallelised over vertices; no atomics are needed for the maps
/// because each candidate vertex is written by exactly one owner thread.
///
/// Zero-rescan: instead of sweeping 0..n every level, the kernel
/// iterates state.unvisited — primed on the first bottom-up level by a
/// popcount-prefix decode of the clear visited bits, then compacted as
/// vertices are discovered or found to have an empty in-row. The list
/// is scanned in fixed blocks of kCompactBlock candidates; each block
/// keeps its misses that walked an edge in order at its start and its
/// discoveries in order at its end, so one prefix sum and one parallel
/// scatter (gather_blocks) yield both the compacted list and the
/// ascending next frontier queue — identical for every team size. The
/// visited fold is a word-wise OR, the outgoing frontier's bitmap is
/// cleared and recycled as the next scratch, and the discoveries'
/// out-degrees are summed into state.frontier_edges, so no loop is
/// serial in |V|, the candidate count or the frontier, and steady-state
/// levels allocate nothing. All counters (|V|cq, unvisited,
/// edges-scanned hit/miss, next) are bit-equal to the full-scan
/// kernel's, and each parent is the first frontier in-neighbour in row
/// order.
template <graph::TransposeView V>
BottomUpStats bottom_up_step(const V& g, BfsState& state) {
  BottomUpStats stats;
  stats.frontier_vertices = static_cast<vid_t>(state.frontier_queue.size());
  stats.unvisited_vertices = g.num_vertices() - state.reached;

  const std::int32_t next_level = state.current_level + 1;
  if (!state.unvisited_primed) {
    decode_bits(state.visited, /*complement=*/true, state.unvisited,
                state.spans);
    state.unvisited_primed = true;
  }

  // Reused scratch; all-zero on entry (constructor + the clear at the
  // end of every step maintain the invariant). A dirty scratch silently
  // resurrects a previous frontier into this level's discoveries, so
  // paranoid builds verify it every step.
  BFSX_PARANOID(BFSX_CHECK(state.bu_scratch.none())
                << "bu_scratch dirty on bottom_up_step entry (first set bit "
                << state.bu_scratch.find_first() << ")");
  BFSX_CHECK_EQ(state.bu_scratch.size(),
                static_cast<std::size_t>(g.num_vertices()));
  Bitmap& next = state.bu_scratch;

  vid_t* const cand = state.unvisited.data();
  const std::size_t ncand = state.unvisited.size();
  stats.candidates = static_cast<vid_t>(ncand);
  std::vector<BlockSpan>& spans = state.spans;
  spans.resize(compact_blocks(ncand));
  const auto nblocks = static_cast<std::int64_t>(spans.size());

  eid_t scanned_hit = 0;
  eid_t scanned_miss = 0;
  vid_t found = 0;
  eid_t next_edges = 0;

#ifdef _OPENMP
#pragma omp parallel if (nblocks > 1) \
    reduction(+ : scanned_hit, scanned_miss, found, next_edges)
#endif
  {
#ifdef _OPENMP
#pragma omp for schedule(dynamic, 1)
#endif
    for (std::int64_t b = 0; b < nblocks; ++b) {
      const std::size_t lo = static_cast<std::size_t>(b) * kCompactBlock;
      const std::size_t hi = std::min(ncand, lo + kCompactBlock);
      // The block's discoveries wait here until its scan is done: only
      // then is its tail free to hold them.
      std::array<vid_t, kCompactBlock> discovered;
      std::size_t kept = lo;
      std::size_t nfound = 0;
      for (std::size_t i = lo; i < hi; ++i) {
        const vid_t v = cand[i];
        // Stragglers an interleaved top-down step visited since the
        // list was last compacted: dropped, and skipping them keeps
        // every counter equal to the full 0..n scan's.
        if (state.visited.test(static_cast<std::size_t>(v))) continue;
        // Algorithm 2 lines 9-12: scan predecessors, adopt the first
        // one found in the current frontier, then stop (the callback
        // returns false).
        vid_t from = kNoVertex;
        eid_t walked = 0;
        g.for_each_in_neighbor(v, [&state, &walked, &from](vid_t u) {
          ++walked;
          if (!state.frontier_bitmap.test(static_cast<std::size_t>(u))) {
            return true;
          }
          from = u;
          return false;
        });
        if (from == kNoVertex) {
          scanned_miss += walked;
          // Still unvisited: stays a candidate, unless its in-row is
          // empty and no level can ever discover it.
          if (walked != 0) cand[kept++] = v;
          continue;
        }
        scanned_hit += walked;
        state.parent[static_cast<std::size_t>(v)] = from;
        state.level[static_cast<std::size_t>(v)] = next_level;
        next.set_atomic(static_cast<std::size_t>(v));
        next_edges += g.out_degree(v);
        discovered[nfound++] = v;
      }
      std::copy_n(discovered.data(), nfound, cand + (hi - nfound));
      spans[static_cast<std::size_t>(b)] = {.front = kept - lo,
                                            .back = nfound};
      found += static_cast<vid_t>(nfound);
    }
    gather_blocks(cand, ncand, spans, state.unvisited_spare,
                  &state.frontier_queue);
  }

  // Fold the discoveries into the visited set. Deferring this to after
  // the scan keeps the level semantics exact: a vertex discovered this
  // level must not act as a parent within the same level.
  state.visited |= next;
  state.unvisited.swap(state.unvisited_spare);

  stats.edges_scanned_hit = scanned_hit;
  stats.edges_scanned_miss = scanned_miss;
  stats.next_vertices = found;
  state.reached += found;
  state.current_level = next_level;
  state.frontier_edges = next_edges;
  // The outgoing frontier's bitmap, cleared, becomes the next level's
  // scratch; the gather above already wrote the new frontier queue.
  state.frontier_bitmap.reset();
  state.frontier_bitmap.swap(next);
  // The clear and the compaction must restore every inter-step
  // invariant (scratch all-clear, candidate list complete); state-level
  // validation at each step makes a broken one fail here, at its
  // source, instead of levels later.
  BFSX_PARANOID(state.assert_invariants(g));
  BFSX_PARANOID(BFSX_CHECK_EQ(state.frontier_edges,
                              frontier_out_edges(g, state.frontier_queue)));
  return stats;
}

/// Counting-only variant: computes exactly the statistics a bottom-up
/// step *would* produce from the current state, without mutating it.
/// LevelTrace (src/core) uses this to record both directions' work at
/// every level in a single traversal, which is what makes exhaustive
/// switching-point search affordable (DESIGN.md §5.1).
template <graph::TransposeView V>
[[nodiscard]] BottomUpStats bottom_up_probe(const V& g,
                                            const BfsState& state) {
  BottomUpStats stats;
  stats.frontier_vertices = static_cast<vid_t>(state.frontier_queue.size());

  const vid_t n = g.num_vertices();
  stats.unvisited_vertices = n - state.reached;
  eid_t scanned_hit = 0;
  eid_t scanned_miss = 0;
  vid_t found = 0;

  // Probe one candidate without mutating anything; reads only shared
  // immutable state, so the counter updates below stay inside the
  // OpenMP reduction scope. walked == -1 flags an already-visited
  // straggler.
  struct Probe {
    eid_t walked;
    bool hit;
  };
  const auto probe_one = [&g, &state](vid_t v) -> Probe {
    if (state.visited.test(static_cast<std::size_t>(v))) return {-1, false};
    eid_t walked = 0;
    bool hit = false;
    g.for_each_in_neighbor(v, [&state, &walked, &hit](vid_t u) {
      ++walked;
      if (state.frontier_bitmap.test(static_cast<std::size_t>(u))) {
        hit = true;
        return false;
      }
      return true;
    });
    return {walked, hit};
  };

  if (state.unvisited_primed) {
    // A bottom-up step already primed the candidate list; probing it
    // (stragglers skip via the visited test, and the vertices it lacks
    // have empty in-rows, which walk nothing) yields the exact counters
    // of a full scan at a fraction of the iterations.
    const auto& cand = state.unvisited;
    const std::size_t ncand = cand.size();
    stats.candidates = static_cast<vid_t>(ncand);
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic, 1024) \
    reduction(+ : scanned_hit, scanned_miss, found)
#endif
    for (std::size_t i = 0; i < ncand; ++i) {
      const Probe p = probe_one(cand[i]);
      if (p.walked < 0) continue;
      if (p.hit) {
        ++found;
        scanned_hit += p.walked;
      } else {
        scanned_miss += p.walked;
      }
    }
  } else {
    stats.candidates = n;
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic, 1024) \
    reduction(+ : scanned_hit, scanned_miss, found)
#endif
    for (vid_t v = 0; v < n; ++v) {
      const Probe p = probe_one(v);
      if (p.walked < 0) continue;
      if (p.hit) {
        ++found;
        scanned_hit += p.walked;
      } else {
        scanned_miss += p.walked;
      }
    }
  }

  stats.edges_scanned_hit = scanned_hit;
  stats.edges_scanned_miss = scanned_miss;
  stats.next_vertices = found;
  return stats;
}

/// CSR entry points: forward through the zero-overhead adapter.
BottomUpStats bottom_up_step(const CsrGraph& g, BfsState& state);
[[nodiscard]] BottomUpStats bottom_up_probe(const CsrGraph& g,
                                            const BfsState& state);

}  // namespace bfsx::bfs
