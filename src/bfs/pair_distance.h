// Point-to-point BFS distance by bidirectional search (Pohl,
// "Bi-directional Search", 1971).
//
// A distance query reads one cell of its source's level map, yet a
// single-source traversal fills the whole map. Two level-synchronous
// searches, one forward from the source over out-rows and one backward
// from the target over in-rows, meet in the middle instead. Each round
// expands the whole frontier of the side whose frontier has fewer
// edges, the same "top-down while the frontier is small" reasoning as
// the paper's M/N rule, so both frontiers stay small: on scale-18 R-MAT
// a query walks about a thousand edges where a traversal walks millions.
//
// Exactness: before a round, no vertex carries both sides' labels, so
// every vertex within d_s of the source is disjoint from every vertex
// within d_t of the target and the distance is at least d_s + d_t + 1.
// Every meeting the round finds joins the expanded frontier (level d_s)
// to the other side's frontier (level d_t), since a meeting with an
// earlier level of the other side would have been found when that level
// was expanded. The first meeting therefore proves d_s + 1 + d_t.
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/types.h"
#include "graph/view.h"

namespace bfsx::bfs {

/// The working set of pair_distance, owned by one thread and reused
/// across queries. Side 0 searches from the source, side 1 towards the
/// target. `label[side][v]` is v's level on that side, or -1; `queue`
/// lists every vertex the side labelled, in level order. Between
/// queries only queued vertices carry labels, so the next query resets
/// exactly those instead of clearing O(V) entries.
struct PairScratch {
  std::array<std::vector<std::int32_t>, 2> label;
  std::array<std::vector<graph::vid_t>, 2> queue;
};

/// The BFS distance from `s` to `t` (following out-edges), or -1 when
/// no path exists; s == t gives 0. Serial. Throws std::invalid_argument
/// when `s` or `t` is not a vertex of `g`. `scratch` grows to
/// num_vertices() on demand and may be reused across graphs. The view
/// also needs `in_degree(v)`, the target side's weight of v.
template <graph::TransposeView V>
[[nodiscard]] std::int32_t pair_distance(const V& g, graph::vid_t s,
                                         graph::vid_t t,
                                         PairScratch& scratch) {
  using graph::eid_t;
  using graph::vid_t;
  const vid_t n = g.num_vertices();
  for (const vid_t v : {s, t}) {
    if (v < 0 || v >= n) {
      throw std::invalid_argument("pair_distance: vertex " +
                                  std::to_string(v) + " out of range [0, " +
                                  std::to_string(n) + ")");
    }
  }
  for (std::size_t side = 0; side < 2; ++side) {
    std::vector<std::int32_t>& label = scratch.label[side];
    for (const vid_t v : scratch.queue[side]) {
      label[static_cast<std::size_t>(v)] = -1;
    }
    scratch.queue[side].clear();
    if (label.size() < static_cast<std::size_t>(n)) {
      label.resize(static_cast<std::size_t>(n), -1);
    }
  }
  if (s == t) return 0;

  // A vertex is queued before it is labelled, so an exception leaves
  // no label the next query's reset would miss.
  std::array<std::size_t, 2> begin{};   // start of each side's frontier
  std::array<std::int32_t, 2> depth{};  // level of each side's frontier
  std::array<eid_t, 2> edges = {g.out_degree(s), g.in_degree(t)};
  for (std::size_t side = 0; side < 2; ++side) {
    const vid_t root = side == 0 ? s : t;
    scratch.queue[side].push_back(root);
    scratch.label[side][static_cast<std::size_t>(root)] = 0;
  }

  for (;;) {
    const std::size_t side = edges[0] <= edges[1] ? 0 : 1;
    std::vector<vid_t>& queue = scratch.queue[side];
    std::vector<std::int32_t>& mine = scratch.label[side];
    const std::vector<std::int32_t>& theirs = scratch.label[1 - side];
    const std::size_t end = queue.size();
    const std::int32_t next = depth[side] + 1;
    std::int32_t met = -1;
    eid_t next_edges = 0;
    const auto visit = [&](vid_t w) {
      const auto wi = static_cast<std::size_t>(w);
      if (theirs[wi] >= 0) {
        met = next + theirs[wi];
        return false;
      }
      if (mine[wi] < 0) {
        queue.push_back(w);
        mine[wi] = next;
        next_edges += side == 0 ? g.out_degree(w) : g.in_degree(w);
      }
      return true;
    };
    for (std::size_t i = begin[side]; i < end && met < 0; ++i) {
      if (side == 0) {
        g.for_each_out_neighbor(queue[i], [&](vid_t w) {
          if (met < 0) visit(w);
        });
      } else {
        g.for_each_in_neighbor(queue[i], visit);
      }
    }
    if (met >= 0) return met;
    if (queue.size() == end) return -1;  // this side's component is done
    begin[side] = end;
    depth[side] = next;
    edges[side] = next_edges;
  }
}

}  // namespace bfsx::bfs
