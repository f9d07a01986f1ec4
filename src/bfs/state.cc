#include "bfs/state.h"

#include <algorithm>

#include "check/contract.h"
#include "graph/uninit_vector.h"

namespace bfsx::bfs {

void BfsState::reset(vid_t num_vertices, vid_t root) {
  BFSX_CHECK(root >= 0 && root < num_vertices)
      << "BFS root " << root << " out of range [0, " << num_vertices << ")";
  const auto n = static_cast<std::size_t>(num_vertices);
  // Pool-reuse path: same-size maps are refilled with a thread-chunked
  // parallel fill; the growth path keeps the plain assign, which must
  // reallocate anyway.
  if (parent.size() == n) {
    graph::parallel_fill(parent.data(), n, kNoVertex);
  } else {
    parent.assign(n, kNoVertex);
  }
  if (level.size() == n) {
    graph::parallel_fill(level.data(), n, std::int32_t{-1});
  } else {
    level.assign(n, -1);
  }
  visited.resize_and_reset(n);
  frontier_queue.clear();
  frontier_bitmap.resize_and_reset(n);
  frontier_edges = -1;
  unvisited.clear();
  unvisited_spare.clear();
  unvisited_primed = false;
  bu_scratch.resize_and_reset(n);
  td_offsets.clear();
  for (auto& part : td_local_next) part.items.clear();
  td_next.clear();
  current_level = 0;
  parent[static_cast<std::size_t>(root)] = root;
  level[static_cast<std::size_t>(root)] = 0;
  visited.set(static_cast<std::size_t>(root));
  frontier_queue.push_back(root);
  frontier_bitmap.set(static_cast<std::size_t>(root));
  reached = 1;
}

void BfsState::check_invariants(
    vid_t num_vertices, const std::function<bool(vid_t)>& has_in_edge,
    check::CheckReport& report) const {
  const auto n = static_cast<std::size_t>(num_vertices);
  if (parent.size() != n || level.size() != n || visited.size() != n) {
    report.failf() << "map sizes (parent " << parent.size() << ", level "
                   << level.size() << ", visited " << visited.size()
                   << ") do not match |V| = " << n;
    return;  // nothing below can index safely
  }

  // Per-vertex agreement of the three reachability encodings.
  vid_t at_current = 0;
  for (std::size_t v = 0; v < n && report.wants_more(); ++v) {
    const vid_t p = parent[v];
    const std::int32_t lv = level[v];
    if ((p == kNoVertex) != (lv < 0)) {
      report.failf() << "vertex " << v << ": parent (" << p << ") and level ("
                     << lv << ") disagree about reachability";
      continue;
    }
    if (visited.test(v) != (lv >= 0)) {
      report.failf() << "vertex " << v << ": visited bit is "
                     << visited.test(v) << " but level is " << lv;
      continue;
    }
    if (lv < 0) continue;
    if (lv > current_level) {
      report.failf() << "vertex " << v << ": level " << lv
                     << " exceeds current_level " << current_level;
    }
    if (lv == current_level) ++at_current;
    if (p < 0 || static_cast<std::size_t>(p) >= n) {
      report.failf() << "vertex " << v << ": parent " << p
                     << " out of range [0, " << n << ")";
      continue;
    }
    if (static_cast<std::size_t>(p) == v) {
      if (lv != 0) {
        report.failf() << "vertex " << v << ": self-parented at level " << lv
                       << " (only the root, at level 0, may self-parent)";
      }
    } else if (level[static_cast<std::size_t>(p)] != lv - 1) {
      report.failf() << "vertex " << v << ": level " << lv
                     << " is not parent " << p << "'s level "
                     << level[static_cast<std::size_t>(p)] << " + 1";
    }
  }

  const auto visited_count = static_cast<vid_t>(visited.count());
  if (reached != visited_count) {
    report.failf() << "reached = " << reached
                   << " does not match visited population " << visited_count;
  }

  // Frontier: both representations hold exactly the current level set.
  if (frontier_bitmap.size() != n) {
    report.failf() << "frontier bitmap sized " << frontier_bitmap.size()
                   << ", expected " << n;
  } else {
    if (frontier_bitmap.count() != frontier_queue.size()) {
      report.failf() << "frontier queue (" << frontier_queue.size()
                     << " vertices) and bitmap (" << frontier_bitmap.count()
                     << " bits) disagree";
    }
    for (vid_t v : frontier_queue) {
      if (!report.wants_more()) break;
      if (v < 0 || static_cast<std::size_t>(v) >= n) {
        report.failf() << "frontier queue entry " << v << " out of range";
        continue;
      }
      if (!frontier_bitmap.test(static_cast<std::size_t>(v))) {
        report.failf() << "frontier vertex " << v << " missing from bitmap";
      }
      if (level[static_cast<std::size_t>(v)] != current_level) {
        report.failf() << "frontier vertex " << v << " is at level "
                       << level[static_cast<std::size_t>(v)]
                       << ", not current_level " << current_level;
      }
    }
    if (static_cast<vid_t>(frontier_queue.size()) != at_current &&
        report.wants_more()) {
      report.failf() << "frontier holds " << frontier_queue.size()
                     << " vertices but " << at_current << " are at level "
                     << current_level;
    }
  }

  // Zero-rescan invariants from the compacted bottom-up kernel.
  if (!bu_scratch.none()) {
    report.failf() << "bu_scratch dirty between steps (first set bit "
                   << bu_scratch.find_first() << " of "
                   << bu_scratch.count() << ")";
  }
  if (unvisited_primed) {
    for (std::size_t i = 1; i < unvisited.size() && report.wants_more(); ++i) {
      if (unvisited[i - 1] >= unvisited[i]) {
        report.failf() << "unvisited list not strictly ascending at index "
                       << i << " (" << unvisited[i - 1]
                       << " >= " << unvisited[i] << ")";
      }
    }
    // Superset walk: every not-yet-visited vertex with an in-edge must
    // appear. The list is ascending, so one merge pass suffices.
    std::size_t cursor = 0;
    for (std::size_t v = 0; v < n && report.wants_more(); ++v) {
      if (visited.test(v) || !has_in_edge(static_cast<vid_t>(v))) continue;
      while (cursor < unvisited.size() &&
             static_cast<std::size_t>(unvisited[cursor]) < v) {
        ++cursor;  // stragglers (already visited) are legal
      }
      if (cursor >= unvisited.size() ||
          static_cast<std::size_t>(unvisited[cursor]) != v) {
        report.failf() << "unvisited vertex " << v
                       << " missing from the candidate list (superset "
                          "invariant broken)";
      }
    }
  }
}

}  // namespace bfsx::bfs
