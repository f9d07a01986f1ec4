// Bit-parallel multi-source BFS (MS-BFS).
//
// The Graph 500 protocol (kernel 2) and the offline trainer both run
// *many* BFS roots over one graph. Traversing them one at a time walks
// the whole edge set once per root; MS-BFS walks it once per *level*
// for up to 64 roots at a time by packing one traversal lane per bit of
// a std::uint64_t. Per vertex the kernel keeps a 64-lane visited mask
// and frontier mask; a single AND/ANDN word op advances all lanes of an
// edge at once ("The More the Merrier: Efficient Multi-Source Graph
// Traversal", Then et al., VLDB 2015 — referenced via PAPERS.md's
// frontier-reuse line of work).
//
// Lane semantics are exactly 64 independent level-synchronous BFSs:
// per-lane distances are bit-equal to reference_bfs, and the per-lane
// |V|cq / |E|cq counters match the single-source LevelTrace, so the
// paper's M/N switching rule stays exact per root. Parents are valid
// BFS parents; bottom-up levels pick them deterministically, but a
// top-down level gives each lane bit to the thread that claims it
// first, so unlike the single-source kernels' parents they depend on
// the schedule (levels never do).
//
// A pass records only what its caller reads (MsBfsRequest): a full
// tree, or a level row in caller storage. A lane leaves the traversal
// — the `live` mask every step reads — as soon as its frontier
// empties.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "bfs/frontier.h"
#include "bfs/state.h"
#include "check/contract.h"
#include "graph/bitmap.h"
#include "graph/uninit_vector.h"
#include "graph/view.h"

namespace bfsx::bfs {

/// Lane capacity of one MS-BFS pass: one traversal per bit of the
/// per-vertex std::uint64_t masks.
inline constexpr int kMsBfsMaxLanes = 64;

struct MsBfsOptions {
  enum class Mode {
    kAuto,      ///< M/N rule on the aggregate (union) frontier per level
    kTopDown,   ///< force top-down every level
    kBottomUp,  ///< force bottom-up every level
  };
  Mode mode = Mode::kAuto;
  /// The paper's switching knobs, applied to the union frontier: run
  /// top-down while |E|cq < |E|/M and |V|cq < |V|/N. The union is the
  /// work a level actually does (each active vertex is expanded once
  /// regardless of how many lanes it carries).
  double m = 14.0;
  double n = 24.0;
};

/// What one lane of a pass records for its caller.
struct MsLane {
  enum class Record {
    kTree,  ///< parent and level maps, totals, and per-level counters
    kRow,   ///< the level map only, written into `row`
  };
  graph::vid_t root = 0;
  Record record = Record::kTree;
  /// kRow only: caller storage of num_vertices() cells. The pass writes
  /// every cell: the vertex's level, or -1 when unreached.
  std::span<std::int32_t> row;
};

/// One pass: its lanes, each a root and what it records.
struct MsBfsRequest {
  std::vector<MsLane> lanes;
};

/// Per-lane per-level work counters — the same quantities LevelTrace
/// records for a single-source traversal, counted from a tree lane's
/// level map.
struct MsLaneLevel {
  std::int32_t level = 0;
  graph::vid_t frontier_vertices = 0;  // |V|cq for this lane
  graph::eid_t frontier_edges = 0;     // |E|cq for this lane
  graph::vid_t next_vertices = 0;
};

/// Union-frontier record of one executed level: the counters the
/// direction decision saw and the direction it chose.
struct MsUnionLevel {
  std::int32_t level = 0;
  Direction direction = Direction::kTopDown;
  graph::vid_t frontier_vertices = 0;  // distinct vertices live lanes carry
  graph::eid_t frontier_edges = 0;     // out-edges of the union frontier
  graph::vid_t next_vertices = 0;      // distinct vertices discovered
  double seconds = 0.0;                // measured wall time of the level
};

struct MsBfsResult {
  /// One entry per lane, in request order. kTree lanes hold a full
  /// BfsResult; other lanes an empty one. Duplicate roots yield
  /// independent (identical-level) lanes.
  std::vector<BfsResult> per_root;
  /// lane_levels[i] holds tree lane i's per-level counters (empty for
  /// other lanes), one entry per level its frontier was non-empty,
  /// exactly like a single-source traversal's level log.
  std::vector<std::vector<MsLaneLevel>> lane_levels;
  /// Union-frontier summary of every executed level.
  std::vector<MsUnionLevel> levels;
  std::int32_t depth = 0;  // union depth: levels executed by the batch
  int direction_switches = 0;
};

namespace detail {

/// Per-pass working set. Lane l of every mask word is root l's
/// traversal; `seen` is the 64-lane visited map, `visit` the current
/// frontier, `visit_next` the one under construction, and `discovered`
/// marks the vertices `visit_next` gained a bit at — the next active
/// list. Parent/level pointers index straight into the caller-visible
/// maps so discovery writes them with no extraction pass; parent is
/// null for row lanes, which record levels only.
struct MsLaneState {
  std::vector<std::uint64_t> seen;
  std::vector<std::uint64_t> visit;
  std::vector<std::uint64_t> visit_next;
  graph::Bitmap discovered;
  std::array<graph::vid_t*, kMsBfsMaxLanes> parent{};
  std::array<std::int32_t*, kMsBfsMaxLanes> level{};
  std::uint64_t live = 0;  // lanes still traversing
  /// Top-down piece offsets over the active list (bfs/frontier.h), and
  /// per-block scratch shared by that prefix and the candidate filter.
  std::vector<graph::eid_t> offsets;
  std::vector<BlockSpan> spans;
};

/// Writes the lane maps of every lane in `won`.
inline void ms_record(MsLaneState& s, std::uint64_t won, std::size_t w,
                      graph::vid_t from, std::int32_t next_level) {
  while (won != 0) {
    const auto l = static_cast<std::size_t>(std::countr_zero(won));
    won &= won - 1;
    s.level[l][w] = next_level;
    if (s.parent[l] != nullptr) s.parent[l][w] = from;
  }
}

/// Expands the union frontier top-down, dealt out like the
/// single-source kernel in pieces of kPieceEdges edges of the active
/// rows, so the hub roots of a landmark batch spread over the team. Threads race to
/// claim lanes of a neighbour with one fetch_or on its `seen` word; the
/// winner of each bit — and only the winner — writes that lane's
/// parent/level entry, so the stores are per-(lane, vertex) exclusive.
/// Which thread wins, and so which parent a lane records, depends on
/// the schedule, but *whether* a lane is claimed at this level does
/// not: a lane bit is claimable iff some frontier vertex carries it,
/// which is fixed before the step starts. Levels and counters are
/// therefore thread-count invariant.
template <graph::GraphView V>
void ms_top_down_step(const V& g, const std::vector<graph::vid_t>& active,
                      MsLaneState& s, std::int32_t next_level) {
  const auto carried = [&s, &active](std::size_t i) {
    return s.visit[static_cast<std::size_t>(active[i])] & s.live;
  };
  const std::int64_t pieces = piece_count(prefix_offsets(
      active.size(),
      [&g, &active, &carried](std::size_t i) -> graph::eid_t {
        return carried(i) != 0 ? g.out_degree(active[i]) : 0;
      },
      s.offsets, s.spans));
  const graph::eid_t* const offsets = s.offsets.data();
#pragma omp parallel for schedule(dynamic, 1) if (pieces > 1)
  for (std::int64_t p = 0; p < pieces; ++p) {
    expand_piece(g, active, offsets, p, [&](std::size_t i, graph::vid_t w) {
      const auto wi = static_cast<std::size_t>(w);
      std::atomic_ref<std::uint64_t> seen_w(s.seen[wi]);
      // mem-order: relaxed — advisory pre-filter only; a stale load can
      // merely let a lane through to the fetch_or below, which
      // re-validates, so no ordering is consumed from this read.
      const std::uint64_t cand =
          carried(i) & ~seen_w.load(std::memory_order_relaxed);
      if (cand == 0) return;  // stale-load misses retry via fetch_or
      // mem-order: relaxed — the RMW's atomicity elects one winner per
      // lane bit; the winner's parent/level stores are read by other
      // threads only after the parallel-for's implicit barrier, which
      // already sequences them (no acquire/release needed).
      const std::uint64_t old =
          seen_w.fetch_or(cand, std::memory_order_relaxed);
      const std::uint64_t won = cand & ~old;
      if (won == 0) return;
      // mem-order: relaxed — independent bit accumulation; visit_next
      // is only swapped into the read role after the level barrier.
      // The one claim that finds the word empty lists `w` as active.
      const std::uint64_t before =
          std::atomic_ref<std::uint64_t>(s.visit_next[wi])
              .fetch_or(won, std::memory_order_relaxed);
      if (before == 0) s.discovered.set_atomic(wi);
      ms_record(s, won, wi, active[i], next_level);
    });
  }
}

/// Expands bottom-up: every candidate some live lane has not seen scans
/// its in-neighbours and adopts, per still-missing lane, the first one
/// carrying that lane's frontier bit. Each iteration owns its candidate
/// exclusively — `seen`/`visit_next` writes need no atomics, and with
/// the in-adjacency enumerated in the view's deterministic (sorted)
/// order the chosen parents are fully deterministic.
template <graph::TransposeView V>
void ms_bottom_up_step(const V& g,
                       std::span<const graph::vid_t> candidates,
                       MsLaneState& s, std::int32_t next_level) {
  const auto count = static_cast<std::int64_t>(candidates.size());
#pragma omp parallel for schedule(dynamic, 1024)
  for (std::int64_t i = 0; i < count; ++i) {
    const graph::vid_t w = candidates[static_cast<std::size_t>(i)];
    const auto wi = static_cast<std::size_t>(w);
    std::uint64_t rem = s.live & ~s.seen[wi];
    if (rem == 0) continue;  // straggler a previous level completed
    std::uint64_t acc = 0;
    g.for_each_in_neighbor(w, [&](graph::vid_t u) {
      const std::uint64_t got = s.visit[static_cast<std::size_t>(u)] & rem;
      if (got == 0) return true;
      acc |= got;
      rem &= ~got;
      ms_record(s, got, wi, u, next_level);
      return rem != 0;  // all lanes adopted: stop the scan early
    });
    if (acc != 0) {
      s.visit_next[wi] = acc;
      s.seen[wi] |= acc;
      s.discovered.set_atomic(wi);  // neighbouring candidates share words
    }
  }
}

}  // namespace detail

/// Traverses up to kMsBfsMaxLanes roots simultaneously over any
/// HybridView (CSR via the adapter overload below, delta-CSR epochs,
/// compressed CSR), recording per lane only what `request` asks for.
/// Throws std::invalid_argument on an empty or oversized batch, an
/// out-of-range root, or a kRow lane whose row is not num_vertices()
/// long. Levels, counters and reached/edge totals are bit-identical for
/// every OMP_NUM_THREADS — and, for views enumerating identical sorted
/// adjacency, across representations.
template <graph::HybridView V>
[[nodiscard]] MsBfsResult ms_bfs(const V& g, const MsBfsRequest& request,
                                 const MsBfsOptions& opts = {}) {
  using graph::eid_t;
  using graph::vid_t;
  using Record = MsLane::Record;

  const vid_t n = g.num_vertices();
  const auto lanes = static_cast<int>(request.lanes.size());
  if (lanes < 1 || lanes > kMsBfsMaxLanes) {
    throw std::invalid_argument("ms_bfs: batch of " +
                                std::to_string(request.lanes.size()) +
                                " roots (want 1.." +
                                std::to_string(kMsBfsMaxLanes) + ")");
  }
  for (const MsLane& lane : request.lanes) {
    if (lane.root < 0 || lane.root >= n) {
      throw std::invalid_argument("ms_bfs: root " + std::to_string(lane.root) +
                                  " out of range [0, " + std::to_string(n) +
                                  ")");
    }
    if (lane.record == Record::kRow &&
        lane.row.size() != static_cast<std::size_t>(n)) {
      throw std::invalid_argument(
          "ms_bfs: level row of " + std::to_string(lane.row.size()) +
          " cells for " + std::to_string(n) + " vertices");
    }
  }
  BFSX_CHECK(opts.m > 0.0 && opts.n > 0.0)
      << "ms_bfs: switching parameters must be positive (M = " << opts.m
      << ", N = " << opts.n << ")";

  using Clock = std::chrono::steady_clock;
  const auto nn = static_cast<std::size_t>(n);
  MsBfsResult out;
  out.per_root.resize(static_cast<std::size_t>(lanes));
  out.lane_levels.resize(static_cast<std::size_t>(lanes));

  detail::MsLaneState s;
  s.seen.assign(nn, 0);
  s.visit.assign(nn, 0);
  s.visit_next.assign(nn, 0);
  s.discovered.resize_and_reset(nn);

  // Lane maps are the bulk of a pass's memory traffic (8 bytes per
  // vertex per tree lane), so lanes set them up in parallel.
#pragma omp parallel for schedule(static)
  for (int l = 0; l < lanes; ++l) {
    const auto li = static_cast<std::size_t>(l);
    const MsLane& lane = request.lanes[li];
    const auto ri = static_cast<std::size_t>(lane.root);
    if (lane.record == Record::kTree) {
      BfsResult& r = out.per_root[li];
      r.parent.assign(nn, kNoVertex);
      r.level.assign(nn, -1);
      r.parent[ri] = lane.root;
      s.parent[li] = r.parent.data();
      s.level[li] = r.level.data();
    } else {
      std::fill(lane.row.begin(), lane.row.end(), -1);
      s.level[li] = lane.row.data();
    }
    s.level[li][ri] = 0;
  }

  std::vector<vid_t> active;
  for (int l = 0; l < lanes; ++l) {
    const auto li = static_cast<std::size_t>(l);
    const std::uint64_t bit = std::uint64_t{1} << l;
    s.live |= bit;
    const auto ri = static_cast<std::size_t>(request.lanes[li].root);
    s.seen[ri] |= bit;
    s.visit[ri] |= bit;
    active.push_back(request.lanes[li].root);
  }
  // Duplicate roots share one active entry — their lanes simply ride
  // the same mask word.
  std::sort(active.begin(), active.end());
  active.erase(std::unique(active.begin(), active.end()), active.end());

  // Bottom-up candidate list: vertices some live lane has not seen yet.
  // Primed lazily on the first bottom-up level, then compacted like the
  // single-source kernel's zero-rescan list, by the same ordered
  // parallel filter (bfs/frontier.h) staging through `spare`.
  graph::UninitVector<vid_t> candidates;
  graph::UninitVector<vid_t> spare;
  bool candidates_primed = false;
  const auto unfinished = [&s](vid_t v) {
    return (s.seen[static_cast<std::size_t>(v)] & s.live) != s.live;
  };

  bool have_prev_dir = false;
  Direction prev_dir = Direction::kTopDown;
  auto level_start = Clock::now();

  for (;;) {
    // The union |V|cq / |E|cq over the live lanes, and which lanes
    // still have a frontier: a lane whose frontier emptied is done.
    vid_t frontier = 0;
    eid_t frontier_edges = 0;
    std::uint64_t carried = 0;
    const auto count = static_cast<std::int64_t>(active.size());
#pragma omp parallel for schedule(static) \
    reduction(+ : frontier, frontier_edges) reduction(| : carried)
    for (std::int64_t i = 0; i < count; ++i) {
      const vid_t v = active[static_cast<std::size_t>(i)];
      const std::uint64_t bits = s.visit[static_cast<std::size_t>(v)] & s.live;
      if (bits == 0) continue;
      frontier += 1;
      frontier_edges += g.out_degree(v);
      carried |= bits;
    }
    s.live &= carried;
    if (s.live == 0) break;

    Direction dir = Direction::kTopDown;
    switch (opts.mode) {
      case MsBfsOptions::Mode::kTopDown:
        break;
      case MsBfsOptions::Mode::kBottomUp:
        dir = Direction::kBottomUp;
        break;
      case MsBfsOptions::Mode::kAuto:
        // The paper's M/N rule on the union frontier: it is the union,
        // not any single lane, that the batched step will expand.
        if (!(static_cast<double>(frontier_edges) <
                  static_cast<double>(g.num_edges()) / opts.m &&
              static_cast<double>(frontier) <
                  static_cast<double>(n) / opts.n)) {
          dir = Direction::kBottomUp;
        }
        break;
    }
    if (have_prev_dir && dir != prev_dir) ++out.direction_switches;
    have_prev_dir = true;
    prev_dir = dir;

    const std::int32_t next_level = out.depth + 1;
    if (dir == Direction::kTopDown) {
      detail::ms_top_down_step(g, active, s, next_level);
    } else {
      if (!candidates_primed) {
        spare.resize(nn);
        filter_ordered(
            nn, spare.data(), s.spans, candidates,
            [](std::size_t v) { return static_cast<vid_t>(v); }, unfinished);
        candidates_primed = true;
      }
      detail::ms_bottom_up_step(g, candidates, s, next_level);
    }

    if (dir == Direction::kBottomUp) {
      const vid_t* from = candidates.data();
      filter_ordered(
          candidates.size(), candidates.data(), s.spans, spare,
          [from](std::size_t i) { return from[i]; }, unfinished);
      candidates.swap(spare);
    }

    // The finished frontier's words are non-zero exactly at `active`,
    // so clearing them there re-arms `visit_next` without a full fill.
    s.visit.swap(s.visit_next);
#pragma omp parallel for schedule(static)
    for (std::int64_t i = 0; i < count; ++i) {
      const vid_t v = active[static_cast<std::size_t>(i)];
      s.visit_next[static_cast<std::size_t>(v)] = 0;
    }
    bitmap_to_queue(s.discovered, active);
    s.discovered.reset();

    const auto level_end = Clock::now();
    out.levels.push_back(
        {out.depth, dir, frontier, frontier_edges,
         static_cast<vid_t>(active.size()),
         std::chrono::duration<double>(level_end - level_start).count()});
    level_start = level_end;
    ++out.depth;
  }

  // Tree lanes' totals and level logs, counted from their level maps.
  // Levels are gapless (a lane's frontier never revives), so each
  // entry's discovery count is the next entry's frontier size.
#pragma omp parallel for schedule(dynamic, 1)
  for (int l = 0; l < lanes; ++l) {
    const auto li = static_cast<std::size_t>(l);
    if (request.lanes[li].record != Record::kTree) continue;
    BfsResult& r = out.per_root[li];
    std::vector<MsLaneLevel>& log = out.lane_levels[li];
    vid_t reached = 0;
    eid_t directed = 0;
    for (vid_t v = 0; v < n; ++v) {
      const std::int32_t lv = r.level[static_cast<std::size_t>(v)];
      if (lv < 0) continue;
      const auto k = static_cast<std::size_t>(lv);
      if (k >= log.size()) log.resize(k + 1);
      const eid_t deg = g.out_degree(v);
      log[k].frontier_vertices += 1;
      log[k].frontier_edges += deg;
      ++reached;
      directed += deg;
    }
    for (std::size_t k = 0; k < log.size(); ++k) {
      log[k].level = static_cast<std::int32_t>(k);
      if (k + 1 < log.size()) {
        log[k].next_vertices = log[k + 1].frontier_vertices;
      }
    }
    r.reached = reached;
    r.edges_in_component = g.is_symmetric() ? directed / 2 : directed;
  }
  return out;
}

/// Every lane records a full tree: the pass the Graph 500 batch engine
/// and the benches run.
template <graph::HybridView V>
[[nodiscard]] MsBfsResult ms_bfs(const V& g,
                                 std::span<const graph::vid_t> roots,
                                 const MsBfsOptions& opts = {}) {
  MsBfsRequest request;
  request.lanes.reserve(roots.size());
  for (const graph::vid_t r : roots) {
    request.lanes.push_back(
        {.root = r, .record = MsLane::Record::kTree, .row = {}});
  }
  return ms_bfs(g, request, opts);
}

/// CSR entry point: forwards through the zero-overhead CsrGraphView
/// adapter — the historical signature every existing caller keeps.
[[nodiscard]] MsBfsResult ms_bfs(const graph::CsrGraph& g,
                                 std::span<const graph::vid_t> roots,
                                 const MsBfsOptions& opts = {});

}  // namespace bfsx::bfs
