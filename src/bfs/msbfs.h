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
// A pass is the one level loop (bfs/traverse.h) over a lane state,
// MsState: its frontier is the union over the live lanes, the caller's
// policy decides each level on the union |V|cq and |E|cq, and the
// caller's clock runs the state's level step. Lane semantics are
// exactly 64 independent level-synchronous BFSs: per-lane distances are
// bit-equal to reference_bfs, and a tree lane's parent of v is the
// smallest-id vertex that carries the lane on the level's frontier and
// has an edge to v — the single-source kernels' rule — so parents, like
// levels, do not depend on the schedule.
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
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "bfs/frontier.h"
#include "bfs/state.h"
#include "bfs/traverse.h"
#include "graph/bitmap.h"
#include "graph/uninit_vector.h"
#include "graph/view.h"

namespace bfsx::bfs {

/// Lane capacity of one MS-BFS pass: one traversal per bit of the
/// per-vertex std::uint64_t masks.
inline constexpr int kMsBfsMaxLanes = 64;

/// What one lane of a pass records for its caller.
struct MsLane {
  enum class Record {
    kTree,  ///< parent and level maps, and totals
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

struct MsBfsResult {
  /// One entry per lane, in request order. kTree lanes hold a full
  /// BfsResult; other lanes an empty one. Duplicate roots yield
  /// independent (identical) lanes.
  std::vector<BfsResult> per_root;
};

/// The lane state bfs::traverse drives through a pass. Lane l of every
/// mask word is root l's traversal; `seen` is the 64-lane visited map,
/// `visit` the current frontier, `visit_next` the one under
/// construction, and `discovered` marks the vertices `visit_next`
/// gained a bit at. Parent/level pointers index straight into the
/// caller-visible maps so discovery writes them with no extraction
/// pass; parent is null for row lanes, which record levels only.
struct MsState {
  std::vector<std::uint64_t> seen;
  std::vector<std::uint64_t> visit;
  std::vector<std::uint64_t> visit_next;
  graph::Bitmap discovered;
  std::array<vid_t*, kMsBfsMaxLanes> parent{};
  std::array<std::int32_t*, kMsBfsMaxLanes> level{};
  std::uint64_t live = 0;   // lanes whose frontier is not empty
  std::uint64_t trees = 0;  // lanes that record parents
  /// The union frontier in ascending order — the vertices `visit` is
  /// non-zero at — and the next one, decoded from `discovered`.
  std::vector<vid_t> active;
  std::vector<vid_t> next;
  /// |E|cq of `active`, carried by the step that produced it.
  eid_t frontier_edges = 0;
  std::int32_t current_level = 0;
  /// Bottom-up candidate list: vertices some live lane has not seen
  /// yet. Primed lazily on the first bottom-up level — without
  /// vertices whose in-row is empty, which no lane can ever reach —
  /// then compacted like the single-source kernel's zero-rescan list,
  /// by the same ordered parallel filter (bfs/frontier.h) staging
  /// through `spare`.
  graph::UninitVector<vid_t> candidates;
  graph::UninitVector<vid_t> spare;
  bool candidates_primed = false;
  /// Top-down piece offsets over the active list (bfs/frontier.h), and
  /// per-block scratch shared by that prefix and the candidate filter.
  std::vector<eid_t> offsets;
  std::vector<BlockSpan> spans;

  [[nodiscard]] bool frontier_empty() const noexcept { return active.empty(); }
  [[nodiscard]] vid_t frontier_vertices() const noexcept {
    return static_cast<vid_t>(active.size());
  }
  template <typename G>
  [[nodiscard]] eid_t frontier_out_edges(const G& /*g*/) const noexcept {
    return frontier_edges;
  }
};

namespace detail {

/// What a level step carries to the next level: the |E|cq of the
/// vertices it discovered and the lanes that discovered any.
struct MsCarry {
  eid_t edges = 0;
  std::uint64_t lanes = 0;
};

/// Calls visit(l) for every lane l set in `lanes`.
template <typename Visit>
void for_each_lane(std::uint64_t lanes, Visit&& visit) {
  while (lanes != 0) {
    visit(static_cast<std::size_t>(std::countr_zero(lanes)));
    lanes &= lanes - 1;
  }
}

/// Expands the union frontier top-down, dealt out like the
/// single-source kernel in pieces of kPieceEdges edges of the active
/// rows, so the hub roots of a landmark batch spread over the team.
/// Threads race to claim lanes of a neighbour with one fetch_or on its
/// `seen` word; the winner of each bit — and only the winner — writes
/// that lane's level entry, so the stores are per-(lane, vertex)
/// exclusive. Which thread wins depends on the schedule, but *whether*
/// a lane is claimed at this level does not: a lane bit is claimable
/// iff some frontier vertex carries it, which is fixed before the step
/// starts. Levels and counters are therefore thread-count invariant,
/// and parents are left to ms_adopt_parents.
template <graph::GraphView V>
MsCarry ms_top_down_step(const V& g, MsState& s, std::int32_t next_level) {
  const std::vector<vid_t>& active = s.active;
  const auto carried = [&s, &active](std::size_t i) {
    return s.visit[static_cast<std::size_t>(active[i])] & s.live;
  };
  const std::int64_t pieces = piece_count(prefix_offsets(
      active.size(),
      [&g, &active, &carried](std::size_t i) -> eid_t {
        return carried(i) != 0 ? g.out_degree(active[i]) : 0;
      },
      s.offsets, s.spans));
  const eid_t* const offsets = s.offsets.data();
  eid_t next_edges = 0;
  std::uint64_t next_lanes = 0;
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic, 1) if (pieces > 1) \
    reduction(+ : next_edges) reduction(| : next_lanes)
#endif
  for (std::int64_t p = 0; p < pieces; ++p) {
    expand_piece(g, active, offsets, p, [&](std::size_t i, vid_t w) {
      const auto wi = static_cast<std::size_t>(w);
      std::atomic_ref<std::uint64_t> seen_w(s.seen[wi]);
      // mem-order: relaxed — advisory pre-filter only; a stale load can
      // merely let a lane through to the fetch_or below, which
      // re-validates, so no ordering is consumed from this read.
      const std::uint64_t cand =
          carried(i) & ~seen_w.load(std::memory_order_relaxed);
      if (cand == 0) return;  // stale-load misses retry via fetch_or
      // mem-order: relaxed — the RMW's atomicity elects one winner per
      // lane bit; the winner's level stores are read by other threads
      // only after the parallel-for's implicit barrier, which already
      // sequences them (no acquire/release needed).
      const std::uint64_t old =
          seen_w.fetch_or(cand, std::memory_order_relaxed);
      const std::uint64_t won = cand & ~old;
      if (won == 0) return;
      // mem-order: relaxed — independent bit accumulation; visit_next
      // is only read after the level barrier. The one claim that finds
      // the word empty lists `w` as discovered.
      const std::uint64_t before =
          std::atomic_ref<std::uint64_t>(s.visit_next[wi])
              .fetch_or(won, std::memory_order_relaxed);
      if (before == 0) {
        s.discovered.set_atomic(wi);
        next_edges += g.out_degree(w);
      }
      next_lanes |= won;
      for_each_lane(won, [&s, wi, next_level](std::size_t l) {
        s.level[l][wi] = next_level;
      });
    });
  }
  return {next_edges, next_lanes};
}

/// Expands bottom-up: every candidate some live lane has not seen scans
/// its in-neighbours and adopts, per still-missing lane, the first one
/// carrying that lane's frontier bit. Each iteration owns its candidate
/// exclusively — `seen`/`visit_next` writes need no atomics, and with
/// the in-adjacency enumerated in the view's ascending order each
/// parent is the smallest-id one.
template <graph::TransposeView V>
MsCarry ms_bottom_up_step(const V& g, std::span<const vid_t> candidates,
                          MsState& s, std::int32_t next_level) {
  const auto count = static_cast<std::int64_t>(candidates.size());
  eid_t next_edges = 0;
  std::uint64_t next_lanes = 0;
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic, 1024) \
    reduction(+ : next_edges) reduction(| : next_lanes)
#endif
  for (std::int64_t i = 0; i < count; ++i) {
    const vid_t w = candidates[static_cast<std::size_t>(i)];
    const auto wi = static_cast<std::size_t>(w);
    std::uint64_t rem = s.live & ~s.seen[wi];
    if (rem == 0) continue;  // straggler a previous level completed
    std::uint64_t acc = 0;
    g.for_each_in_neighbor(w, [&](vid_t u) {
      const std::uint64_t got = s.visit[static_cast<std::size_t>(u)] & rem;
      if (got == 0) return true;
      acc |= got;
      rem &= ~got;
      for_each_lane(got, [&s, wi, u, next_level](std::size_t l) {
        s.level[l][wi] = next_level;
        if (s.parent[l] != nullptr) s.parent[l][wi] = u;
      });
      return rem != 0;  // all lanes adopted: stop the scan early
    });
    if (acc != 0) {
      s.visit_next[wi] = acc;
      s.seen[wi] |= acc;
      s.discovered.set_atomic(wi);  // neighbouring candidates share words
      next_edges += g.out_degree(w);
      next_lanes |= acc;
    }
  }
  return {next_edges, next_lanes};
}

/// Top-down's parents, by the bottom-up rule: each vertex of `s.next`
/// scans its in-row in ascending order and adopts, per tree lane that
/// reached it this level, the first in-neighbour carrying that lane on
/// the frontier — the smallest-id one. Each iteration owns its vertex,
/// so the stores need no atomics; `visit` is read-only for the whole
/// level. A list of one chunk runs on the calling thread.
template <graph::TransposeView V>
void ms_adopt_parents(const V& g, MsState& s) {
  const auto count = static_cast<std::int64_t>(s.next.size());
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic, 1024) if (count > 1024)
#endif
  for (std::int64_t i = 0; i < count; ++i) {
    const vid_t w = s.next[static_cast<std::size_t>(i)];
    const auto wi = static_cast<std::size_t>(w);
    std::uint64_t need = s.visit_next[wi] & s.trees;
    if (need == 0) continue;
    g.for_each_in_neighbor(w, [&](vid_t u) {
      const std::uint64_t got = s.visit[static_cast<std::size_t>(u)] & need;
      if (got == 0) return true;
      need &= ~got;
      for_each_lane(got,
                    [&s, wi, u](std::size_t l) { s.parent[l][wi] = u; });
      return need != 0;
    });
  }
}

}  // namespace detail

/// The lane state's level step, which the level loop's clocks reach by
/// argument-dependent lookup: one level of every live lane in
/// direction `d`, then the next union frontier, its carried |E|cq and
/// its live lanes.
template <graph::HybridView V>
LevelStats step_level(const V& g, MsState& s, const Frontier& f,
                      Direction d) {
  const auto nn = static_cast<std::size_t>(g.num_vertices());
  const std::int32_t next_level = s.current_level + 1;
  detail::MsCarry carry;
  if (d == Direction::kTopDown) {
    carry = detail::ms_top_down_step(g, s, next_level);
  } else {
    const auto unfinished = [&s](vid_t v) {
      return (s.seen[static_cast<std::size_t>(v)] & s.live) != s.live;
    };
    if (!s.candidates_primed) {
      s.spare.resize(nn);
      filter_ordered(
          nn, s.spare.data(), s.spans, s.candidates,
          [](std::size_t v) { return static_cast<vid_t>(v); },
          [&g, &unfinished](vid_t v) {
            return unfinished(v) && graph::has_in_edge(g, v);
          });
      s.candidates_primed = true;
    }
    carry = detail::ms_bottom_up_step(g, s.candidates, s, next_level);
    const vid_t* from = s.candidates.data();
    filter_ordered(
        s.candidates.size(), s.candidates.data(), s.spans, s.spare,
        [from](std::size_t i) { return from[i]; }, unfinished);
    s.candidates.swap(s.spare);
  }

  bitmap_to_queue(s.discovered, s.next);
  s.discovered.reset();
  if (d == Direction::kTopDown && (s.trees & s.live) != 0) {
    detail::ms_adopt_parents(g, s);
  }
  // The finished frontier's words are non-zero exactly at `active`,
  // so clearing them there re-arms `visit_next` without a full fill.
  s.visit.swap(s.visit_next);
  const auto count = static_cast<std::int64_t>(s.active.size());
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
#endif
  for (std::int64_t i = 0; i < count; ++i) {
    const vid_t v = s.active[static_cast<std::size_t>(i)];
    s.visit_next[static_cast<std::size_t>(v)] = 0;
  }
  s.active.swap(s.next);
  s.live = carry.lanes;
  s.frontier_edges = carry.edges;
  s.current_level = next_level;

  LevelStats out;
  out.level = f.level;
  out.direction = d;
  out.frontier_vertices = f.vertices;
  out.frontier_edges = f.edges;
  out.next_vertices = s.frontier_vertices();
  return out;
}

/// Traverses up to kMsBfsMaxLanes roots simultaneously over any
/// HybridView (CSR via the adapter overload below, delta-CSR epochs,
/// compressed CSR), recording per lane only what `request` asks for.
/// `policy` decides each level's direction on the union frontier
/// (bfs::ForcedPolicy, core::HybridPolicy, ...) and `level_clock` runs
/// it, as in bfs::traverse. Throws std::invalid_argument on an empty or
/// oversized batch, an out-of-range root, or a kRow lane whose row is
/// not num_vertices() long. Levels, parents and reached/edge totals are
/// bit-identical for every OMP_NUM_THREADS — and, for views enumerating
/// identical sorted adjacency, across representations.
template <graph::HybridView V, typename Policy, typename Clock = StepClock>
[[nodiscard]] MsBfsResult ms_bfs(const V& g, const MsBfsRequest& request,
                                 Policy&& policy, Clock&& level_clock = {}) {
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

  const auto nn = static_cast<std::size_t>(n);
  MsBfsResult out;
  out.per_root.resize(static_cast<std::size_t>(lanes));

  MsState s;
  s.seen.assign(nn, 0);
  s.visit.assign(nn, 0);
  s.visit_next.assign(nn, 0);
  s.discovered.resize_and_reset(nn);

  // Lane maps are the bulk of a pass's memory traffic (8 bytes per
  // vertex per tree lane), so lanes set them up in parallel.
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
#endif
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

  for (int l = 0; l < lanes; ++l) {
    const auto li = static_cast<std::size_t>(l);
    const std::uint64_t bit = std::uint64_t{1} << l;
    s.live |= bit;
    if (request.lanes[li].record == Record::kTree) s.trees |= bit;
    const auto ri = static_cast<std::size_t>(request.lanes[li].root);
    s.seen[ri] |= bit;
    s.visit[ri] |= bit;
    s.active.push_back(request.lanes[li].root);
  }
  // Duplicate roots share one active entry — their lanes simply ride
  // the same mask word.
  std::sort(s.active.begin(), s.active.end());
  s.active.erase(std::unique(s.active.begin(), s.active.end()),
                 s.active.end());
  s.frontier_edges = frontier_out_edges(g, s.active);

  traverse(g, s, policy, level_clock);

  // Tree lanes' totals, counted from their level maps.
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic, 1)
#endif
  for (int l = 0; l < lanes; ++l) {
    const auto li = static_cast<std::size_t>(l);
    if (request.lanes[li].record != Record::kTree) continue;
    BfsResult& r = out.per_root[li];
    vid_t reached = 0;
    eid_t directed = 0;
    for (vid_t v = 0; v < n; ++v) {
      if (r.level[static_cast<std::size_t>(v)] < 0) continue;
      ++reached;
      directed += g.out_degree(v);
    }
    r.reached = reached;
    r.edges_in_component = g.is_symmetric() ? directed / 2 : directed;
  }
  return out;
}

/// Every lane records a full tree: the pass the Graph 500 batch engine
/// and the benches run.
template <graph::HybridView V, typename Policy, typename Clock = StepClock>
[[nodiscard]] MsBfsResult ms_bfs(const V& g,
                                 std::span<const graph::vid_t> roots,
                                 Policy&& policy, Clock&& level_clock = {}) {
  MsBfsRequest request;
  request.lanes.reserve(roots.size());
  for (const graph::vid_t r : roots) {
    request.lanes.push_back(
        {.root = r, .record = MsLane::Record::kTree, .row = {}});
  }
  return ms_bfs(g, request, policy, level_clock);
}

/// CSR entry point: forwards through the zero-overhead CsrGraphView
/// adapter.
template <typename Policy, typename Clock = StepClock>
[[nodiscard]] MsBfsResult ms_bfs(const graph::CsrGraph& g,
                                 std::span<const graph::vid_t> roots,
                                 Policy&& policy, Clock&& level_clock = {}) {
  return ms_bfs(graph::CsrGraphView(g), roots, policy, level_clock);
}

}  // namespace bfsx::bfs
