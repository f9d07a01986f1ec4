// MS-BFS equivalence and determinism tests: every lane of the
// bit-parallel kernel must be indistinguishable (levels, counters,
// totals) from a single-source traversal of the same root.
#include "bfs/msbfs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "bfs/state_pool.h"
#include "bfs/topdown.h"
#include "bfs/validate.h"
#include "core/hybrid_policy.h"
#include "core/level_trace.h"
#include "core/traversal.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/graph_stats.h"
#include "graph/rmat.h"
#include "graph500/reference_bfs.h"

namespace bfsx::bfs {
namespace {

using graph::build_csr;
using graph::build_directed_csr;
using graph::CsrGraph;
using graph::EdgeList;

CsrGraph rmat(int scale, int edgefactor = 16, std::uint64_t seed = 7) {
  graph::RmatParams p;
  p.scale = scale;
  p.edgefactor = edgefactor;
  p.seed = seed;
  return build_csr(graph::generate_rmat(p));
}

/// The paper's M/N rule at its default knobs, 14/24.
const core::HybridPolicy kMN{};

/// Per-level work counters of one traversal — what LevelTrace records
/// for a single-source run — counted from a tree lane's level map:
/// |V|cq and |E|cq per level, each level's discoveries the next
/// level's frontier.
struct LaneLevel {
  std::int32_t level = 0;
  vid_t frontier_vertices = 0;
  graph::eid_t frontier_edges = 0;
  vid_t next_vertices = 0;

  friend bool operator==(const LaneLevel&, const LaneLevel&) = default;
};

std::vector<LaneLevel> lane_levels(const CsrGraph& g, const BfsResult& lane) {
  std::vector<LaneLevel> log;
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    const std::int32_t lv = lane.level[static_cast<std::size_t>(v)];
    if (lv < 0) continue;
    const auto k = static_cast<std::size_t>(lv);
    if (k >= log.size()) log.resize(k + 1);
    log[k].frontier_vertices += 1;
    log[k].frontier_edges += g.out_degree(v);
  }
  for (std::size_t k = 0; k < log.size(); ++k) {
    log[k].level = static_cast<std::int32_t>(k);
    if (k + 1 < log.size()) {
      log[k].next_vertices = log[k + 1].frontier_vertices;
    }
  }
  return log;
}

/// One pass whose levels are timed and booked as the msbfs engine books
/// them: `levels` receives one level event per union level.
template <typename G, typename Lanes, typename Policy>
MsBfsResult traced_ms_bfs(const G& g, const Lanes& lanes,
                          const Policy& policy,
                          std::vector<obs::LevelEvent>& levels) {
  core::LevelLedger ledger{nullptr, &levels};
  return ms_bfs(g, lanes, policy,
                [&ledger](const auto& view, MsState& s, const Frontier& f,
                          Decision d) {
                  ledger.book(f, d, core::WallClock{}(view, s, f, d));
                });
}

int direction_switches(const std::vector<obs::LevelEvent>& levels) {
  int switches = 0;
  for (std::size_t k = 1; k < levels.size(); ++k) {
    switches += levels[k].direction != levels[k - 1].direction ? 1 : 0;
  }
  return switches;
}

/// Checks one lane against the serial oracle: exact levels, exact
/// totals, and a structurally valid parent tree.
void expect_lane_matches_reference(const CsrGraph& g, vid_t root,
                                   const BfsResult& lane) {
  const BfsResult ref = graph500::reference_bfs(g, root);
  EXPECT_EQ(lane.level, ref.level) << "root " << root;
  EXPECT_EQ(lane.reached, ref.reached) << "root " << root;
  EXPECT_EQ(lane.edges_in_component, ref.edges_in_component)
      << "root " << root;
  const ValidationReport rep = validate_bfs(g, root, lane);
  EXPECT_TRUE(rep.ok) << "root " << root << "\n" << rep.format();
}

TEST(MsBfs, FullBatchMatchesReferenceOnRmat) {
  const CsrGraph g = rmat(12);
  const std::vector<vid_t> roots =
      graph::sample_roots(g, kMsBfsMaxLanes, 500);
  const MsBfsResult ms = ms_bfs(g, roots, kMN);
  ASSERT_EQ(ms.per_root.size(), roots.size());
  for (std::size_t i = 0; i < roots.size(); ++i) {
    expect_lane_matches_reference(g, roots[i], ms.per_root[i]);
  }
}

// The acceptance bar of this subsystem: a full 64-root batch on R-MAT
// scale 16 with per-lane counters bit-equal to the single-source
// LevelTrace — the M/N switching inputs stay exact per root.
TEST(MsBfs, Scale16CountersMatchLevelTrace) {
  const CsrGraph g = rmat(16);
  const std::vector<vid_t> roots =
      graph::sample_roots(g, kMsBfsMaxLanes, 500);
  const MsBfsResult ms = ms_bfs(g, roots, kMN);
  ASSERT_EQ(ms.per_root.size(), roots.size());
  for (std::size_t i = 0; i < roots.size(); ++i) {
    const BfsResult ref = graph500::reference_bfs(g, roots[i]);
    ASSERT_EQ(ms.per_root[i].level, ref.level) << "root " << roots[i];
    const core::LevelTrace trace = core::build_level_trace(g, roots[i]);
    const std::vector<LaneLevel> lane = lane_levels(g, ms.per_root[i]);
    ASSERT_EQ(lane.size(), trace.levels.size()) << "root " << roots[i];
    for (std::size_t k = 0; k < lane.size(); ++k) {
      EXPECT_EQ(lane[k].level, trace.levels[k].level);
      EXPECT_EQ(lane[k].frontier_vertices, trace.levels[k].frontier_vertices)
          << "root " << roots[i] << " level " << k;
      EXPECT_EQ(lane[k].frontier_edges, trace.levels[k].frontier_edges)
          << "root " << roots[i] << " level " << k;
      EXPECT_EQ(lane[k].next_vertices, trace.levels[k].next_vertices)
          << "root " << roots[i] << " level " << k;
    }
  }
}

TEST(MsBfs, DirectedGraphMatchesReference) {
  // Directed CSR: bottom-up scans in-neighbors, top-down out-neighbors;
  // both must produce the directed-BFS levels of the oracle.
  const EdgeList el = graph::make_erdos_renyi(400, 2'000, 13);
  const CsrGraph g = build_directed_csr(EdgeList(el));
  ASSERT_FALSE(g.is_symmetric());
  const std::vector<vid_t> roots = graph::sample_roots(g, 17, 23);
  const auto check = [&g, &roots](const auto& policy, const char* name) {
    const MsBfsResult ms = ms_bfs(g, roots, policy);
    for (std::size_t i = 0; i < roots.size(); ++i) {
      const BfsResult ref = graph500::reference_bfs(g, roots[i]);
      EXPECT_EQ(ms.per_root[i].level, ref.level)
          << name << " root " << roots[i];
      EXPECT_EQ(ms.per_root[i].edges_in_component, ref.edges_in_component);
    }
  };
  check(kMN, "M/N");
  check(ForcedPolicy{Direction::kTopDown}, "top-down");
  check(ForcedPolicy{Direction::kBottomUp}, "bottom-up");
}

TEST(MsBfs, SmallAndDuplicateBatches) {
  const CsrGraph g = rmat(10, 8, 3);
  // A batch of one, a batch of identical roots, and a ragged batch with
  // duplicates — duplicate roots must yield independent identical lanes.
  const std::vector<std::vector<vid_t>> batches = {
      {1},
      {5, 5, 5},
      {0, 9, 0, 31, 9, 2, 77, 0, 5, 5, 12, 200, 31}};
  for (const std::vector<vid_t>& roots : batches) {
    const MsBfsResult ms = ms_bfs(g, roots, kMN);
    ASSERT_EQ(ms.per_root.size(), roots.size());
    for (std::size_t i = 0; i < roots.size(); ++i) {
      expect_lane_matches_reference(g, roots[i], ms.per_root[i]);
      // Same-root lanes agree exactly, counters included.
      for (std::size_t j = 0; j < i; ++j) {
        if (roots[j] != roots[i]) continue;
        EXPECT_EQ(ms.per_root[i].level, ms.per_root[j].level);
        EXPECT_EQ(ms.per_root[i].parent, ms.per_root[j].parent);
        EXPECT_TRUE(lane_levels(g, ms.per_root[i]) ==
                    lane_levels(g, ms.per_root[j]));
      }
    }
  }
}

TEST(MsBfs, ForcedDirectionsAgreeWithAuto) {
  const CsrGraph g = rmat(11, 16, 21);
  const std::vector<vid_t> roots = graph::sample_roots(g, 32, 9);
  std::vector<obs::LevelEvent> auto_levels;
  const MsBfsResult auto_run = traced_ms_bfs(g, roots, kMN, auto_levels);
  const MsBfsResult td_run =
      ms_bfs(g, roots, ForcedPolicy{Direction::kTopDown});
  const MsBfsResult bu_run =
      ms_bfs(g, roots, ForcedPolicy{Direction::kBottomUp});
  EXPECT_GT(direction_switches(auto_levels), 0);  // scale 11 should flip
  for (std::size_t i = 0; i < roots.size(); ++i) {
    EXPECT_EQ(td_run.per_root[i].level, auto_run.per_root[i].level);
    EXPECT_EQ(bu_run.per_root[i].level, auto_run.per_root[i].level);
    // Counters are direction-independent (they describe level sets).
    const std::vector<LaneLevel> want = lane_levels(g, auto_run.per_root[i]);
    EXPECT_TRUE(lane_levels(g, td_run.per_root[i]) == want);
    EXPECT_TRUE(lane_levels(g, bu_run.per_root[i]) == want);
    // Parents follow one rule in either direction.
    EXPECT_EQ(td_run.per_root[i].parent, auto_run.per_root[i].parent);
    EXPECT_EQ(bu_run.per_root[i].parent, auto_run.per_root[i].parent);
  }
}

TEST(MsBfs, UnionLevelsAreConsistent) {
  const CsrGraph g = rmat(12);
  const std::vector<vid_t> roots = graph::sample_roots(g, 48, 11);
  std::vector<obs::LevelEvent> levels;
  const MsBfsResult ms = traced_ms_bfs(g, roots, kMN, levels);
  std::vector<std::vector<LaneLevel>> lanes;
  std::size_t deepest = 0;
  for (const BfsResult& r : ms.per_root) {
    lanes.push_back(lane_levels(g, r));
    deepest = std::max(deepest, lanes.back().size());
  }
  // The union runs as many levels as its deepest lane.
  ASSERT_EQ(levels.size(), deepest);
  for (std::size_t k = 0; k < levels.size(); ++k) {
    const obs::LevelEvent& u = levels[k];
    EXPECT_EQ(u.level, static_cast<std::int32_t>(k));
    EXPECT_GT(u.frontier_vertices, 0);
    // The union frontier is at most the sum of the lane frontiers and
    // at least the largest lane frontier.
    graph::vid_t max_lane = 0;
    std::int64_t sum_lane = 0;
    for (const std::vector<LaneLevel>& lane : lanes) {
      if (k < lane.size()) {
        max_lane = std::max(max_lane, lane[k].frontier_vertices);
        sum_lane += lane[k].frontier_vertices;
      }
    }
    EXPECT_GE(u.frontier_vertices, max_lane);
    EXPECT_LE(static_cast<std::int64_t>(u.frontier_vertices), sum_lane);
  }
}

#ifdef _OPENMP
TEST(MsBfs, ThreadCountInvariance) {
  const CsrGraph g = rmat(12, 16, 5);
  const std::vector<vid_t> roots = graph::sample_roots(g, 40, 77);
  const int saved = omp_get_max_threads();
  std::vector<obs::LevelEvent> one_levels;
  std::vector<obs::LevelEvent> four_levels;
  omp_set_num_threads(1);
  const MsBfsResult one = traced_ms_bfs(g, roots, kMN, one_levels);
  omp_set_num_threads(4);
  const MsBfsResult four = traced_ms_bfs(g, roots, kMN, four_levels);
  omp_set_num_threads(saved);
  ASSERT_EQ(one.per_root.size(), four.per_root.size());
  ASSERT_EQ(one_levels.size(), four_levels.size());
  EXPECT_EQ(direction_switches(one_levels), direction_switches(four_levels));
  for (std::size_t i = 0; i < roots.size(); ++i) {
    EXPECT_EQ(one.per_root[i].level, four.per_root[i].level);
    EXPECT_EQ(one.per_root[i].reached, four.per_root[i].reached);
    EXPECT_EQ(one.per_root[i].edges_in_component,
              four.per_root[i].edges_in_component);
  }
  for (std::size_t k = 0; k < one_levels.size(); ++k) {
    EXPECT_EQ(one_levels[k].direction, four_levels[k].direction);
    EXPECT_EQ(one_levels[k].frontier_edges, four_levels[k].frontier_edges);
  }
}
#endif  // _OPENMP

TEST(MsBfs, RejectsBadBatches) {
  const CsrGraph g = build_csr(graph::make_path(8));
  EXPECT_THROW((void)ms_bfs(g, std::vector<vid_t>{}, kMN),
               std::invalid_argument);
  const std::vector<vid_t> oversized(kMsBfsMaxLanes + 1, 0);
  EXPECT_THROW((void)ms_bfs(g, oversized, kMN), std::invalid_argument);
  EXPECT_THROW((void)ms_bfs(g, std::vector<vid_t>{-1}, kMN),
               std::invalid_argument);
  EXPECT_THROW((void)ms_bfs(g, std::vector<vid_t>{8}, kMN),
               std::invalid_argument);
}

// --- Requests: level rows beside trees -----------------------------------

/// Runs `body` once per thread count the kernel must agree across.
template <typename Body>
void at_1_and_4_threads(Body&& body) {
#ifdef _OPENMP
  const int saved = omp_get_max_threads();
  for (const int threads : {1, 4}) {
    omp_set_num_threads(threads);
    SCOPED_TRACE(testing::Message() << threads << " threads");
    body();
  }
  omp_set_num_threads(saved);
#else
  body();
#endif
}

vid_t first_isolated(const CsrGraph& g) {
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    if (g.out_degree(v) == 0) return v;
  }
  return kNoVertex;
}

MsLane row_lane(vid_t root, std::vector<std::int32_t>& row) {
  return {.root = root, .record = MsLane::Record::kRow, .row = row};
}

TEST(MsBfsRequest, TreeAndRowLanesMatchReferenceOnRmat) {
  const CsrGraph g = rmat(12);
  const vid_t isolated = first_isolated(g);
  ASSERT_NE(isolated, kNoVertex);
  std::vector<vid_t> roots = graph::sample_roots(g, 12, 41);
  roots.push_back(isolated);
  roots.push_back(roots.front());  // a duplicate root in the other role

  // Even lanes write level rows, odd lanes record trees, in one pass.
  const auto n = static_cast<std::size_t>(g.num_vertices());
  std::vector<std::vector<std::int32_t>> rows(roots.size(),
                                              std::vector<std::int32_t>(n, 7));
  MsBfsRequest req;
  for (std::size_t l = 0; l < roots.size(); ++l) {
    req.lanes.push_back(
        l % 2 == 0 ? row_lane(roots[l], rows[l])
                   : MsLane{.root = roots[l],
                            .record = MsLane::Record::kTree,
                            .row = {}});
  }

  at_1_and_4_threads([&] {
    const MsBfsResult trees = ms_bfs(g, roots, kMN);
    const MsBfsResult ms = ms_bfs(graph::CsrGraphView(g), req, kMN);
    for (std::size_t l = 0; l < roots.size(); ++l) {
      SCOPED_TRACE(testing::Message() << "lane " << l << " root " << roots[l]);
      if (l % 2 == 0) {
        EXPECT_EQ(rows[l], graph500::reference_bfs(g, roots[l]).level);
        EXPECT_TRUE(ms.per_root[l].level.empty());
        EXPECT_TRUE(ms.per_root[l].parent.empty());
        continue;
      }
      expect_lane_matches_reference(g, roots[l], ms.per_root[l]);
      // A tree lane's tree, and so its counters, do not depend on what
      // the other lanes record.
      EXPECT_EQ(ms.per_root[l].parent, trees.per_root[l].parent);
      EXPECT_TRUE(lane_levels(g, ms.per_root[l]) ==
                  lane_levels(g, trees.per_root[l]));
    }
  });
}

#ifdef _OPENMP
// The landmark build's batch: the 16 highest-degree vertices, whose
// rows the top-down step splits over the team. Every level row, and the
// union counters the direction rule saw, must not depend on the team
// size.
TEST(MsBfsRequest, HubRootedRowsMatchAtEveryTeamSize) {
  const CsrGraph g = rmat(14);
  const std::vector<vid_t> hubs = graph::top_out_degree_vertices(g, 16);
  ASSERT_EQ(hubs.size(), 16u);
  ASSERT_GT(g.out_degree(hubs.front()), kPieceEdges);
  const auto n = static_cast<std::size_t>(g.num_vertices());
  struct Run {
    std::vector<std::vector<std::int32_t>> rows;
    std::vector<std::vector<graph::eid_t>> levels;
  };
  const auto run = [&](int threads) {
    omp_set_num_threads(threads);
    Run out;
    out.rows.assign(hubs.size(), std::vector<std::int32_t>(n, 7));
    MsBfsRequest req;
    for (std::size_t l = 0; l < hubs.size(); ++l) {
      req.lanes.push_back(row_lane(hubs[l], out.rows[l]));
    }
    std::vector<obs::LevelEvent> levels;
    (void)traced_ms_bfs(graph::CsrGraphView(g), req, kMN, levels);
    for (const obs::LevelEvent& k : levels) {
      out.levels.push_back({k.level, static_cast<graph::eid_t>(k.direction),
                            k.frontier_vertices, k.frontier_edges,
                            k.next_vertices});
    }
    return out;
  };
  const int saved = omp_get_max_threads();
  const Run serial = run(1);
  ASSERT_FALSE(serial.levels.empty());
  EXPECT_EQ(serial.levels[0][1],
            static_cast<graph::eid_t>(Direction::kTopDown));
  for (std::size_t l = 0; l < hubs.size(); ++l) {
    EXPECT_EQ(serial.rows[l], graph500::reference_bfs(g, hubs[l]).level)
        << "row of hub " << hubs[l];
  }
  for (const int threads : {2, 4}) {
    const Run parallel = run(threads);
    EXPECT_EQ(parallel.levels, serial.levels) << threads << " threads";
    for (std::size_t l = 0; l < hubs.size(); ++l) {
      EXPECT_TRUE(parallel.rows[l] == serial.rows[l])
          << threads << " threads, row of hub " << hubs[l];
    }
  }
  omp_set_num_threads(saved);
}
#endif  // _OPENMP

TEST(MsBfsRequest, IsolatedRootReachesOnlyItself) {
  const CsrGraph g = rmat(10, 8, 3);
  const vid_t isolated = first_isolated(g);
  ASSERT_NE(isolated, kNoVertex);
  MsBfsRequest req;
  req.lanes = {{.root = isolated, .record = MsLane::Record::kTree, .row = {}}};
  std::vector<obs::LevelEvent> levels;
  const MsBfsResult ms =
      traced_ms_bfs(graph::CsrGraphView(g), req, kMN, levels);
  EXPECT_EQ(ms.per_root[0].reached, 1);
  EXPECT_EQ(ms.per_root[0].edges_in_component, 0);
  EXPECT_EQ(ms.per_root[0].level, graph500::reference_bfs(g, isolated).level);
  const std::vector<LaneLevel> lane = lane_levels(g, ms.per_root[0]);
  ASSERT_EQ(lane.size(), 1u);
  EXPECT_EQ(lane[0].frontier_vertices, 1);
  // Level 0 expands nothing and the lane is done.
  ASSERT_EQ(levels.size(), 1u);
  EXPECT_EQ(levels[0].frontier_vertices, 1);
  EXPECT_EQ(levels[0].next_vertices, 0);
}

TEST(MsBfsRequest, LevelTimesAreMeasured) {
  const CsrGraph g = rmat(12);
  const std::vector<vid_t> roots = graph::sample_roots(g, 16, 3);
  std::vector<obs::LevelEvent> levels;
  const auto start = std::chrono::steady_clock::now();
  (void)traced_ms_bfs(g, roots, kMN, levels);
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  double sum = 0.0;
  for (const obs::LevelEvent& lvl : levels) {
    EXPECT_GE(lvl.compute_seconds, 0.0);
    sum += lvl.compute_seconds;
  }
  EXPECT_GT(sum, 0.0);
  EXPECT_LE(sum, wall);
}

TEST(MsBfsRequest, RejectsBadRequests) {
  const CsrGraph g = build_csr(graph::make_path(8));
  const graph::CsrGraphView v(g);
  std::vector<std::int32_t> short_row(7);
  MsBfsRequest req;
  req.lanes = {row_lane(0, short_row)};
  EXPECT_THROW((void)ms_bfs(v, req, kMN), std::invalid_argument);
}

// --- StatePool -----------------------------------------------------------

TEST(StatePool, ReusesReleasedStates) {
  const CsrGraph g = build_csr(graph::make_path(16));
  StatePool pool;
  EXPECT_EQ(pool.created(), 0u);
  EXPECT_EQ(pool.idle(), 0u);
  {
    StatePool::Lease lease = pool.acquire(g, 0);
    EXPECT_EQ(pool.created(), 1u);
    EXPECT_EQ(pool.idle(), 0u);
  }
  EXPECT_EQ(pool.idle(), 1u);
  {
    StatePool::Lease a = pool.acquire(g, 3);
    EXPECT_EQ(pool.created(), 1u);  // reused, not re-made
    StatePool::Lease b = pool.acquire(g, 5);
    EXPECT_EQ(pool.created(), 2u);  // pool empty, so a second state
    EXPECT_EQ(a->parent[3], 3);
    EXPECT_EQ(b->parent[5], 5);
  }
  EXPECT_EQ(pool.idle(), 2u);
}

TEST(StatePool, ResetStateTraversesLikeFresh) {
  const CsrGraph g = rmat(10, 8, 17);
  StatePool pool;
  // Dirty a state with one full traversal, return it, then reuse it on
  // a different root; the reused traversal must match a fresh one.
  {
    StatePool::Lease lease = pool.acquire(g, 2);
    while (!lease->frontier_empty()) top_down_step(g, *lease);
    (void)std::move(*lease).take_result(g);
  }
  StatePool::Lease reused = pool.acquire(g, 9);
  ASSERT_EQ(pool.created(), 1u);
  while (!reused->frontier_empty()) top_down_step(g, *reused);
  const BfsResult got = std::move(*reused).take_result(g);
  const BfsResult want = graph500::reference_bfs(g, 9);
  EXPECT_EQ(got.level, want.level);
  EXPECT_EQ(got.reached, want.reached);
  EXPECT_EQ(got.edges_in_component, want.edges_in_component);
  EXPECT_TRUE(validate_bfs(g, 9, got).ok);
}

TEST(StatePool, LeaseIsMovable) {
  const CsrGraph g = build_csr(graph::make_path(8));
  StatePool pool;
  StatePool::Lease a = pool.acquire(g, 0);
  StatePool::Lease b = std::move(a);
  EXPECT_EQ(b->level[0], 0);
  StatePool::Lease c = pool.acquire(g, 1);
  c = std::move(b);  // releases c's state back to the pool
  EXPECT_EQ(pool.idle(), 1u);
  EXPECT_EQ(c->level[0], 0);
}

}  // namespace
}  // namespace bfsx::bfs
