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
#include "core/level_trace.h"
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
  const MsBfsResult ms = ms_bfs(g, roots);
  ASSERT_EQ(ms.per_root.size(), roots.size());
  ASSERT_EQ(ms.lane_levels.size(), roots.size());
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
  const MsBfsResult ms = ms_bfs(g, roots);
  ASSERT_EQ(ms.lane_levels.size(), roots.size());
  for (std::size_t i = 0; i < roots.size(); ++i) {
    const BfsResult ref = graph500::reference_bfs(g, roots[i]);
    ASSERT_EQ(ms.per_root[i].level, ref.level) << "root " << roots[i];
    const core::LevelTrace trace = core::build_level_trace(g, roots[i]);
    const std::vector<MsLaneLevel>& lane = ms.lane_levels[i];
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
  for (const MsBfsOptions::Mode mode :
       {MsBfsOptions::Mode::kAuto, MsBfsOptions::Mode::kTopDown,
        MsBfsOptions::Mode::kBottomUp}) {
    MsBfsOptions opts;
    opts.mode = mode;
    const MsBfsResult ms = ms_bfs(g, roots, opts);
    for (std::size_t i = 0; i < roots.size(); ++i) {
      const BfsResult ref = graph500::reference_bfs(g, roots[i]);
      EXPECT_EQ(ms.per_root[i].level, ref.level)
          << "mode " << static_cast<int>(mode) << " root " << roots[i];
      EXPECT_EQ(ms.per_root[i].edges_in_component, ref.edges_in_component);
    }
  }
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
    const MsBfsResult ms = ms_bfs(g, roots);
    ASSERT_EQ(ms.per_root.size(), roots.size());
    for (std::size_t i = 0; i < roots.size(); ++i) {
      expect_lane_matches_reference(g, roots[i], ms.per_root[i]);
      // Same-root lanes agree exactly, counters included.
      for (std::size_t j = 0; j < i; ++j) {
        if (roots[j] != roots[i]) continue;
        EXPECT_EQ(ms.per_root[i].level, ms.per_root[j].level);
        ASSERT_EQ(ms.lane_levels[i].size(), ms.lane_levels[j].size());
        for (std::size_t k = 0; k < ms.lane_levels[i].size(); ++k) {
          EXPECT_EQ(ms.lane_levels[i][k].frontier_edges,
                    ms.lane_levels[j][k].frontier_edges);
        }
      }
    }
  }
}

TEST(MsBfs, ForcedDirectionsAgreeWithAuto) {
  const CsrGraph g = rmat(11, 16, 21);
  const std::vector<vid_t> roots = graph::sample_roots(g, 32, 9);
  MsBfsOptions td, bu;
  td.mode = MsBfsOptions::Mode::kTopDown;
  bu.mode = MsBfsOptions::Mode::kBottomUp;
  const MsBfsResult auto_run = ms_bfs(g, roots);
  const MsBfsResult td_run = ms_bfs(g, roots, td);
  const MsBfsResult bu_run = ms_bfs(g, roots, bu);
  EXPECT_GT(auto_run.direction_switches, 0);  // scale 11 should flip
  for (std::size_t i = 0; i < roots.size(); ++i) {
    EXPECT_EQ(td_run.per_root[i].level, auto_run.per_root[i].level);
    EXPECT_EQ(bu_run.per_root[i].level, auto_run.per_root[i].level);
    // Counters are direction-independent (they describe level sets).
    ASSERT_EQ(td_run.lane_levels[i].size(), auto_run.lane_levels[i].size());
    ASSERT_EQ(bu_run.lane_levels[i].size(), auto_run.lane_levels[i].size());
    for (std::size_t k = 0; k < auto_run.lane_levels[i].size(); ++k) {
      EXPECT_EQ(td_run.lane_levels[i][k].frontier_edges,
                auto_run.lane_levels[i][k].frontier_edges);
      EXPECT_EQ(bu_run.lane_levels[i][k].frontier_vertices,
                auto_run.lane_levels[i][k].frontier_vertices);
    }
  }
}

TEST(MsBfs, UnionLevelsAreConsistent) {
  const CsrGraph g = rmat(12);
  const std::vector<vid_t> roots = graph::sample_roots(g, 48, 11);
  const MsBfsResult ms = ms_bfs(g, roots);
  ASSERT_EQ(ms.depth, static_cast<std::int32_t>(ms.levels.size()));
  for (std::size_t k = 0; k < ms.levels.size(); ++k) {
    const MsUnionLevel& u = ms.levels[k];
    EXPECT_EQ(u.level, static_cast<std::int32_t>(k));
    EXPECT_GT(u.frontier_vertices, 0);
    // The union frontier is at most the sum of the lane frontiers and
    // at least the largest lane frontier.
    graph::vid_t max_lane = 0;
    std::int64_t sum_lane = 0;
    for (const std::vector<MsLaneLevel>& lane : ms.lane_levels) {
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
  omp_set_num_threads(1);
  const MsBfsResult one = ms_bfs(g, roots);
  omp_set_num_threads(4);
  const MsBfsResult four = ms_bfs(g, roots);
  omp_set_num_threads(saved);
  ASSERT_EQ(one.per_root.size(), four.per_root.size());
  EXPECT_EQ(one.depth, four.depth);
  EXPECT_EQ(one.direction_switches, four.direction_switches);
  for (std::size_t i = 0; i < roots.size(); ++i) {
    EXPECT_EQ(one.per_root[i].level, four.per_root[i].level);
    EXPECT_EQ(one.per_root[i].reached, four.per_root[i].reached);
    EXPECT_EQ(one.per_root[i].edges_in_component,
              four.per_root[i].edges_in_component);
  }
  for (std::size_t k = 0; k < one.levels.size(); ++k) {
    EXPECT_EQ(one.levels[k].direction, four.levels[k].direction);
    EXPECT_EQ(one.levels[k].frontier_edges, four.levels[k].frontier_edges);
  }
}
#endif  // _OPENMP

TEST(MsBfs, RejectsBadBatches) {
  const CsrGraph g = build_csr(graph::make_path(8));
  EXPECT_THROW((void)ms_bfs(g, std::vector<vid_t>{}), std::invalid_argument);
  const std::vector<vid_t> oversized(kMsBfsMaxLanes + 1, 0);
  EXPECT_THROW((void)ms_bfs(g, oversized), std::invalid_argument);
  EXPECT_THROW((void)ms_bfs(g, std::vector<vid_t>{-1}),
               std::invalid_argument);
  EXPECT_THROW((void)ms_bfs(g, std::vector<vid_t>{8}),
               std::invalid_argument);
}

// --- Requests: level rows, target cells, and lanes that retire -----------

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

MsLane cells_lane(vid_t root) {
  return {.root = root, .record = MsLane::Record::kCells, .row = {}};
}

TEST(MsBfsRequest, RowsAndCellsMatchReferenceOnRmat) {
  const CsrGraph g = rmat(12);
  const vid_t isolated = first_isolated(g);
  ASSERT_NE(isolated, kNoVertex);
  std::vector<vid_t> roots = graph::sample_roots(g, 12, 41);
  roots.push_back(isolated);
  const std::vector<vid_t> far = graph::sample_roots(g, 6, 43);

  // Even lanes write level rows, odd lanes answer cells: the lane's own
  // root, an isolated target, and a handful of sampled ones.
  const auto n = static_cast<std::size_t>(g.num_vertices());
  std::vector<std::vector<std::int32_t>> rows(roots.size(),
                                              std::vector<std::int32_t>(n, 7));
  MsBfsRequest req;
  for (std::size_t l = 0; l < roots.size(); ++l) {
    if (l % 2 == 0) {
      req.lanes.push_back(row_lane(roots[l], rows[l]));
      continue;
    }
    req.lanes.push_back(cells_lane(roots[l]));
    const int lane = static_cast<int>(l);
    req.cells.push_back({lane, roots[l]});
    req.cells.push_back({lane, isolated});
    for (const vid_t t : far) req.cells.push_back({lane, t});
  }

  at_1_and_4_threads([&] {
    const MsBfsResult ms = ms_bfs(graph::CsrGraphView(g), req);
    ASSERT_EQ(ms.cells.size(), req.cells.size());
    for (std::size_t l = 0; l < roots.size(); l += 2) {
      EXPECT_EQ(rows[l], graph500::reference_bfs(g, roots[l]).level)
          << "row of root " << roots[l];
    }
    for (std::size_t j = 0; j < req.cells.size(); ++j) {
      const MsCell& c = req.cells[j];
      const vid_t root = roots[static_cast<std::size_t>(c.lane)];
      EXPECT_EQ(ms.cells[j], graph500::reference_bfs(g, root)
                                 .level[static_cast<std::size_t>(c.target)])
          << "root " << root << " target " << c.target;
    }
  });
}

TEST(MsBfsRequest, DirectedCellsCoverUnreachableAndIsolatedTargets) {
  // 0 -> 1 -> 2 and 3 -> 4, 5 isolated: from root 0, vertex 4 has an
  // in-edge but is unreachable, vertex 5 has none.
  EdgeList el;
  el.num_vertices = 6;
  el.add(0, 1);
  el.add(1, 2);
  el.add(3, 4);
  const CsrGraph g = build_directed_csr(std::move(el));
  ASSERT_FALSE(g.is_symmetric());
  MsBfsRequest req;
  req.lanes = {cells_lane(0), cells_lane(5)};
  req.cells = {{0, 0}, {0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}, {1, 2}, {1, 5}};
  const std::vector<std::int32_t> want = {0, 1, 2, -1, -1, -1, -1, 0};
  for (const MsBfsOptions::Mode mode :
       {MsBfsOptions::Mode::kAuto, MsBfsOptions::Mode::kTopDown,
        MsBfsOptions::Mode::kBottomUp}) {
    MsBfsOptions opts;
    opts.mode = mode;
    EXPECT_EQ(ms_bfs(graph::CsrGraphView(g), req, opts).cells, want)
        << "mode " << static_cast<int>(mode);
  }

  // Directed R-MAT: plenty of targets have in-edges yet no path from
  // the root, so their lanes run until the frontier empties.
  graph::RmatParams p;
  p.scale = 10;
  p.edgefactor = 8;
  p.seed = 29;
  const CsrGraph d = build_directed_csr(graph::generate_rmat(p));
  const std::vector<vid_t> roots = graph::sample_roots(d, 8, 31);
  MsBfsRequest sweep;
  std::vector<BfsResult> ref;
  int unreachable_entered = 0;
  for (std::size_t l = 0; l < roots.size(); ++l) {
    sweep.lanes.push_back(cells_lane(roots[l]));
    ref.push_back(graph500::reference_bfs(d, roots[l]));
    for (vid_t t = 0; t < d.num_vertices(); t += 5) {
      sweep.cells.push_back({static_cast<int>(l), t});
      if (ref.back().level[static_cast<std::size_t>(t)] < 0 &&
          d.in_degree(t) > 0) {
        ++unreachable_entered;
      }
    }
  }
  EXPECT_GT(unreachable_entered, 0);
  at_1_and_4_threads([&] {
    const MsBfsResult ms = ms_bfs(graph::CsrGraphView(d), sweep);
    for (std::size_t j = 0; j < sweep.cells.size(); ++j) {
      const MsCell& c = sweep.cells[j];
      EXPECT_EQ(ms.cells[j], ref[static_cast<std::size_t>(c.lane)]
                                 .level[static_cast<std::size_t>(c.target)])
          << "root " << roots[static_cast<std::size_t>(c.lane)] << " target "
          << c.target;
    }
  });
}

TEST(MsBfsRequest, RetiringLanesLeaveOtherLanesBitEqual) {
  const CsrGraph g = rmat(12, 16, 19);
  const vid_t isolated = first_isolated(g);
  ASSERT_NE(isolated, kNoVertex);
  std::vector<vid_t> roots = graph::sample_roots(g, 30, 57);
  roots.push_back(isolated);
  roots.push_back(roots.front());  // a duplicate root in another role

  // Lanes cycle tree, row, cells. Cells lanes ask for a neighbour of
  // their root, so they retire after the first level.
  const auto n = static_cast<std::size_t>(g.num_vertices());
  std::vector<std::vector<std::int32_t>> rows(roots.size(),
                                              std::vector<std::int32_t>(n));
  MsBfsRequest mixed;
  for (std::size_t l = 0; l < roots.size(); ++l) {
    switch (l % 3) {
      case 0:
        mixed.lanes.push_back({.root = roots[l],
                               .record = MsLane::Record::kTree,
                               .row = {}});
        break;
      case 1:
        mixed.lanes.push_back(row_lane(roots[l], rows[l]));
        break;
      default: {
        mixed.lanes.push_back(cells_lane(roots[l]));
        const auto nbrs = g.out_neighbors(roots[l]);
        mixed.cells.push_back(
            {static_cast<int>(l), nbrs.empty() ? roots[l] : nbrs.back()});
        break;
      }
    }
  }

  at_1_and_4_threads([&] {
    const MsBfsResult trees = ms_bfs(g, roots);
    const MsBfsResult ms = ms_bfs(graph::CsrGraphView(g), mixed);
    for (std::size_t l = 0; l < roots.size(); ++l) {
      SCOPED_TRACE(testing::Message() << "lane " << l << " root " << roots[l]);
      const BfsResult& want = trees.per_root[l];
      switch (mixed.lanes[l].record) {
        case MsLane::Record::kTree: {
          const BfsResult& got = ms.per_root[l];
          EXPECT_EQ(got.level, want.level);
          EXPECT_EQ(got.reached, want.reached);
          EXPECT_EQ(got.edges_in_component, want.edges_in_component);
          EXPECT_TRUE(validate_bfs(g, roots[l], got).ok);
          ASSERT_EQ(ms.lane_levels[l].size(), trees.lane_levels[l].size());
          for (std::size_t k = 0; k < ms.lane_levels[l].size(); ++k) {
            EXPECT_EQ(ms.lane_levels[l][k].frontier_vertices,
                      trees.lane_levels[l][k].frontier_vertices);
            EXPECT_EQ(ms.lane_levels[l][k].frontier_edges,
                      trees.lane_levels[l][k].frontier_edges);
            EXPECT_EQ(ms.lane_levels[l][k].next_vertices,
                      trees.lane_levels[l][k].next_vertices);
          }
          break;
        }
        case MsLane::Record::kRow:
          EXPECT_EQ(rows[l], want.level);
          EXPECT_TRUE(ms.per_root[l].level.empty());
          break;
        case MsLane::Record::kCells:
          EXPECT_TRUE(ms.per_root[l].level.empty());
          EXPECT_TRUE(ms.lane_levels[l].empty());
          break;
      }
    }
    for (std::size_t j = 0; j < mixed.cells.size(); ++j) {
      const MsCell& c = mixed.cells[j];
      EXPECT_EQ(ms.cells[j],
                trees.per_root[static_cast<std::size_t>(c.lane)]
                    .level[static_cast<std::size_t>(c.target)]);
    }
  });

  // Alone, the cells lanes stop after the one level that reaches their
  // targets, where full trees of the same roots run the whole depth.
  MsBfsRequest cells_only;
  for (std::size_t l = 2; l < roots.size(); l += 3) {
    cells_only.lanes.push_back(cells_lane(roots[l]));
  }
  for (const MsCell& c : mixed.cells) {
    cells_only.cells.push_back({c.lane / 3, c.target});
  }
  const MsBfsResult early = ms_bfs(graph::CsrGraphView(g), cells_only);
  EXPECT_EQ(early.depth, 1);
  EXPECT_GT(ms_bfs(g, roots).depth, 2);
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
    const MsBfsResult ms = ms_bfs(graph::CsrGraphView(g), req);
    for (const MsUnionLevel& k : ms.levels) {
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

TEST(MsBfsRequest, IsolatedRootsAndPreAnsweredCells) {
  const CsrGraph g = rmat(10, 8, 3);
  const vid_t isolated = first_isolated(g);
  ASSERT_NE(isolated, kNoVertex);
  const vid_t hub = graph::top_out_degree_vertices(g, 1).front();
  // A tree rooted at an isolated vertex reaches only itself; a cells
  // lane whose cells are all known up front never traverses.
  MsBfsRequest req;
  req.lanes = {{.root = isolated, .record = MsLane::Record::kTree, .row = {}},
               cells_lane(hub), cells_lane(isolated)};
  req.cells = {{1, hub}, {1, isolated}, {2, isolated}, {2, hub}};
  const MsBfsResult ms = ms_bfs(graph::CsrGraphView(g), req);
  EXPECT_EQ(ms.per_root[0].reached, 1);
  EXPECT_EQ(ms.per_root[0].edges_in_component, 0);
  EXPECT_EQ(ms.per_root[0].level, graph500::reference_bfs(g, isolated).level);
  ASSERT_EQ(ms.lane_levels[0].size(), 1u);
  EXPECT_EQ(ms.lane_levels[0][0].frontier_vertices, 1);
  EXPECT_EQ(ms.cells, (std::vector<std::int32_t>{0, -1, 0, -1}));
  EXPECT_EQ(ms.depth, 1);  // both live lanes sit on the isolated vertex

  MsBfsRequest answered;
  answered.lanes = {cells_lane(hub)};
  answered.cells = {{0, hub}, {0, isolated}};
  const MsBfsResult none = ms_bfs(graph::CsrGraphView(g), answered);
  EXPECT_EQ(none.depth, 0);
  EXPECT_EQ(none.cells, (std::vector<std::int32_t>{0, -1}));
}

TEST(MsBfsRequest, LevelTimesAreMeasured) {
  const CsrGraph g = rmat(12);
  const std::vector<vid_t> roots = graph::sample_roots(g, 16, 3);
  const auto start = std::chrono::steady_clock::now();
  const MsBfsResult ms = ms_bfs(g, roots);
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  double sum = 0.0;
  for (const MsUnionLevel& lvl : ms.levels) {
    EXPECT_GE(lvl.seconds, 0.0);
    sum += lvl.seconds;
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
  EXPECT_THROW((void)ms_bfs(v, req), std::invalid_argument);
  req.lanes = {cells_lane(0)};
  req.cells = {{1, 3}};
  EXPECT_THROW((void)ms_bfs(v, req), std::invalid_argument);
  req.cells = {{0, 8}};
  EXPECT_THROW((void)ms_bfs(v, req), std::invalid_argument);
  req.cells = {{0, 7}};
  EXPECT_EQ(ms_bfs(v, req).cells, std::vector<std::int32_t>{7});
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
