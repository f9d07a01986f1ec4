// Unit tests for the top-down and bottom-up level-step kernels.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bfs/bottomup.h"
#include "bfs/drivers.h"
#include "bfs/frontier.h"
#include "bfs/msbfs.h"
#include "bfs/topdown.h"
#include "check/report.h"
#include "core/hybrid_policy.h"
#include "graph/builder.h"
#include "graph/compressed_csr.h"
#include "graph/delta_csr.h"
#include "graph/generators.h"
#include "graph/graph_stats.h"
#include "graph/rmat.h"
#include "graph/view.h"
#include "thread_count.h"
#include "walled_grid.h"

namespace bfsx::bfs {
namespace {

using graph::build_csr;
using graph::make_binary_tree;
using graph::make_path;
using graph::make_star;
using test::count_isolated;
using test::ThreadCountGuard;
using test::walled_grid;

graph::CsrGraph rmat(int scale, const graph::BuildOptions& opts = {}) {
  graph::RmatParams p;
  p.scale = scale;
  p.edgefactor = 16;
  p.seed = 2014;
  return build_csr(graph::generate_rmat(p), opts);
}

/// Runs the paper's M/N hybrid (M = 14, N = 24) from `root`, deciding
/// each level on the carried |E|cq, and calls
/// `after(state, direction, td_stats, bu_stats)` after every step.
template <typename V, typename After>
BfsState traverse_hybrid(const V& g, vid_t root, After&& after) {
  const core::HybridPolicy policy{};
  BfsState state(g.num_vertices(), root);
  while (!state.frontier_empty()) {
    const auto v_cq = static_cast<vid_t>(state.frontier_queue.size());
    const Direction dir = policy.decide(state.frontier_out_edges(g), v_cq,
                                        g.num_edges(), g.num_vertices());
    TopDownStats td;
    BottomUpStats bu;
    if (dir == Direction::kTopDown) {
      td = top_down_step(g, state);
    } else {
      bu = bottom_up_step(g, state);
    }
    after(static_cast<const BfsState&>(state), dir, td, bu);
  }
  return state;
}

TEST(TopDownStep, ExpandsOneLevelOfAPath) {
  const CsrGraph g = build_csr(make_path(5));
  BfsState state(g, 0);
  const TopDownStats s = top_down_step(g, state);
  EXPECT_EQ(s.frontier_vertices, 1);
  EXPECT_EQ(s.frontier_edges, 1);  // vertex 0 has degree 1
  EXPECT_EQ(s.next_vertices, 1);
  EXPECT_EQ(state.current_level, 1);
  EXPECT_EQ(state.parent[1], 0);
  EXPECT_EQ(state.level[1], 1);
  ASSERT_EQ(state.frontier_queue.size(), 1u);
  EXPECT_EQ(state.frontier_queue[0], 1);
  EXPECT_TRUE(state.frontier_bitmap.test(1));
}

TEST(TopDownStep, StarExpandsAllSpokesAtOnce) {
  const CsrGraph g = build_csr(make_star(10));
  BfsState state(g, 0);
  const TopDownStats s = top_down_step(g, state);
  EXPECT_EQ(s.frontier_edges, 9);
  EXPECT_EQ(s.next_vertices, 9);
  EXPECT_EQ(state.reached, 10);
  for (vid_t v = 1; v < 10; ++v) {
    EXPECT_EQ(state.parent[static_cast<std::size_t>(v)], 0);
  }
}

TEST(TopDownStep, EachVertexGetsExactlyOneParent) {
  // Binary tree: both children of the root expand simultaneously; their
  // shared grandchildren must be claimed exactly once.
  const CsrGraph g = build_csr(make_binary_tree(31));
  BfsState state(g, 0);
  while (!state.frontier_empty()) top_down_step(g, state);
  for (vid_t v = 1; v < 31; ++v) {
    EXPECT_EQ(state.parent[static_cast<std::size_t>(v)], (v - 1) / 2);
  }
}

TEST(BottomUpStep, FindsParentsForAdjacentUnvisited) {
  const CsrGraph g = build_csr(make_star(6));
  BfsState state(g, 0);
  const BottomUpStats s = bottom_up_step(g, state);
  EXPECT_EQ(s.unvisited_vertices, 5);
  EXPECT_EQ(s.next_vertices, 5);
  EXPECT_EQ(state.reached, 6);
  for (vid_t v = 1; v < 6; ++v) {
    EXPECT_EQ(state.parent[static_cast<std::size_t>(v)], 0);
  }
}

TEST(BottomUpStep, CountsHitAndMissScans) {
  // Path 0-1-2-3: from root 0, a bottom-up level scans 1 (hit via 0),
  // 2 (misses: neighbours 1,3 not in frontier), 3 (miss).
  const CsrGraph g = build_csr(make_path(4));
  BfsState state(g, 0);
  const BottomUpStats s = bottom_up_step(g, state);
  EXPECT_EQ(s.next_vertices, 1);
  EXPECT_EQ(s.edges_scanned_hit, 1);   // vertex 1 found 0 immediately
  EXPECT_EQ(s.edges_scanned_miss, 3);  // vertex 2 walked {1,3}, vertex 3 walked {2}
  EXPECT_EQ(s.edges_scanned(), 4);
}

TEST(BottomUpStep, SameLevelVertexCannotParentSameLevel) {
  // Cycle of 4 from root 0: level 1 = {1, 3}. Vertex 2 is adjacent to
  // both but must land in level 2, never level 1.
  const CsrGraph g = build_csr(graph::make_cycle(4));
  BfsState state(g, 0);
  bottom_up_step(g, state);
  EXPECT_EQ(state.level[1], 1);
  EXPECT_EQ(state.level[3], 1);
  EXPECT_EQ(state.level[2], -1);  // not yet
  bottom_up_step(g, state);
  EXPECT_EQ(state.level[2], 2);
}

TEST(BottomUpProbe, MatchesStepWithoutMutation) {
  const CsrGraph g = build_csr(make_binary_tree(63));
  BfsState state(g, 0);
  top_down_step(g, state);  // move to level 1 so the probe is non-trivial

  const BottomUpStats probe = bottom_up_probe(g, state);
  const auto parent_before = state.parent;
  const auto reached_before = state.reached;
  // Probe must not have touched the state.
  EXPECT_EQ(state.parent, parent_before);
  EXPECT_EQ(state.reached, reached_before);

  const BottomUpStats step = bottom_up_step(g, state);
  EXPECT_EQ(probe.unvisited_vertices, step.unvisited_vertices);
  EXPECT_EQ(probe.edges_scanned_hit, step.edges_scanned_hit);
  EXPECT_EQ(probe.edges_scanned_miss, step.edges_scanned_miss);
  EXPECT_EQ(probe.next_vertices, step.next_vertices);
}

TEST(MixedSteps, DirectionsInterleaveCleanly) {
  // Alternate TD/BU on a tree and verify the final parent map is the
  // exact tree structure regardless of the direction sequence.
  const CsrGraph g = build_csr(make_binary_tree(127));
  BfsState state(g, 0);
  int level = 0;
  while (!state.frontier_empty()) {
    if (level % 2 == 0) {
      top_down_step(g, state);
    } else {
      bottom_up_step(g, state);
    }
    ++level;
  }
  EXPECT_EQ(state.reached, 127);
  for (vid_t v = 1; v < 127; ++v) {
    EXPECT_EQ(state.parent[static_cast<std::size_t>(v)], (v - 1) / 2);
  }
}

TEST(BottomUpStep, CandidateListShrinksBelowNAfterFirstLevel) {
  // Zero-rescan acceptance: after the first bottom-up level the scan
  // trip count must be the compacted unvisited list, strictly below n,
  // and it must shrink by exactly the discoveries of each level.
  const CsrGraph g = build_csr(make_binary_tree(127));
  const vid_t n = g.num_vertices();
  BfsState state(g, 0);

  const BottomUpStats first = bottom_up_step(g, state);
  // Priming happens after the root is visited, so even the first level
  // iterates n-1 candidates, and the list is exact afterwards.
  EXPECT_EQ(first.candidates, n - 1);
  EXPECT_EQ(static_cast<vid_t>(state.unvisited.size()),
            n - 1 - first.next_vertices);

  vid_t expected = n - 1 - first.next_vertices;
  while (!state.frontier_empty()) {
    const BottomUpStats s = bottom_up_step(g, state);
    EXPECT_EQ(s.candidates, expected);
    EXPECT_LT(s.candidates, n);
    EXPECT_EQ(s.unvisited_vertices, s.candidates);  // list is exact
    expected -= s.next_vertices;
  }
  EXPECT_EQ(state.reached, n);
}

TEST(BottomUpStep, ScratchBitmapStaysClearBetweenLevels) {
  // The reused next-frontier bitmap must return to all-zero after every
  // step (dirty-word wipe), or a later level would inherit phantom
  // frontier bits.
  const CsrGraph g = build_csr(graph::make_cycle(64));
  BfsState state(g, 0);
  EXPECT_EQ(state.bu_scratch.count(), 0u);
  while (!state.frontier_empty()) {
    bottom_up_step(g, state);
    EXPECT_EQ(state.bu_scratch.count(), 0u);
  }
  EXPECT_EQ(state.reached, 64);
}

TEST(BottomUpStep, CandidateListSurvivesTopDownInterleaving) {
  // A top-down step visits vertices behind the candidate list's back;
  // the next bottom-up step must skip those stragglers (keeping every
  // counter exact) and compact them away.
  const CsrGraph g = build_csr(make_binary_tree(255));
  BfsState state(g, 0);
  bottom_up_step(g, state);  // primes the list
  const std::size_t before = state.unvisited.size();
  top_down_step(g, state);   // visits level-2 vertices, list now stale
  const BottomUpStats s = bottom_up_step(g, state);
  EXPECT_EQ(static_cast<std::size_t>(s.candidates), before);
  EXPECT_LT(s.unvisited_vertices, s.candidates);  // stragglers skipped
  EXPECT_EQ(static_cast<vid_t>(state.unvisited.size()),
            static_cast<vid_t>(255) - state.reached);
  while (!state.frontier_empty()) bottom_up_step(g, state);
  for (vid_t v = 1; v < 255; ++v) {
    EXPECT_EQ(state.parent[static_cast<std::size_t>(v)], (v - 1) / 2);
  }
}

// --- bottom-up candidates: empty in-rows leave the list --------------

/// What a full 0..n bottom-up scan computes from `state`: the level's
/// counters, and the level and parent of every vertex it discovers.
struct FullScan {
  BottomUpStats stats;
  std::vector<std::int32_t> level;
  std::vector<vid_t> parent;
};

template <graph::TransposeView V>
FullScan full_scan_step(const V& g, const BfsState& state) {
  FullScan out;
  out.stats.frontier_vertices =
      static_cast<vid_t>(state.frontier_queue.size());
  out.level = state.level;
  out.parent = state.parent;
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    if (state.visited.test(static_cast<std::size_t>(v))) continue;
    ++out.stats.unvisited_vertices;
    eid_t walked = 0;
    vid_t from = kNoVertex;
    g.for_each_in_neighbor(v, [&](vid_t u) {
      ++walked;
      if (!state.frontier_bitmap.test(static_cast<std::size_t>(u))) {
        return true;
      }
      from = u;
      return false;
    });
    if (from == kNoVertex) {
      out.stats.edges_scanned_miss += walked;
      continue;
    }
    out.stats.edges_scanned_hit += walked;
    ++out.stats.next_vertices;
    out.level[static_cast<std::size_t>(v)] = state.current_level + 1;
    out.parent[static_cast<std::size_t>(v)] = from;
  }
  return out;
}

void expect_same_counters(const BottomUpStats& want, const BottomUpStats& got,
                          const char* what) {
  EXPECT_EQ(got.frontier_vertices, want.frontier_vertices) << what;
  EXPECT_EQ(got.unvisited_vertices, want.unvisited_vertices) << what;
  EXPECT_EQ(got.edges_scanned_hit, want.edges_scanned_hit) << what;
  EXPECT_EQ(got.edges_scanned_miss, want.edges_scanned_miss) << what;
  EXPECT_EQ(got.next_vertices, want.next_vertices) << what;
}

/// Traverses `g` from `root`, bottom-up at the levels `bottom_up(state)`
/// picks and top-down otherwise. Before each bottom-up step, the probe
/// and then the step must match a full 0..n scan: counters, levels and
/// parents. After it, the candidate list holds no empty in-row.
/// Returns the number of bottom-up levels.
template <graph::TransposeView V, typename Pick>
int expect_bottom_up_matches_full_scan(const V& g, vid_t root,
                                       Pick&& bottom_up) {
  BfsState state(g.num_vertices(), root);
  int bottom_up_levels = 0;
  while (!state.frontier_empty()) {
    SCOPED_TRACE(testing::Message() << "level " << state.current_level);
    if (!bottom_up(static_cast<const BfsState&>(state))) {
      top_down_step(g, state);
      continue;
    }
    const FullScan want = full_scan_step(g, state);
    expect_same_counters(want.stats, bottom_up_probe(g, state), "probe");
    expect_same_counters(want.stats, bottom_up_step(g, state), "step");
    EXPECT_EQ(state.level, want.level);
    EXPECT_EQ(state.parent, want.parent);
    for (const vid_t v : state.unvisited) {
      EXPECT_TRUE(graph::has_in_edge(g, v)) << "candidate " << v;
    }
    ++bottom_up_levels;
  }
  return bottom_up_levels;
}

/// The same check under three direction schedules — the M/N hybrid
/// (which may never pick bottom-up), alternating levels (top-down
/// leaves stragglers in the list), and bottom-up throughout — at 1 and
/// 4 threads.
template <graph::HybridView V>
void expect_candidate_rule(const V& g, vid_t root) {
  const ThreadCountGuard guard;
  const core::HybridPolicy policy{};
  for (const int threads : {1, 4}) {
    test::set_threads(threads);
    SCOPED_TRACE(testing::Message() << threads << " threads");
    (void)expect_bottom_up_matches_full_scan(g, root, [&](const BfsState& s) {
      return policy.decide(s.frontier_out_edges(g),
                           static_cast<vid_t>(s.frontier_queue.size()),
                           g.num_edges(),
                           g.num_vertices()) == Direction::kBottomUp;
    });
    EXPECT_GT(expect_bottom_up_matches_full_scan(
                  g, root,
                  [](const BfsState& s) { return s.current_level % 2 == 1; }),
              1);
    EXPECT_GT(expect_bottom_up_matches_full_scan(
                  g, root, [](const BfsState&) { return true; }),
              1);
  }
}

TEST(BottomUpCandidates, SymmetricRmatMatchesFullScan) {
  const CsrGraph g = rmat(12);
  ASSERT_GT(count_isolated(g), 0);
  expect_candidate_rule(graph::CsrGraphView(g),
                        graph::sample_roots(g, 1, 500)[0]);
}

TEST(BottomUpCandidates, GridWithWallsMatchesFullScan) {
  const CsrGraph g = walled_grid(48, 40, 0.3, 23);
  ASSERT_GT(count_isolated(g), 0);
  const vid_t root = graph::sample_roots(g, 1, 5)[0];
  expect_candidate_rule(graph::CsrGraphView(g), root);
  expect_candidate_rule(graph::CompressedCsrView(g), root);
}

// Directed R-MAT has vertices with out-edges but no in-edges: they can
// be roots, but bottom-up can never discover them.
TEST(BottomUpCandidates, DirectedRmatWithSourcesOnlyMatchesFullScan) {
  graph::RmatParams p;
  p.scale = 12;
  p.edgefactor = 8;
  p.seed = 77;
  const CsrGraph g = graph::build_directed_csr(graph::generate_rmat(p));
  vid_t sources_only = 0;
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    sources_only += g.out_degree(v) > 0 && g.in_degree(v) == 0;
  }
  ASSERT_GT(sources_only, 0);
  expect_candidate_rule(graph::CsrGraphView(g),
                        graph::sample_roots(g, 1, 500)[0]);
}

// The state check's superset rule skips vertices with empty in-rows,
// but dropping an unvisited vertex that has an in-edge is still caught.
TEST(BottomUpCandidates, StateCheckCatchesADroppedVertexWithInEdges) {
  const CsrGraph g = rmat(10);
  BfsState state(g, graph::sample_roots(g, 1, 500)[0]);
  bottom_up_step(g, state);
  check::CheckReport clean;
  state.check_invariants(g, clean);
  EXPECT_TRUE(clean.ok()) << clean.to_string();

  const auto victim = std::find_if(
      state.unvisited.begin(), state.unvisited.end(), [&](vid_t v) {
        return !state.visited.test(static_cast<std::size_t>(v));
      });
  ASSERT_NE(victim, state.unvisited.end());
  const vid_t dropped = *victim;
  ASSERT_GT(g.in_degree(dropped), 0);
  state.unvisited.erase(victim);
  check::CheckReport report;
  state.check_invariants(g, report);
  EXPECT_FALSE(report.ok());
  const std::string message = report.to_string();
  EXPECT_NE(message.find("unvisited vertex " + std::to_string(dropped)),
            std::string::npos)
      << message;
}

// --- bookkeeping that must not depend on the team size --------------

/// Everything one level step leaves behind. Top-down discovery order
/// is the schedule's, so its queue is compared as a set; bottom-up
/// writes the queue (and the candidate list) in ascending order.
struct StepRecord {
  Direction dir = Direction::kTopDown;
  std::vector<eid_t> counters;
  std::vector<vid_t> queue;
  std::vector<vid_t> unvisited;
  eid_t frontier_edges = 0;
};

struct HybridRecord {
  std::vector<StepRecord> steps;
  std::vector<std::int32_t> level;
  std::vector<vid_t> bottom_up_parent;  // kNoVertex where top-down found v
};

HybridRecord record_hybrid(const graph::CsrGraphView& g, vid_t root) {
  HybridRecord out;
  std::vector<bool> by_bottom_up(static_cast<std::size_t>(g.num_vertices()));
  BfsState state = traverse_hybrid(
      g, root,
      [&out, &by_bottom_up](const BfsState& s, Direction dir,
                            const TopDownStats& td, const BottomUpStats& bu) {
        StepRecord r;
        r.dir = dir;
        r.counters = {td.frontier_vertices,  td.frontier_edges,
                      td.next_vertices,      bu.frontier_vertices,
                      bu.unvisited_vertices, bu.candidates,
                      bu.edges_scanned_hit,  bu.edges_scanned_miss,
                      bu.next_vertices};
        r.queue = s.frontier_queue;
        if (dir == Direction::kTopDown) {
          std::sort(r.queue.begin(), r.queue.end());
        } else {
          for (const vid_t v : s.frontier_queue) {
            by_bottom_up[static_cast<std::size_t>(v)] = true;
          }
        }
        r.unvisited.assign(s.unvisited.begin(), s.unvisited.end());
        r.frontier_edges = s.frontier_edges;
        out.steps.push_back(std::move(r));
      });
  out.level = state.level;
  out.bottom_up_parent.assign(state.parent.size(), kNoVertex);
  for (std::size_t v = 0; v < state.parent.size(); ++v) {
    if (by_bottom_up[v]) out.bottom_up_parent[v] = state.parent[v];
  }
  return out;
}

void expect_same_record(const HybridRecord& want, const HybridRecord& got,
                        const char* run) {
  ASSERT_EQ(want.steps.size(), got.steps.size()) << run;
  for (std::size_t i = 0; i < want.steps.size(); ++i) {
    const StepRecord& a = want.steps[i];
    const StepRecord& b = got.steps[i];
    EXPECT_EQ(a.dir, b.dir) << run << " step " << i;
    EXPECT_EQ(a.counters, b.counters) << run << " step " << i;
    EXPECT_EQ(a.queue, b.queue) << run << " step " << i;
    EXPECT_EQ(a.unvisited, b.unvisited) << run << " step " << i;
    EXPECT_EQ(a.frontier_edges, b.frontier_edges) << run << " step " << i;
  }
  EXPECT_EQ(want.level, got.level) << run;
  EXPECT_EQ(want.bottom_up_parent, got.bottom_up_parent) << run;
}

TEST(HybridBookkeeping, IdenticalForEveryTeamSizeAndNestedTeams) {
  const graph::CsrGraph csr = rmat(14);
  const graph::CsrGraphView g(csr);
  const vid_t root = graph::sample_roots(csr, 1, 7)[0];
  const ThreadCountGuard guard;

  test::set_threads(1);
  const HybridRecord serial = record_hybrid(g, root);
  // The traversal must exercise both directions and the compaction.
  ASSERT_TRUE(std::any_of(serial.steps.begin(), serial.steps.end(),
                          [](const StepRecord& r) {
                            return r.dir == Direction::kBottomUp;
                          }));
  for (const int threads : {2, 4}) {
    test::set_threads(threads);
    const HybridRecord parallel = record_hybrid(g, root);
    expect_same_record(serial, parallel,
                       threads == 2 ? "2 threads" : "4 threads");
  }

#ifdef _OPENMP
  // A traversal started from inside a parallel region runs its level
  // steps in nested 1-thread teams while omp_get_max_threads() still
  // reports the outer width.
  test::set_threads(4);
  const int saved_levels = omp_get_max_active_levels();
  omp_set_max_active_levels(1);
  HybridRecord nested;
  bool in_parallel = false;
#pragma omp parallel num_threads(2)
  {
#pragma omp single
    {
      in_parallel = omp_in_parallel() != 0;
      nested = record_hybrid(g, root);
    }
  }
  omp_set_max_active_levels(saved_levels);
  ASSERT_TRUE(in_parallel);
  expect_same_record(serial, nested, "nested");
#endif  // _OPENMP
}

TEST(HybridBookkeeping, CarriedFrontierEdgesMatchQueueSumOnEveryView) {
  const auto csr = std::make_shared<const graph::CsrGraph>(rmat(12));
  const graph::CsrGraphView flat(*csr);
  const graph::CompressedCsrView compressed(*csr);
  // New vertices, a duplicate and removals: the overlay's degrees differ
  // from the base's on the patched rows.
  const std::vector<graph::Edge> inserts = {
      {1, 2}, {3, 4100}, {4100, 4101}, {7, 7}, {5, 9}, {5, 9}};
  const std::vector<graph::Edge> removes = {{0, 1}, {2, 3}};
  const graph::DeltaCsr delta =
      graph::DeltaCsr::apply(csr, nullptr, inserts, removes);
  const CsrGraph grid = walled_grid(96, 64, 0.2, 5);
  ASSERT_GT(count_isolated(grid), 0);

  const auto check = [](const auto& g, vid_t root, const char* name) {
    eid_t carried_before = -1;
    int levels = 0;
    traverse_hybrid(g, root,
                    [&](const BfsState& s, Direction dir,
                        const TopDownStats& td, const BottomUpStats&) {
                      // Top-down's in-loop |E|cq is the value the
                      // previous step carried.
                      if (dir == Direction::kTopDown && carried_before >= 0) {
                        EXPECT_EQ(td.frontier_edges, carried_before)
                            << name << " level " << levels;
                      }
                      EXPECT_EQ(s.frontier_edges,
                                frontier_out_edges(g, s.frontier_queue))
                          << name << " level " << levels;
                      carried_before = s.frontier_edges;
                      ++levels;
                    });
    EXPECT_GT(levels, 2) << name;
  };
  const vid_t root = graph::sample_roots(*csr, 1, 3)[0];
  check(flat, root, "CsrGraphView");
  check(compressed, root, "CompressedCsrView");
  check(delta, root, "DeltaCsr");
  const vid_t grid_root = graph::sample_roots(grid, 1, 3)[0];
  check(graph::CsrGraphView(grid), grid_root, "walled grid");
  check(graph::CompressedCsrView(grid), grid_root, "compressed walled grid");
}

TEST(HybridBookkeeping, EdgesInComponentMatchesSerialCount) {
  const graph::CsrGraph sym = rmat(12);
  graph::BuildOptions directed_opts;
  directed_opts.symmetrize = false;
  const graph::CsrGraph directed = rmat(12, directed_opts);
  ASSERT_FALSE(directed.is_symmetric());
  const CsrGraph grid = walled_grid(64, 64, 0.25, 9);
  ASSERT_GT(count_isolated(grid), 0);

  const auto check = [](const auto& g, vid_t root, const char* name) {
    BfsState state = traverse_hybrid(
        g, root, [](const BfsState&, Direction, const TopDownStats&,
                    const BottomUpStats&) {});
    eid_t directed_edges = 0;
    for (vid_t v = 0; v < g.num_vertices(); ++v) {
      if (state.parent[static_cast<std::size_t>(v)] != kNoVertex) {
        directed_edges += g.out_degree(v);
      }
    }
    const eid_t want =
        g.is_symmetric() ? directed_edges / 2 : directed_edges;
    const BfsResult r = std::move(state).take_result(g);
    EXPECT_GT(r.edges_in_component, 0) << name;
    EXPECT_EQ(r.edges_in_component, want) << name;
  };
  const ThreadCountGuard guard;
  for (const int threads : {1, 4}) {
    test::set_threads(threads);
    check(graph::CsrGraphView(sym), graph::sample_roots(sym, 1, 11)[0],
          "symmetric R-MAT");
    check(graph::CsrGraphView(directed),
          graph::sample_roots(directed, 1, 11)[0], "directed R-MAT");
    const vid_t grid_root = graph::sample_roots(grid, 1, 11)[0];
    check(graph::CsrGraphView(grid), grid_root, "walled grid");
    check(graph::CompressedCsrView(grid), grid_root, "compressed walled grid");
  }
}

// --- edge-balanced top-down levels ----------------------------------

/// Runs `run` at 1, 2 and 4 threads and, with OpenMP, once from inside
/// an enclosing parallel region (a nested 1-thread team), returning
/// each result under a label.
template <typename Run>
auto at_every_team_size(Run&& run) {
  using Result = decltype(run());
  std::vector<std::pair<std::string, Result>> out;
  const ThreadCountGuard guard;
  for (const int threads : {1, 2, 4}) {
    test::set_threads(threads);
    out.emplace_back(std::to_string(threads) + " threads", run());
  }
#ifdef _OPENMP
  test::set_threads(4);
  const int saved_levels = omp_get_max_active_levels();
  omp_set_max_active_levels(1);
  Result nested;
#pragma omp parallel num_threads(2)
  {
#pragma omp single
    nested = run();
  }
  omp_set_max_active_levels(saved_levels);
  out.emplace_back("nested", std::move(nested));
#endif  // _OPENMP
  return out;
}

/// Everything one top-down step leaves behind. The next queue is
/// compared as a set: its order is the schedule's.
struct TopDownRecord {
  std::vector<eid_t> counters;  // stats, then carried |E|cq and reached
  std::vector<std::uint64_t> visited;
  std::vector<std::int32_t> level;
  std::vector<vid_t> parent;
  std::vector<vid_t> queue;
};

/// Steps top-down from `root` up to `steps` times, recording each step.
template <typename V>
std::vector<TopDownRecord> record_top_down(const V& g, vid_t root,
                                           int steps) {
  std::vector<TopDownRecord> out;
  BfsState state(g.num_vertices(), root);
  for (int k = 0; k < steps && !state.frontier_empty(); ++k) {
    const TopDownStats s = top_down_step(g, state);
    TopDownRecord r;
    r.counters = {s.frontier_vertices, s.frontier_edges, s.next_vertices,
                  state.frontier_edges, state.reached};
    r.visited.assign(state.visited.words(),
                     state.visited.words() + state.visited.word_count());
    r.level = state.level;
    r.parent = state.parent;
    r.queue = state.frontier_queue;
    std::sort(r.queue.begin(), r.queue.end());
    out.push_back(std::move(r));
  }
  return out;
}

void expect_same_steps(const std::vector<TopDownRecord>& want,
                       const std::vector<TopDownRecord>& got,
                       const std::string& run) {
  ASSERT_EQ(want.size(), got.size()) << run;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].counters, got[i].counters) << run << " step " << i;
    EXPECT_TRUE(want[i].visited == got[i].visited) << run << " step " << i;
    EXPECT_TRUE(want[i].level == got[i].level) << run << " step " << i;
    EXPECT_TRUE(want[i].parent == got[i].parent) << run << " step " << i;
    EXPECT_EQ(want[i].queue, got[i].queue) << run << " step " << i;
  }
}

TEST(TopDownBalance, SmallRmatFrontierWithHubRowsIsScheduleIndependent) {
  const graph::CsrGraph csr = rmat(14);
  const graph::CsrGraphView g(csr);
  // A root whose level-1 frontier is under 64 vertices and holds a row
  // longer than one piece: the shape the old per-vertex schedule ran
  // on one thread.
  vid_t root = kNoVertex;
  for (vid_t r = 0; r < csr.num_vertices() && root == kNoVertex; ++r) {
    const auto row = csr.out_neighbors(r);
    if (row.empty() || row.size() >= 64) continue;
    if (std::any_of(row.begin(), row.end(), [&csr, r](vid_t v) {
          return v != r && csr.out_degree(v) > kPieceEdges;
        })) {
      root = r;
    }
  }
  ASSERT_NE(root, kNoVertex) << "no hub-adjacent root at scale 14";

  const auto runs =
      at_every_team_size([&g, root] { return record_top_down(g, root, 3); });
  const std::vector<TopDownRecord>& serial = runs.front().second;
  ASSERT_EQ(serial.size(), 3u);
  EXPECT_LT(serial[1].counters[0], 64);            // |V|cq of level 1
  EXPECT_GT(serial[1].counters[1], kPieceEdges);  // |E|cq of level 1
  for (std::size_t i = 1; i < runs.size(); ++i) {
    expect_same_steps(serial, runs[i].second, runs[i].first);
  }
}

TEST(TopDownBalance, StarCentreRowSplitsIdenticallyOnEveryView) {
  const vid_t n = 4 * static_cast<vid_t>(kPieceEdges) + 100;
  const CsrGraph csr = build_csr(make_star(n));
  ASSERT_GT(csr.out_degree(0), 4 * kPieceEdges);
  const graph::CsrGraphView flat(csr);
  const graph::CompressedCsrView compressed(csr);  // rows walked whole

  // From the centre, level 0 is its row; from a spoke, level 1 is.
  for (const vid_t root : {vid_t{0}, vid_t{1}}) {
    const auto runs = at_every_team_size(
        [&flat, root] { return record_top_down(flat, root, 3); });
    const std::vector<TopDownRecord>& serial = runs.front().second;
    const std::size_t hub_step = root == 0 ? 0 : 1;
    ASSERT_GT(serial.size(), hub_step);
    const TopDownRecord& hub = serial[hub_step];
    EXPECT_EQ(hub.counters[0], 1) << root;
    EXPECT_EQ(hub.counters[1], n - 1) << root;
    EXPECT_EQ(hub.counters[2], root == 0 ? n - 1 : n - 2) << root;
    for (vid_t v = 1; v < n; ++v) {
      if (v != root) {
        EXPECT_EQ(hub.parent[static_cast<std::size_t>(v)], 0);
      }
    }
    for (std::size_t i = 1; i < runs.size(); ++i) {
      expect_same_steps(serial, runs[i].second, runs[i].first);
    }
    const ThreadCountGuard guard;
    test::set_threads(4);
    expect_same_steps(serial, record_top_down(compressed, root, 3),
                      "CompressedCsrView");
  }
}

TEST(TopDownBalance, PiecesCoverEveryWeightedEdgeOnce) {
  const CsrGraph csr =
      build_csr(make_star(3 * static_cast<vid_t>(kPieceEdges)));
  const graph::CsrGraphView flat(csr);
  const graph::CompressedCsrView compressed(csr);
  // The centre's row spans three pieces; row 2 weighs nothing and must
  // not be walked, even on a view that walks rows whole.
  const std::vector<vid_t> rows = {1, 0, 7, 9};
  const std::vector<eid_t> weight = {1, csr.out_degree(0), 0, 1};
  std::vector<eid_t> offsets;
  std::vector<BlockSpan> spans;
  EXPECT_EQ(prefix_offsets(
                rows.size(), [&weight](std::size_t i) { return weight[i]; },
                offsets, spans),
            2 + csr.out_degree(0));
  ASSERT_EQ(offsets, (std::vector<eid_t>{0, 1, 1 + csr.out_degree(0),
                                         1 + csr.out_degree(0),
                                         2 + csr.out_degree(0)}));

  std::vector<std::pair<std::size_t, vid_t>> want;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (weight[i] == 0) continue;
    for (const vid_t w : csr.out_neighbors(rows[i])) want.emplace_back(i, w);
  }
  const auto walk = [&rows, &offsets](const auto& g, eid_t* longest) {
    std::vector<std::pair<std::size_t, vid_t>> got;
    for (std::int64_t p = 0; p < piece_count(offsets.back()); ++p) {
      const std::size_t before = got.size();
      expand_piece(g, rows, offsets.data(), p,
                   [&got](std::size_t i, vid_t w) { got.emplace_back(i, w); });
      *longest = std::max(*longest, static_cast<eid_t>(got.size() - before));
    }
    return got;
  };
  eid_t longest_split = 0;
  eid_t longest_whole = 0;
  EXPECT_EQ(walk(flat, &longest_split), want);
  EXPECT_EQ(walk(compressed, &longest_whole), want);
  EXPECT_EQ(longest_split, kPieceEdges);  // the centre's row is cut
  EXPECT_EQ(longest_whole, csr.out_degree(0) + 1);  // and here it is not
}

// --- the parent rule --------------------------------------------------

/// The parent every kernel returns, single-source or MS-BFS: the
/// smallest-id vertex one level up with an edge to v.
template <typename V>
std::vector<vid_t> canonical_parents(const V& g,
                                     const std::vector<std::int32_t>& level,
                                     vid_t root) {
  std::vector<vid_t> want(level.size(), kNoVertex);
  want[static_cast<std::size_t>(root)] = root;
  for (vid_t u = 0; u < g.num_vertices(); ++u) {
    const std::int32_t lu = level[static_cast<std::size_t>(u)];
    if (lu < 0) continue;
    g.for_each_out_neighbor(u, [&want, &level, lu, u](vid_t v) {
      const auto vi = static_cast<std::size_t>(v);
      // Ascending u: the first candidate is the smallest.
      if (want[vi] == kNoVertex && level[vi] == lu + 1) want[vi] = u;
    });
  }
  return want;
}

/// "" when the parent maps agree, else where they first differ.
std::string parent_mismatch(const std::vector<vid_t>& got,
                            const std::vector<vid_t>& want) {
  if (got.size() != want.size()) return "sizes differ";
  const auto [g, w] = std::mismatch(got.begin(), got.end(), want.begin());
  if (g == got.end()) return "";
  return "parent of " + std::to_string(g - got.begin()) + " is " +
         std::to_string(*g) + ", want " + std::to_string(*w);
}

/// The serial levels and the canonical parents of a traversal from
/// each of `roots`.
struct ParentOracle {
  std::vector<BfsResult> serial;
  std::vector<std::vector<vid_t>> want;
};

template <typename V>
ParentOracle parent_oracle(const V& g, const std::vector<vid_t>& roots) {
  ParentOracle o;
  for (const vid_t root : roots) {
    o.serial.push_back(run_serial(g, root));
    o.want.push_back(canonical_parents(g, o.serial.back().level, root));
  }
  return o;
}

TEST(CanonicalParents, EveryDriverReturnsTheSmallestParentOneLevelUp) {
  graph::BuildOptions directed_opts;
  directed_opts.symmetrize = false;
  const ThreadCountGuard guard;
  for (const bool symmetric : {true, false}) {
    const auto csr = std::make_shared<const graph::CsrGraph>(
        symmetric ? rmat(14) : rmat(14, directed_opts));
    ASSERT_EQ(csr->is_symmetric(), symmetric);
    const vid_t n = csr->num_vertices();
    const graph::CsrGraphView flat(*csr);
    const graph::CompressedCsrView compressed(*csr);
    // Inserts (one growing the vertex set) and removals: a delta epoch
    // whose patched rows differ from the base's.
    const std::vector<graph::Edge> inserts = {
        {1, 2}, {3, n + 2}, {n + 2, 5}, {11, 13}};
    std::vector<graph::Edge> removes;
    for (vid_t u = 0; u < n && removes.size() < 6; u += 41) {
      if (csr->out_degree(u) > 0) {
        removes.push_back({u, csr->out_neighbors(u)[0]});
      }
    }
    const graph::DeltaCsr delta = graph::DeltaCsr::apply(
        csr, nullptr, inserts, removes,
        symmetric ? graph::BuildOptions{} : directed_opts);
    const std::vector<vid_t> roots = graph::sample_roots(*csr, 2, 21);
    // An MS-BFS batch of 64 tree lanes, one root twice.
    std::vector<vid_t> batch =
        graph::sample_roots(*csr, kMsBfsMaxLanes - 1, 23);
    batch.push_back(batch[batch.size() / 2]);
    const ParentOracle flat_roots = parent_oracle(flat, roots);
    const ParentOracle flat_batch = parent_oracle(flat, batch);
    const ParentOracle delta_roots = parent_oracle(delta, roots);
    const ParentOracle delta_batch = parent_oracle(delta, batch);

    const auto check = [&roots, &batch](const auto& g,
                                        const ParentOracle& single,
                                        const ParentOracle& lanes,
                                        const std::string& where) {
      const auto expect = [&](const BfsResult& r, const ParentOracle& o,
                              std::size_t i, const std::string& driver) {
        EXPECT_TRUE(r.level == o.serial[i].level) << where << " " << driver;
        EXPECT_EQ(parent_mismatch(r.parent, o.want[i]), "")
            << where << " " << driver;
      };
      for (std::size_t i = 0; i < roots.size(); ++i) {
        const std::string root = " root " + std::to_string(roots[i]);
        expect(run_top_down(g, roots[i]), single, i, "top-down" + root);
        expect(run_bottom_up(g, roots[i]), single, i, "bottom-up" + root);
        BfsState hybrid = traverse_hybrid(
            g, roots[i], [](const BfsState&, Direction, const TopDownStats&,
                            const BottomUpStats&) {});
        expect(std::move(hybrid).take_result(g), single, i,
               "hybrid" + root);
      }
      const auto expect_pass = [&](const auto& policy, const char* name) {
        const MsBfsResult ms = ms_bfs(g, batch, policy);
        for (std::size_t l = 0; l < batch.size(); ++l) {
          expect(ms.per_root[l], lanes, l,
                 std::string(name) + " lane " + std::to_string(l) +
                     " root " + std::to_string(batch[l]));
        }
      };
      expect_pass(ForcedPolicy{Direction::kTopDown}, "MS-BFS top-down");
      expect_pass(ForcedPolicy{Direction::kBottomUp}, "MS-BFS bottom-up");
      expect_pass(core::HybridPolicy{}, "MS-BFS M/N");
    };
    for (const int threads : {1, 2, 4}) {
      test::set_threads(threads);
      const std::string where =
          std::string(symmetric ? "symmetric, " : "directed, ") +
          std::to_string(threads) + " threads, ";
      check(flat, flat_roots, flat_batch, where + "CsrGraphView");
      check(compressed, flat_roots, flat_batch, where + "CompressedCsrView");
      check(delta, delta_roots, delta_batch, where + "DeltaCsr");
    }
  }
}

TEST(FrontierHelpers, ParallelBitmapToQueueMatchesSerialDecode) {
  // Big enough (> 4096 words) to take the popcount-prefix parallel
  // path; the result must be the exact ascending order of for_each_set.
  const std::size_t n = 300000;
  graph::Bitmap bm(n);
  std::vector<vid_t> expect;
  for (std::size_t v = 0; v < n; v += 1 + (v % 97)) {
    bm.set(v);
    expect.push_back(static_cast<vid_t>(v));
  }
  std::vector<vid_t> queue{1, 2, 3};  // stale contents must be replaced
  bitmap_to_queue(bm, queue);
  EXPECT_EQ(queue, expect);
}

TEST(FrontierHelpers, ComplementDecodeListsEveryUnsetPosition) {
  // Sizes off a word boundary (the padding bits past size() are clear
  // in the words but are not vertices), below and above the parallel
  // cutoff.
  for (const std::size_t n : {std::size_t{1}, std::size_t{130},
                              std::size_t{300013}}) {
    graph::Bitmap bm(n);
    std::vector<vid_t> expect;
    for (std::size_t v = 0; v < n; ++v) {
      if (v % 3 == 0 || v % 7 == 1) {
        bm.set(v);
      } else {
        expect.push_back(static_cast<vid_t>(v));
      }
    }
    graph::UninitVector<vid_t> list = {5, 6};  // replaced, not appended
    std::vector<BlockSpan> spans;
    decode_bits(bm, /*complement=*/true, list, spans);
    EXPECT_TRUE(std::equal(list.begin(), list.end(), expect.begin(),
                           expect.end()))
        << "n = " << n;
  }
}

TEST(FrontierHelpers, OrderedFilterMatchesCopyIfInPlace) {
  const auto keep = [](vid_t v) { return v % 5 != 0 && v % 11 != 3; };
  const ThreadCountGuard guard;
  test::set_threads(4);
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, kCompactBlock - 1, kCompactBlock + 1,
        kCompactParallelMin + 3 * kCompactBlock + 17}) {
    std::vector<vid_t> input(n);
    for (std::size_t i = 0; i < n; ++i) {
      input[i] = static_cast<vid_t>((i * 7919) % (n + 13));
    }
    std::vector<vid_t> expect;
    std::copy_if(input.begin(), input.end(), std::back_inserter(expect),
                 keep);

    // Staging in the source array itself, as the candidate compaction
    // does.
    std::vector<vid_t> staged = input;
    std::vector<vid_t> out;
    std::vector<BlockSpan> spans;
    const vid_t* from = staged.data();
    filter_ordered(
        n, staged.data(), spans, out, [from](std::size_t i) { return from[i]; },
        keep);
    EXPECT_EQ(out, expect) << "n = " << n;

    // Same answer from a nested 1-thread team.
    std::vector<vid_t> nested;
    std::vector<vid_t> restaged = input;
    const vid_t* refrom = restaged.data();
#pragma omp parallel num_threads(2)
    {
#pragma omp single
      filter_ordered(
          n, restaged.data(), spans, nested,
          [refrom](std::size_t i) { return refrom[i]; }, keep);
    }
    EXPECT_EQ(nested, expect) << "nested, n = " << n;
  }
}

TEST(FrontierHelpers, QueueBitmapRoundTrip) {
  graph::Bitmap bm(100);
  const std::vector<vid_t> q = {3, 17, 64, 99};
  for (const vid_t v : q) bm.set(static_cast<std::size_t>(v));
  EXPECT_EQ(bm.count(), 4u);
  std::vector<vid_t> back;
  bitmap_to_queue(bm, back);
  EXPECT_EQ(back, q);
}

TEST(FrontierHelpers, OutEdgeCount) {
  const CsrGraph g = build_csr(make_star(5));
  EXPECT_EQ(frontier_out_edges(g, {0}), 4);
  EXPECT_EQ(frontier_out_edges(g, {1, 2}), 2);
  EXPECT_EQ(frontier_out_edges(g, {}), 0);
}

// --- top-down scratch reuse -------------------------------------------

TEST(TopDownScratch, CapacityStableAcrossRepeatTraversals) {
  // Serial team: the dynamic schedule degenerates to one deterministic
  // thread, so per-part discovery counts — and therefore high-water
  // capacities — are identical run to run. (With >1 thread the chunk
  // assignment is scheduler-dependent and capacities are only
  // eventually stable, which a unit test cannot pin.)
  const graph::CsrGraph g = rmat(14);
  const graph::CsrGraphView view(g);
  const graph::vid_t root = graph::sample_roots(g, 1, 500)[0];
  test::set_threads(1);

  BfsState state(g.num_vertices(), root);
  // Warm-up runs: buffers reach their high-water marks, and the
  // td_next/frontier_queue swap pair settles (the pair alternates
  // storage, so both sides need one full traversal to size up).
  for (int run = 0; run < 2; ++run) {
    state.reset(g.num_vertices(), root);
    while (!state.frontier_empty()) top_down_step(view, state);
  }
  ASSERT_FALSE(state.td_local_next.empty());
  std::vector<std::size_t> part_caps;
  for (const auto& part : state.td_local_next) {
    part_caps.push_back(part.items.capacity());
  }
  const std::size_t next_cap = state.td_next.capacity();
  const std::size_t queue_cap = state.frontier_queue.capacity();
  const std::size_t offsets_cap = state.td_offsets.capacity();
  ASSERT_GT(offsets_cap, 1u);

  // Steady state: a further traversal must not grow any buffer — zero
  // growth means zero steady-state allocation.
  state.reset(g.num_vertices(), root);
  while (!state.frontier_empty()) top_down_step(view, state);
  ASSERT_EQ(state.td_local_next.size(), part_caps.size());
  for (std::size_t i = 0; i < part_caps.size(); ++i) {
    EXPECT_EQ(state.td_local_next[i].items.capacity(), part_caps[i]) << i;
  }
  EXPECT_EQ(state.td_next.capacity(), next_cap);
  EXPECT_EQ(state.frontier_queue.capacity(), queue_cap);
  EXPECT_EQ(state.td_offsets.capacity(), offsets_cap);
}

TEST(TopDownScratch, ParallelRunsKeepTeamWidthAndResults) {
  const graph::CsrGraph g = rmat(12);
  const graph::CsrGraphView view(g);
  const graph::vid_t root = graph::sample_roots(g, 1, 500)[0];
  test::set_threads(4);
  BfsState state(g.num_vertices(), root);
  while (!state.frontier_empty()) top_down_step(view, state);
  const std::size_t parts = state.td_local_next.size();
  ASSERT_GE(parts, 1u);
  const vid_t reached_first = state.reached;
  // Reuse across runs never re-sizes the per-thread buffer vector and
  // reproduces the traversal exactly.
  for (int run = 0; run < 2; ++run) {
    state.reset(g.num_vertices(), root);
    while (!state.frontier_empty()) top_down_step(view, state);
    EXPECT_EQ(state.td_local_next.size(), parts);
    EXPECT_EQ(state.reached, reached_first);
  }
}

TEST(TopDownScratch, ResetClearsPartsButKeepsCapacity) {
  const graph::CsrGraph g = rmat(10);
  const graph::CsrGraphView view(g);
  BfsState state(g.num_vertices(), graph::vid_t{0});
  while (!state.frontier_empty()) top_down_step(view, state);
  const std::size_t caps = state.td_next.capacity();
  const std::size_t offsets_cap = state.td_offsets.capacity();
  state.reset(g.num_vertices(), graph::vid_t{1});
  EXPECT_TRUE(state.td_next.empty());
  EXPECT_TRUE(state.td_offsets.empty());
  for (const auto& part : state.td_local_next) {
    EXPECT_TRUE(part.items.empty());
  }
  EXPECT_EQ(state.td_next.capacity(), caps);
  EXPECT_EQ(state.td_offsets.capacity(), offsets_cap);
}

// --- bottom-up candidate reserve ---------------------------------------

TEST(BottomUpReserve, UnvisitedReservesRemainderNotWholeGraph) {
  const graph::CsrGraph g = rmat(14);
  const auto n = static_cast<std::size_t>(g.num_vertices());
  const graph::vid_t root = graph::sample_roots(g, 1, 500)[0];
  test::set_threads(1);

  // Run top-down until a sizable share of the graph is visited, then
  // prime the candidate list via one bottom-up step.
  BfsState state(g, root);
  while (!state.frontier_empty() &&
         static_cast<std::size_t>(state.reached) < n / 4) {
    top_down_step(g, state);
  }
  ASSERT_FALSE(state.frontier_empty()) << "graph too small for the scenario";
  const auto reached_before = static_cast<std::size_t>(state.reached);
  ASSERT_GT(reached_before, 1u);
  bottom_up_step(g, state);
  ASSERT_TRUE(state.unvisited_primed);
  // Regression pin for the right-sized reserve: the serial prime used
  // to reserve n slots; it must now hold at most n - reached_before.
  EXPECT_LE(state.unvisited.capacity(), n - reached_before);
  EXPECT_GE(state.unvisited.capacity(), state.unvisited.size());
}

}  // namespace
}  // namespace bfsx::bfs
