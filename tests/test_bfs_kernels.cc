// Unit tests for the top-down and bottom-up level-step kernels.
#include <gtest/gtest.h>

#include <omp.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "bfs/bottomup.h"
#include "bfs/frontier.h"
#include "bfs/topdown.h"
#include "core/hybrid_policy.h"
#include "graph/builder.h"
#include "graph/compressed_csr.h"
#include "graph/delta_csr.h"
#include "graph/generators.h"
#include "graph/graph_stats.h"
#include "graph/grid_view.h"
#include "graph/rmat.h"
#include "graph/view.h"

namespace bfsx::bfs {
namespace {

using graph::build_csr;
using graph::make_binary_tree;
using graph::make_path;
using graph::make_star;

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

/// Restores the OpenMP team width a test changes.
class ThreadCountGuard {
 public:
  ThreadCountGuard() : saved_(omp_get_max_threads()) {}
  ~ThreadCountGuard() { omp_set_num_threads(saved_); }
  ThreadCountGuard(const ThreadCountGuard&) = delete;
  ThreadCountGuard& operator=(const ThreadCountGuard&) = delete;

 private:
  int saved_;
};

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
  for (vid_t v = 1; v < 10; ++v) EXPECT_EQ(state.parent[v], 0);
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
  for (vid_t v = 1; v < 6; ++v) EXPECT_EQ(state.parent[v], 0);
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
                      bu.next_vertices,      bu.hub_probes,
                      bu.hub_hits};
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

  omp_set_num_threads(1);
  const HybridRecord serial = record_hybrid(g, root);
  // The traversal must exercise both directions and the compaction.
  ASSERT_TRUE(std::any_of(serial.steps.begin(), serial.steps.end(),
                          [](const StepRecord& r) {
                            return r.dir == Direction::kBottomUp;
                          }));
  for (const int threads : {2, 4}) {
    omp_set_num_threads(threads);
    const HybridRecord parallel = record_hybrid(g, root);
    expect_same_record(serial, parallel,
                       threads == 2 ? "2 threads" : "4 threads");
  }

  // A traversal started from inside a parallel region runs its level
  // steps in nested 1-thread teams while omp_get_max_threads() still
  // reports the outer width.
  omp_set_num_threads(4);
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
  const graph::GridWorld grid(graph::GridSpec{
      .width = 96, .height = 64, .wall_density = 0.2, .wall_seed = 5});

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
  check(grid, graph::sample_view_roots(grid, 1, 3)[0], "GridWorld");
}

TEST(HybridBookkeeping, EdgesInComponentMatchesSerialCount) {
  const graph::CsrGraph sym = rmat(12);
  graph::BuildOptions directed_opts;
  directed_opts.symmetrize = false;
  const graph::CsrGraph directed = rmat(12, directed_opts);
  ASSERT_FALSE(directed.is_symmetric());
  const graph::GridWorld grid(graph::GridSpec{
      .width = 64, .height = 64, .wall_density = 0.25, .wall_seed = 9});

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
    omp_set_num_threads(threads);
    check(graph::CsrGraphView(sym), graph::sample_roots(sym, 1, 11)[0],
          "symmetric R-MAT");
    check(graph::CsrGraphView(directed),
          graph::sample_roots(directed, 1, 11)[0], "directed R-MAT");
    check(grid, graph::sample_view_roots(grid, 1, 11)[0], "grid");
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
    graph::numa::vector<vid_t> list = {5, 6};  // replaced, not appended
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
  omp_set_num_threads(4);
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

}  // namespace
}  // namespace bfsx::bfs
