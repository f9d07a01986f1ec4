// Tests for the memory-subsystem tuning knobs (bfs/mem_tuning.h):
// prefetch and hub-cache result equality against the untuned kernels,
// the scratch-reuse contract of the top-down step (no steady-state
// allocation, piece offsets included), and the bottom-up candidate
// list's right-sized reserve.
#include "bfs/mem_tuning.h"

#include <gtest/gtest.h>

#include <omp.h>

#include <cstdint>
#include <vector>

#include "bfs/bottomup.h"
#include "bfs/drivers.h"
#include "bfs/frontier.h"
#include "bfs/hub_cache.h"
#include "bfs/state.h"
#include "bfs/topdown.h"
#include "core/hybrid_policy.h"
#include "graph/builder.h"
#include "graph/graph_stats.h"
#include "graph/rmat.h"
#include "graph/view.h"

namespace bfsx::bfs {
namespace {

graph::CsrGraph rmat(int scale, std::uint64_t seed = 2014) {
  graph::RmatParams p;
  p.scale = scale;
  p.edgefactor = 16;
  p.seed = seed;
  return graph::build_csr(graph::generate_rmat(p));
}

/// Full hybrid traversal with explicit tuning; returns the final state
/// so tests can inspect scratch capacities.
BfsState traverse_hybrid(const graph::CsrGraphView& g, graph::vid_t root,
                         MemTuning tuning, BottomUpStats* bu_totals = nullptr) {
  const core::HybridPolicy policy{};
  BfsState state(g.num_vertices(), root);
  while (!state.frontier_empty()) {
    const graph::eid_t e_cq = frontier_out_edges(g, state.frontier_queue);
    const auto v_cq = static_cast<graph::vid_t>(state.frontier_queue.size());
    if (policy.decide(e_cq, v_cq, g.num_edges(), g.num_vertices()) ==
        Direction::kTopDown) {
      top_down_step(g, state, tuning);
    } else {
      const BottomUpStats s = bottom_up_step(g, state, tuning);
      if (bu_totals != nullptr) {
        bu_totals->hub_probes += s.hub_probes;
        bu_totals->hub_hits += s.hub_hits;
      }
    }
  }
  return state;
}

// --- prefetch -------------------------------------------------------

TEST(Prefetch, TraversalBitEqualToUntuned) {
  const graph::CsrGraph g = rmat(14);
  const graph::CsrGraphView view(g);
  const graph::vid_t root = graph::sample_roots(g, 1, 500)[0];
  for (const int threads : {1, 4}) {
    omp_set_num_threads(threads);
    BfsState plain = traverse_hybrid(view, root, MemTuning{});
    MemTuning tuned;
    tuned.prefetch.distance = 8;
    BfsState pf = traverse_hybrid(view, root, tuned);
    // Prefetching is a pure hint: identical discovery order, so parents
    // — not just levels — must match bit for bit.
    ASSERT_EQ(plain.reached, pf.reached);
    ASSERT_EQ(plain.parent, pf.parent);
    ASSERT_EQ(plain.level, pf.level);
  }
}

TEST(Prefetch, DistanceZeroIsTheDefault) {
  EXPECT_FALSE(PrefetchConfig{}.enabled());
  PrefetchConfig on;
  on.distance = 1;
  EXPECT_TRUE(on.enabled());
  EXPECT_EQ(MemTuning{}.hub_cache, nullptr);
}

// --- hub cache ------------------------------------------------------

TEST(HubCacheTuning, LevelsExactParentsValid) {
  const graph::CsrGraph g = rmat(14);
  const graph::CsrGraphView view(g);
  const HubCache hub(g, 512);
  ASSERT_GT(hub.num_hubs(), 0u);
  const graph::vid_t root = graph::sample_roots(g, 1, 500)[0];
  for (const int threads : {1, 4}) {
    omp_set_num_threads(threads);
    BfsState plain = traverse_hybrid(view, root, MemTuning{});
    MemTuning tuned;
    tuned.hub_cache = &hub;
    BottomUpStats totals;
    BfsState cached = traverse_hybrid(view, root, tuned, &totals);
    // Distances are exact (a hub in-neighbour is an in-neighbour);
    // parents may legally differ, but every parent must be a real
    // in-neighbour one level up.
    ASSERT_EQ(plain.reached, cached.reached);
    ASSERT_EQ(plain.level, cached.level);
    for (std::size_t v = 0; v < cached.parent.size(); ++v) {
      const graph::vid_t p = cached.parent[v];
      if (p == graph::kNoVertex || static_cast<graph::vid_t>(v) == root) {
        continue;
      }
      ASSERT_EQ(cached.level[v],
                cached.level[static_cast<std::size_t>(p)] + 1)
          << v;
      ASSERT_TRUE(g.has_edge(p, static_cast<graph::vid_t>(v))) << v;
    }
    // Mid-traversal levels of an R-MAT graph probe hubs constantly; a
    // zero hit count would mean the cache never engaged.
    EXPECT_GT(totals.hub_probes, 0);
    EXPECT_GT(totals.hub_hits, 0);
    EXPECT_LE(totals.hub_hits, totals.hub_probes);
  }
}

TEST(HubCacheTuning, SnapshotTracksFrontierMembership) {
  const graph::CsrGraph g = rmat(10);
  const HubCache hub(g, 64);
  ASSERT_GT(hub.num_hubs(), 0u);
  graph::Bitmap frontier(static_cast<std::size_t>(g.num_vertices()));
  // Put hubs of even rank in the frontier.
  for (std::size_t r = 0; r < hub.num_hubs(); r += 2) {
    frontier.set(static_cast<std::size_t>(
        hub.hub(static_cast<std::uint16_t>(r))));
  }
  graph::Bitmap bits(0);
  hub.snapshot_frontier(frontier, bits);
  ASSERT_EQ(bits.size(), hub.num_hubs());
  for (std::size_t r = 0; r < hub.num_hubs(); ++r) {
    EXPECT_EQ(bits.test(r), r % 2 == 0) << r;
  }
  // Re-snapshot after clearing: stale bits must not survive.
  frontier.reset();
  hub.snapshot_frontier(frontier, bits);
  for (std::size_t r = 0; r < hub.num_hubs(); ++r) {
    EXPECT_FALSE(bits.test(r)) << r;
  }
}

TEST(HubCacheTuning, ZeroKDisables) {
  const graph::CsrGraph g = rmat(10);
  const HubCache hub(g, 0);
  EXPECT_EQ(hub.num_hubs(), 0u);
  EXPECT_EQ(hub.total_hub_entries(), 0u);
  // A zero-hub cache on the tuning struct must be equivalent to no
  // cache at all (the kernel drops to the stock path).
  const graph::CsrGraphView view(g);
  const graph::vid_t root = graph::sample_roots(g, 1, 11)[0];
  MemTuning tuned;
  tuned.hub_cache = &hub;
  BottomUpStats totals;
  BfsState cached = traverse_hybrid(view, root, tuned, &totals);
  BfsState plain = traverse_hybrid(view, root, MemTuning{});
  EXPECT_EQ(totals.hub_probes, 0);
  EXPECT_EQ(cached.parent, plain.parent);
  EXPECT_EQ(cached.level, plain.level);
}

// --- scratch reuse (S1) ---------------------------------------------

TEST(TopDownScratch, CapacityStableAcrossRepeatTraversals) {
  // Serial team: the dynamic schedule degenerates to one deterministic
  // thread, so per-part discovery counts — and therefore high-water
  // capacities — are identical run to run. (With >1 thread the chunk
  // assignment is scheduler-dependent and capacities are only
  // eventually stable, which a unit test cannot pin.)
  const graph::CsrGraph g = rmat(14);
  const graph::CsrGraphView view(g);
  const graph::vid_t root = graph::sample_roots(g, 1, 500)[0];
  omp_set_num_threads(1);

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
  omp_set_num_threads(4);
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

// --- bottom-up reserve (S2) -----------------------------------------

TEST(BottomUpReserve, UnvisitedReservesRemainderNotWholeGraph) {
  const graph::CsrGraph g = rmat(14);
  const auto n = static_cast<std::size_t>(g.num_vertices());
  const graph::vid_t root = graph::sample_roots(g, 1, 500)[0];
  omp_set_num_threads(1);

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
