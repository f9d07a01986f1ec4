// Tests for LandmarkCache::repaired() (serve/landmark_cache.h): the
// incremental re-arm the engine uses on insert-only publishes. The
// contract under test is exactness — a repaired cache's rows must be
// cell-for-cell identical to build_with() recomputed from scratch over
// the new graph with the same landmark set — plus the cost claim that
// repair work scales with the vertices whose distance actually
// changed, not with |V| * lanes.
#include "serve/landmark_cache.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "graph/builder.h"
#include "graph/delta_csr.h"
#include "graph/generators.h"
#include "graph/prng.h"
#include "graph/rmat.h"
#include "graph/view.h"

namespace bfsx::serve {
namespace {

using graph::CsrGraph;
using graph::CsrGraphView;
using graph::Edge;
using graph::EdgeList;
using graph::vid_t;

CsrGraph rebuild(const std::set<std::pair<vid_t, vid_t>>& pairs, vid_t n) {
  EdgeList el;
  el.num_vertices = n;
  for (const auto& [u, v] : pairs) el.add(u, v);
  return graph::build_csr(std::move(el));
}

std::set<std::pair<vid_t, vid_t>> undirected_pairs(const CsrGraph& g) {
  std::set<std::pair<vid_t, vid_t>> pairs;
  for (vid_t u = 0; u < g.num_vertices(); ++u) {
    for (const vid_t w : g.out_neighbors(u)) {
      pairs.emplace(std::min(u, w), std::max(u, w));
    }
  }
  return pairs;
}

/// Every covered (landmark, target) pair must answer identically; the
/// cache's public surface exposes exactly the rows repair maintains.
void expect_rows_identical(const LandmarkCache& repaired,
                           const LandmarkCache& rebuilt, vid_t n) {
  ASSERT_EQ(repaired.landmarks(), rebuilt.landmarks());
  ASSERT_EQ(repaired.epoch(), rebuilt.epoch());
  for (const vid_t l : rebuilt.landmarks()) {
    for (vid_t t = 0; t < n; ++t) {
      const auto a = repaired.distance(l, t);
      const auto b = rebuilt.distance(l, t);
      ASSERT_EQ(a.has_value(), b.has_value()) << l << " -> " << t;
      if (a.has_value()) ASSERT_EQ(*a, *b) << l << " -> " << t;
    }
  }
}

TEST(LandmarkRepair, FuzzedInsertBatchesMatchFullRecompute) {
  graph::RmatParams p;
  p.scale = 9;
  p.edgefactor = 6;
  p.seed = 91;
  CsrGraph g = graph::build_csr(graph::generate_rmat(p));
  auto oracle = undirected_pairs(g);

  LandmarkCache cache = LandmarkCache::build(CsrGraphView(g), 0, 12);
  ASSERT_FALSE(cache.landmarks().empty());
  const std::vector<vid_t> landmarks = cache.landmarks();

  graph::Xoshiro256ss rng(2026);
  for (std::uint64_t round = 1; round <= 8; ++round) {
    // 1..8 directed insert ops; occasionally grow the vertex set.
    const std::size_t batch = 1 + rng.next_bounded(8);
    std::vector<Edge> inserts;
    vid_t n = g.num_vertices();
    for (std::size_t i = 0; i < batch; ++i) {
      const auto u = static_cast<vid_t>(
          rng.next_bounded(static_cast<std::uint64_t>(n)));
      vid_t v;
      if (rng.next_bounded(8) == 0) {
        v = n;  // grow by one
        n = static_cast<vid_t>(n + 1);
      } else {
        v = static_cast<vid_t>(
            rng.next_bounded(static_cast<std::uint64_t>(n)));
      }
      if (u == v) continue;  // self-loops are publish no-ops
      inserts.push_back({u, v});
      oracle.emplace(std::min(u, v), std::max(u, v));
    }

    CsrGraph next = rebuild(oracle, n);
    RepairStats rs;
    const LandmarkCache repaired =
        cache.repaired(CsrGraphView(next), inserts, round, &rs);
    const LandmarkCache recomputed =
        LandmarkCache::build_with(CsrGraphView(next), round, landmarks);
    expect_rows_identical(repaired, recomputed, next.num_vertices());
    EXPECT_EQ(repaired.landmarks(), landmarks);

    g = std::move(next);
    cache = repaired;  // chain: repair on top of repair stays exact
  }
}

TEST(LandmarkRepair, RepairOverDeltaEpochMatchesRepairOverFlat) {
  // The serve layer hands repaired() the DeltaCsr overlay, not a flat
  // rebuild; both views of the same graph must repair identically.
  const auto base = std::make_shared<const CsrGraph>(
      graph::build_csr(graph::make_grid(16, 16)));
  const LandmarkCache cache = LandmarkCache::build(CsrGraphView(*base), 0, 8);

  const std::vector<Edge> inserts = {{0, 255}, {10, 200}};
  const graph::DeltaCsr d = graph::DeltaCsr::apply(base, nullptr, inserts, {});
  const CsrGraph flat = graph::build_csr(d.materialize_edges());

  const LandmarkCache via_delta = cache.repaired(d, inserts, 1);
  const LandmarkCache via_flat = cache.repaired(CsrGraphView(flat), inserts, 1);
  expect_rows_identical(via_delta, via_flat, flat.num_vertices());
  expect_rows_identical(
      via_delta, LandmarkCache::build_with(d, 1, cache.landmarks()),
      flat.num_vertices());
}

TEST(LandmarkRepair, CostScalesWithAffectedVerticesNotGraphSize) {
  // 40x40 grid, 1600 vertices. A duplicate insert changes no distance
  // and must do zero repair work; a short local chord must relax far
  // fewer cells than lanes * |V| (the full-recompute cost floor).
  const CsrGraph g = graph::build_csr(graph::make_grid(40, 40));
  const vid_t n = g.num_vertices();
  const LandmarkCache cache = LandmarkCache::build(CsrGraphView(g), 0, 8);
  const std::size_t lanes = cache.landmarks().size();
  ASSERT_GT(lanes, 0u);

  // Duplicate of an existing edge: no distance can decrease.
  {
    const std::vector<Edge> dup = {{0, 1}};
    RepairStats rs;
    (void)cache.repaired(CsrGraphView(g), dup, 1, &rs);
    EXPECT_EQ(rs.seeds, 0u);
    EXPECT_EQ(rs.relaxed, 0u);
    EXPECT_EQ(rs.lowered, 0u);
  }

  // Chord between two vertices at distance 2 (grid corners of one
  // cell): only a local neighbourhood can improve.
  {
    const std::vector<Edge> chord = {{0, 41}};  // (0,0) -> (1,1)
    auto pairs = undirected_pairs(g);
    pairs.emplace(0, 41);
    const CsrGraph next = rebuild(pairs, n);
    RepairStats rs;
    const LandmarkCache repaired =
        cache.repaired(CsrGraphView(next), chord, 1, &rs);
    expect_rows_identical(
        repaired,
        LandmarkCache::build_with(CsrGraphView(next), 1, cache.landmarks()),
        n);
    // Full recompute touches every cell: lanes * n. Repair must stay
    // an order of magnitude under that.
    EXPECT_LT(rs.relaxed, lanes * static_cast<std::size_t>(n) / 10);
  }
}

TEST(LandmarkRepair, VertexGrowthRepairsExactly) {
  const CsrGraph g = graph::build_csr(graph::make_star(32));
  const LandmarkCache cache = LandmarkCache::build(CsrGraphView(g), 0, 4);

  // Attach a two-vertex tail past the current vertex count.
  const std::vector<Edge> inserts = {{5, 33}, {33, 34}};
  auto pairs = undirected_pairs(g);
  pairs.emplace(5, 33);
  pairs.emplace(33, 34);
  const CsrGraph next = rebuild(pairs, 35);

  RepairStats rs;
  const LandmarkCache repaired =
      cache.repaired(CsrGraphView(next), inserts, 1, &rs);
  expect_rows_identical(
      repaired,
      LandmarkCache::build_with(CsrGraphView(next), 1, cache.landmarks()),
      next.num_vertices());
  // The grown vertices start unreachable and must have been lowered in.
  EXPECT_GT(rs.lowered, 0u);
  for (const vid_t l : cache.landmarks()) {
    EXPECT_TRUE(repaired.distance(l, 34).has_value());
  }
}

TEST(LandmarkRepair, EmptyCacheRepairsToEmptyCache) {
  const CsrGraph g = graph::build_csr(graph::make_path(8));
  const LandmarkCache cache = LandmarkCache::build(CsrGraphView(g), 0, 0);
  ASSERT_TRUE(cache.landmarks().empty());
  RepairStats rs;
  const std::vector<Edge> inserts = {{0, 7}};
  const LandmarkCache repaired =
      cache.repaired(CsrGraphView(g), inserts, 1, &rs);
  EXPECT_TRUE(repaired.landmarks().empty());
  EXPECT_EQ(rs.lanes, 0u);
  EXPECT_FALSE(repaired.distance(0, 7).has_value());
}

TEST(LandmarkRepair, BuildWithRejectsBadLandmarkLists) {
  // A duplicate would take a second MS-BFS lane and leave the vertex's
  // lane pointing at the last copy; an out-of-range id has no row.
  const CsrGraph g = graph::build_csr(graph::make_path(8));
  EXPECT_THROW((void)LandmarkCache::build_with(CsrGraphView(g), 0, {2, 5, 2}),
               std::invalid_argument);
  EXPECT_THROW((void)LandmarkCache::build_with(CsrGraphView(g), 0, {2, 8}),
               std::invalid_argument);
  const LandmarkCache ok =
      LandmarkCache::build_with(CsrGraphView(g), 0, {5, 2});
  EXPECT_EQ(ok.distance(2, 7), 5);
  EXPECT_EQ(ok.distance(5, 0), 5);
}

}  // namespace
}  // namespace bfsx::serve
