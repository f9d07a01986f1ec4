// bfs::pair_distance: every bidirectional-search distance must equal
// the level graph500::reference_bfs gives the target, on symmetric and
// directed graphs, on long paths where both sides run many rounds, and
// on delta epochs, vertex-grown ones included. One scratch reused across
// queries and graphs must answer exactly as a fresh one.
#include "bfs/pair_distance.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "graph/builder.h"
#include "graph/delta_csr.h"
#include "graph/generators.h"
#include "graph/graph_stats.h"
#include "graph/prng.h"
#include "graph/rmat.h"
#include "graph500/reference_bfs.h"

namespace bfsx::bfs {
namespace {

using graph::CsrGraph;
using graph::Edge;
using graph::EdgeList;
using graph::vid_t;

struct Pair {
  vid_t s = 0;
  vid_t t = 0;
};

CsrGraph rmat(int scale, int edgefactor, std::uint64_t seed,
              bool directed = false) {
  graph::RmatParams p;
  p.scale = scale;
  p.edgefactor = edgefactor;
  p.seed = seed;
  EdgeList el = graph::generate_rmat(p);
  return directed ? graph::build_directed_csr(std::move(el))
                  : graph::build_csr(std::move(el));
}

/// `sources` sampled non-isolated sources, each paired with `per_source`
/// uniformly drawn targets (isolated and unreachable ones included) and
/// with itself.
std::vector<Pair> sample_pairs(const CsrGraph& g, int sources, int per_source,
                               std::uint64_t seed) {
  graph::Xoshiro256ss rng(seed);
  const auto n = static_cast<std::uint64_t>(g.num_vertices());
  std::vector<Pair> pairs;
  for (const vid_t s : graph::sample_roots(g, sources, seed)) {
    pairs.push_back({s, s});
    for (int k = 0; k < per_source; ++k) {
      pairs.push_back({s, static_cast<vid_t>(rng.next_bounded(n))});
    }
  }
  return pairs;
}

/// Checks every pair against the reference levels of `oracle` (the same
/// graph as `view`, flat), once through `shared` and once through a
/// fresh scratch. Returns how many pairs it checked.
template <typename View>
std::size_t expect_pairs_match(const View& view, const CsrGraph& oracle,
                               const std::vector<Pair>& pairs,
                               PairScratch& shared) {
  vid_t last = graph::kNoVertex;
  BfsResult ref;
  for (const Pair& p : pairs) {
    if (p.s != last) {
      ref = graph500::reference_bfs(oracle, p.s);
      last = p.s;
    }
    const std::int32_t want = ref.level[static_cast<std::size_t>(p.t)];
    PairScratch fresh;
    EXPECT_EQ(pair_distance(view, p.s, p.t, shared), want)
        << "s " << p.s << " t " << p.t << " (reused scratch)";
    EXPECT_EQ(pair_distance(view, p.s, p.t, fresh), want)
        << "s " << p.s << " t " << p.t << " (fresh scratch)";
  }
  return pairs.size();
}

TEST(PairDistance, SymmetricRmatMatchesReference) {
  const CsrGraph g = rmat(12, 16, 7);
  PairScratch scratch;
  EXPECT_GE(expect_pairs_match(graph::CsrGraphView(g), g,
                               sample_pairs(g, 40, 30, 11), scratch),
            1000u);
}

TEST(PairDistance, DirectedGraphsWalkTheTargetSideOverInRows) {
  // 0 -> 1 -> 2 and 3 -> 4, 5 isolated: from 0, vertex 4 has an in-edge
  // but no path, vertex 5 has none; no edge leads back to 0.
  EdgeList el;
  el.num_vertices = 6;
  el.add(0, 1);
  el.add(1, 2);
  el.add(3, 4);
  const CsrGraph tiny = graph::build_directed_csr(std::move(el));
  ASSERT_FALSE(tiny.is_symmetric());
  PairScratch scratch;
  const graph::CsrGraphView v(tiny);
  const std::vector<std::pair<Pair, std::int32_t>> want = {
      {{0, 0}, 0},  {{0, 1}, 1},  {{0, 2}, 2},  {{0, 3}, -1},
      {{0, 4}, -1}, {{0, 5}, -1}, {{5, 2}, -1}, {{5, 5}, 0},
      {{2, 0}, -1}, {{4, 3}, -1}, {{3, 4}, 1},  {{1, 2}, 1}};
  for (const auto& [p, d] : want) {
    EXPECT_EQ(pair_distance(v, p.s, p.t, scratch), d)
        << "s " << p.s << " t " << p.t;
  }

  // Directed R-MAT: plenty of targets have in-edges yet no path from
  // the source, so the searches run until one side's frontier empties.
  const CsrGraph d = rmat(10, 8, 29, /*directed=*/true);
  ASSERT_FALSE(d.is_symmetric());
  const std::vector<Pair> pairs = sample_pairs(d, 40, 30, 31);
  int unreachable_entered = 0;
  for (const Pair& p : pairs) {
    if (d.in_degree(p.t) > 0 &&
        graph500::reference_bfs(d, p.s).level[static_cast<std::size_t>(
            p.t)] < 0) {
      ++unreachable_entered;
    }
  }
  EXPECT_GT(unreachable_entered, 0);
  EXPECT_GE(expect_pairs_match(graph::CsrGraphView(d), d, pairs, scratch),
            1000u);
}

TEST(PairDistance, LongPathsRunManyRoundsOnBothSides) {
  PairScratch scratch;
  const CsrGraph path = graph::build_csr(graph::make_path(150));
  const CsrGraph grid = graph::build_csr(graph::make_grid(36, 40));
  for (const CsrGraph* g : {&path, &grid}) {
    const vid_t far = g->num_vertices() - 1;
    ASSERT_GE(graph500::reference_bfs(*g, 0).level[static_cast<std::size_t>(
                  far)],
              60);
    std::vector<Pair> pairs = sample_pairs(*g, 20, 50, 5);
    pairs.push_back({0, far});
    pairs.push_back({far, 0});
    EXPECT_GE(expect_pairs_match(graph::CsrGraphView(*g), *g, pairs, scratch),
              1000u);
  }
}

TEST(PairDistance, SelfAndIsolatedEndpoints) {
  const CsrGraph g = rmat(10, 8, 3);
  const std::vector<vid_t> hubs = graph::top_out_degree_vertices(g, 4);
  std::vector<vid_t> isolated;
  for (vid_t v = 0; v < g.num_vertices() && isolated.size() < 3; ++v) {
    if (g.out_degree(v) == 0) isolated.push_back(v);
  }
  ASSERT_EQ(isolated.size(), 3u);
  const graph::CsrGraphView v(g);
  PairScratch scratch;
  for (const vid_t x : isolated) {
    EXPECT_EQ(pair_distance(v, x, x, scratch), 0);
    for (const vid_t h : hubs) {
      EXPECT_EQ(pair_distance(v, x, h, scratch), -1);
      EXPECT_EQ(pair_distance(v, h, x, scratch), -1);
      EXPECT_EQ(pair_distance(v, h, h, scratch), 0);
    }
    EXPECT_EQ(pair_distance(v, x, isolated[0] == x ? isolated[1] : isolated[0],
                            scratch),
              -1);
  }
}

TEST(PairDistance, DeltaEpochsMatchTheirFlatRebuild) {
  const auto base = std::make_shared<const CsrGraph>(rmat(10, 8, 13));
  const vid_t n = base->num_vertices();
  graph::Xoshiro256ss rng(17);
  const auto any = [&] {
    return static_cast<vid_t>(rng.next_bounded(static_cast<std::uint64_t>(n)));
  };
  std::vector<Edge> inserts;
  std::vector<Edge> removes;
  for (int k = 0; k < 40; ++k) inserts.push_back({any(), any()});
  for (const vid_t u : graph::top_out_degree_vertices(*base, 8)) {
    for (const vid_t w : base->out_neighbors(u)) {
      removes.push_back({u, w});  // cut the hubs off: distances grow
    }
  }
  const graph::DeltaCsr first =
      graph::DeltaCsr::apply(base, nullptr, inserts, removes);
  ASSERT_GT(first.patched_rows(), 0);

  // The next epoch grows the vertex set: n + 4 joins through n + 2,
  // and n, n + 1 and n + 3 arrive isolated.
  const std::vector<Edge> grow = {{any(), n + 2}, {n + 2, n + 4}};
  const graph::DeltaCsr grown =
      graph::DeltaCsr::apply(base, &first, grow, std::vector<Edge>{});
  ASSERT_EQ(grown.num_vertices(), n + 5);

  PairScratch scratch;
  const CsrGraph flat_first = graph::build_csr(first.materialize_edges());
  EXPECT_GE(expect_pairs_match(first, flat_first,
                               sample_pairs(flat_first, 40, 30, 19), scratch),
            1000u);

  const CsrGraph flat_grown = graph::build_csr(grown.materialize_edges());
  ASSERT_EQ(flat_grown.num_vertices(), n + 5);
  std::vector<Pair> pairs = sample_pairs(flat_grown, 40, 30, 23);
  for (vid_t x = n; x < n + 5; ++x) {
    pairs.push_back({x, x});
    pairs.push_back({x, grow[0].src});
    pairs.push_back({grow[0].src, x});
  }
  EXPECT_GE(expect_pairs_match(grown, flat_grown, pairs, scratch), 1000u);
}

TEST(PairDistance, RejectsVerticesOutsideTheGraph) {
  const CsrGraph g = graph::build_csr(graph::make_path(8));
  const graph::CsrGraphView v(g);
  PairScratch scratch;
  EXPECT_THROW((void)pair_distance(v, -1, 3, scratch), std::invalid_argument);
  EXPECT_THROW((void)pair_distance(v, 3, 8, scratch), std::invalid_argument);
  EXPECT_EQ(pair_distance(v, 0, 7, scratch), 7);
}

}  // namespace
}  // namespace bfsx::bfs
