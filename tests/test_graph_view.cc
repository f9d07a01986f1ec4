// Tests for the GraphView concept layer (graph/view.h): the
// zero-overhead CsrGraphView adapter, view-based root sampling, and —
// the refactor's core contract — equality of the templated kernels
// instantiated on CsrGraphView with the historical CsrGraph entry
// points.
#include "graph/view.h"

#include <gtest/gtest.h>

#include <vector>

#include "bfs/drivers.h"
#include "bfs/state_pool.h"
#include "bfs/validate.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/graph_stats.h"
#include "graph/rmat.h"

namespace bfsx::graph {
namespace {

CsrGraph rmat10() {
  RmatParams p;
  p.scale = 10;
  p.edgefactor = 16;
  p.seed = 7;
  return build_csr(generate_rmat(p));
}

TEST(CsrGraphView, ForwardsEveryAccessorVerbatim) {
  const CsrGraph g = rmat10();
  const CsrGraphView view(g);
  EXPECT_EQ(view.num_vertices(), g.num_vertices());
  EXPECT_EQ(view.num_edges(), g.num_edges());
  EXPECT_EQ(view.is_symmetric(), g.is_symmetric());
  EXPECT_EQ(&view.csr(), &g);
  for (vid_t v = 0; v < g.num_vertices(); v += 97) {
    EXPECT_EQ(view.out_degree(v), g.out_degree(v)) << v;
    EXPECT_EQ(view.in_degree(v), g.in_degree(v)) << v;
  }
}

TEST(CsrGraphView, OutEnumerationPreservesCsrRowOrder) {
  const CsrGraph g = rmat10();
  const CsrGraphView view(g);
  for (vid_t v = 0; v < g.num_vertices(); v += 31) {
    std::vector<vid_t> via_view;
    view.for_each_out_neighbor(v, [&via_view](vid_t w) {
      via_view.push_back(w);
    });
    const auto row = g.out_neighbors(v);
    ASSERT_EQ(via_view.size(), row.size()) << v;
    for (std::size_t i = 0; i < via_view.size(); ++i) {
      EXPECT_EQ(via_view[i], row[i]) << v;
    }
  }
}

TEST(CsrGraphView, InEnumerationHonoursEarlyExit) {
  const CsrGraph g = rmat10();
  const CsrGraphView view(g);
  // Find a vertex with at least two in-neighbours and stop after one.
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    if (g.in_degree(v) < 2) continue;
    int calls = 0;
    view.for_each_in_neighbor(v, [&calls](vid_t) {
      ++calls;
      return false;  // stop immediately
    });
    EXPECT_EQ(calls, 1);
    return;
  }
  FAIL() << "graph has no vertex with in-degree >= 2";
}

TEST(SampleViewRoots, MatchesCsrSamplingStream) {
  const CsrGraph g = rmat10();
  // Same seed, same rejection rule, same PRNG — the root sets must be
  // identical, so any view of a graph samples the roots its CSR does.
  EXPECT_EQ(sample_view_roots(CsrGraphView(g), 16, 500),
            sample_roots(g, 16, 500));
  EXPECT_EQ(sample_view_roots(CsrGraphView(g), 1, 7), sample_roots(g, 1, 7));
}

TEST(SampleViewRoots, RejectsIsolatedVerticesAndBadCounts) {
  const CsrGraph g = build_csr(make_two_cliques(8));
  for (const vid_t r : sample_view_roots(CsrGraphView(g), 32, 3)) {
    EXPECT_GT(g.out_degree(r), 0);
  }
  EXPECT_THROW((void)sample_view_roots(CsrGraphView(g), -1, 3),
               std::invalid_argument);
}

/// The templated drivers instantiated on CsrGraphView and the CsrGraph
/// overloads (which forward through the adapter) must produce identical
/// per-level counters — |V|cq, |E|cq, BU scan counts, next — and
/// identical level and parent maps at any team size (both directions
/// choose parents by a schedule-independent rule).
TEST(ViewKernels, CsrViaViewBitEqualsCsrOverloads) {
  const CsrGraph g = rmat10();
  const CsrGraphView view(g);
  for (const vid_t root : sample_roots(g, 3, 21)) {
    bfs::TraversalLog log_csr_td;
    bfs::TraversalLog log_view_td;
    const bfs::BfsResult csr_td = bfs::run_top_down(g, root, &log_csr_td);
    const bfs::BfsResult view_td =
        bfs::run_top_down(view, root, &log_view_td);

    bfs::TraversalLog log_csr_bu;
    bfs::TraversalLog log_view_bu;
    const bfs::BfsResult csr_bu = bfs::run_bottom_up(g, root, &log_csr_bu);
    const bfs::BfsResult view_bu =
        bfs::run_bottom_up(view, root, &log_view_bu);

    EXPECT_TRUE(bfs::same_levels(csr_td, view_td)) << root;
    EXPECT_TRUE(bfs::same_levels(csr_bu, view_bu)) << root;
    EXPECT_EQ(csr_td.reached, view_td.reached);
    EXPECT_EQ(csr_td.edges_in_component, view_td.edges_in_component);

    ASSERT_EQ(log_csr_td.levels.size(), log_view_td.levels.size());
    for (std::size_t i = 0; i < log_csr_td.levels.size(); ++i) {
      const bfs::LevelRecord& a = log_csr_td.levels[i];
      const bfs::LevelRecord& b = log_view_td.levels[i];
      EXPECT_EQ(a.frontier_vertices, b.frontier_vertices) << i;
      EXPECT_EQ(a.frontier_edges, b.frontier_edges) << i;
      EXPECT_EQ(a.next_vertices, b.next_vertices) << i;
    }
    ASSERT_EQ(log_csr_bu.levels.size(), log_view_bu.levels.size());
    for (std::size_t i = 0; i < log_csr_bu.levels.size(); ++i) {
      const bfs::LevelRecord& a = log_csr_bu.levels[i];
      const bfs::LevelRecord& b = log_view_bu.levels[i];
      EXPECT_EQ(a.frontier_vertices, b.frontier_vertices) << i;
      EXPECT_EQ(a.frontier_edges, b.frontier_edges) << i;
      EXPECT_EQ(a.bottom_up_scanned, b.bottom_up_scanned) << i;
      EXPECT_EQ(a.next_vertices, b.next_vertices) << i;
    }

    EXPECT_EQ(csr_td.parent, view_td.parent) << root;
    EXPECT_EQ(csr_bu.parent, view_bu.parent) << root;
  }
}

TEST(ViewKernels, SerialDriverIsDeterministicAcrossRepresentations) {
  const CsrGraph g = rmat10();
  const vid_t root = sample_roots(g, 1, 5)[0];
  const bfs::BfsResult a = bfs::run_serial(g, root);
  const bfs::BfsResult b = bfs::run_serial(CsrGraphView(g), root);
  // Serial order is fully deterministic, so even parents must agree.
  EXPECT_EQ(a.parent, b.parent);
  EXPECT_EQ(a.level, b.level);
  EXPECT_EQ(a.edges_in_component, b.edges_in_component);
}

TEST(ViewValidate, ViewRunPassesViewAndCsrValidators) {
  const CsrGraph g = rmat10();
  const CsrGraphView view(g);
  const vid_t root = sample_roots(g, 1, 5)[0];
  const bfs::BfsResult r = bfs::run_top_down(view, root);
  EXPECT_TRUE(bfs::validate_bfs(view, root, r).ok);
  EXPECT_TRUE(bfs::validate_bfs(g, root, r).ok);
}

TEST(StatePool, AcquiresByVertexCountForViewTraversals) {
  bfs::StatePool pool;
  {
    const bfs::StatePool::Lease lease = pool.acquire(vid_t{16}, vid_t{3});
    EXPECT_EQ(lease->reached, 1);
    EXPECT_EQ(lease->parent[3], 3);
    EXPECT_EQ(lease->parent.size(), 16u);
  }
  EXPECT_EQ(pool.created(), 1u);
  EXPECT_EQ(pool.idle(), 1u);
  // Re-arm for a different size: reset must regrow the maps.
  const bfs::StatePool::Lease again = pool.acquire(vid_t{32}, vid_t{9});
  EXPECT_EQ(again->parent.size(), 32u);
  EXPECT_EQ(pool.created(), 1u);
}

}  // namespace
}  // namespace bfsx::graph
