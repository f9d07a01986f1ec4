// Tests for vertex reordering and the Beamer alpha/beta policy.
#include <gtest/gtest.h>

#include "bfs/drivers.h"
#include "bfs/validate.h"
#include "core/adaptive_bfs.h"
#include "core/level_trace.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/graph_stats.h"
#include "graph/reorder.h"
#include "graph/rmat.h"

namespace bfsx {
namespace {

using graph::build_csr;
using graph::CsrGraph;
using graph::EdgeList;
using graph::Permutation;
using graph::vid_t;

EdgeList rmat_edges() {
  graph::RmatParams p;
  p.scale = 11;
  return graph::generate_rmat(p);
}

// ---- permutations ----------------------------------------------------

TEST(Reorder, ValidateRejectsNonBijections) {
  EXPECT_THROW(graph::validate_permutation({0, 0, 1}, 3),
               std::invalid_argument);
  EXPECT_THROW(graph::validate_permutation({0, 1}, 3), std::invalid_argument);
  EXPECT_THROW(graph::validate_permutation({0, 3, 1}, 3),
               std::invalid_argument);
  EXPECT_NO_THROW(graph::validate_permutation({2, 0, 1}, 3));
}

TEST(Reorder, DegreeOrderPutsHubsFirst) {
  const CsrGraph g = build_csr(rmat_edges());
  const Permutation perm = graph::degree_order(g);
  graph::validate_permutation(perm, g.num_vertices());
  const CsrGraph h = build_csr(
      graph::apply_permutation(rmat_edges(), perm));
  // New ids are sorted by descending degree.
  for (vid_t v = 0; v + 1 < h.num_vertices(); ++v) {
    EXPECT_GE(h.out_degree(v), h.out_degree(v + 1));
  }
}

TEST(Reorder, BfsOrderIsContiguousFromRoot) {
  const CsrGraph g = build_csr(graph::make_binary_tree(15));
  const Permutation perm = graph::bfs_order(g, 0);
  graph::validate_permutation(perm, g.num_vertices());
  EXPECT_EQ(perm[0], 0);  // root first
  // Level order of a complete binary tree is the identity.
  for (vid_t v = 0; v < 15; ++v) EXPECT_EQ(perm[static_cast<std::size_t>(v)], v);
}

TEST(Reorder, InvertRoundTrips) {
  const CsrGraph g = build_csr(rmat_edges());
  const Permutation perm = graph::degree_order(g);
  const Permutation inv = graph::invert_permutation(perm);
  for (std::size_t v = 0; v < perm.size(); ++v) {
    EXPECT_EQ(inv[static_cast<std::size_t>(perm[v])], static_cast<vid_t>(v));
  }
}

// BFS is equivariant under relabelling: levels in the new namespace are
// the old levels transported through the permutation.
TEST(Reorder, BfsIsPermutationEquivariant) {
  const EdgeList el = rmat_edges();
  const CsrGraph g = build_csr(EdgeList(el));
  const Permutation perm = graph::degree_order(g);
  const CsrGraph h = build_csr(graph::apply_permutation(el, perm));

  const vid_t root = graph::sample_roots(g, 1, 3)[0];
  const bfs::BfsResult rg = bfs::run_serial(g, root);
  const bfs::BfsResult rh =
      bfs::run_serial(h, perm[static_cast<std::size_t>(root)]);
  EXPECT_EQ(rg.reached, rh.reached);
  EXPECT_EQ(rg.edges_in_component, rh.edges_in_component);
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(rg.level[static_cast<std::size_t>(v)],
              rh.level[static_cast<std::size_t>(perm[static_cast<std::size_t>(v)])]);
  }
}

// ---- Beamer policy ----------------------------------------------------

TEST(BeamerPolicy, SwitchesToBottomUpWhenFrontierEdgesDominate) {
  const core::BeamerPolicy p{14.0, 24.0};
  // m_f = 200 > m_u/alpha = 1400/14 = 100 -> BU.
  EXPECT_EQ(p.decide(200, 1400, 10, 1000, bfs::Direction::kTopDown),
            bfs::Direction::kBottomUp);
  // m_f = 50 <= 100 -> stay TD.
  EXPECT_EQ(p.decide(50, 1400, 10, 1000, bfs::Direction::kTopDown),
            bfs::Direction::kTopDown);
}

TEST(BeamerPolicy, SwitchesBackWhenFrontierShrinks) {
  const core::BeamerPolicy p{14.0, 24.0};
  // n_f = 10 < n/beta = 1000/24 = 41.7 -> back to TD.
  EXPECT_EQ(p.decide(5, 100, 10, 1000, bfs::Direction::kBottomUp),
            bfs::Direction::kTopDown);
  EXPECT_EQ(p.decide(5, 100, 100, 1000, bfs::Direction::kBottomUp),
            bfs::Direction::kBottomUp);
}

TEST(BeamerPolicy, IsStateful) {
  // The same frontier keeps BU while in BU but would not trigger BU
  // from TD — exactly the hysteresis the M/N rule lacks.
  const core::BeamerPolicy p{14.0, 24.0};
  const graph::eid_t m_f = 50;
  const graph::eid_t m_u = 1400;
  const vid_t n_f = 100;
  const vid_t n = 1000;
  EXPECT_EQ(p.decide(m_f, m_u, n_f, n, bfs::Direction::kTopDown),
            bfs::Direction::kTopDown);
  EXPECT_EQ(p.decide(m_f, m_u, n_f, n, bfs::Direction::kBottomUp),
            bfs::Direction::kBottomUp);
}

TEST(BeamerPolicy, ValidateRejectsNonPositive) {
  EXPECT_THROW((core::BeamerPolicy{0, 24}).validate(), std::invalid_argument);
  EXPECT_THROW((core::BeamerPolicy{14, -1}).validate(), std::invalid_argument);
}

TEST(BeamerExecutor, ReplayMatchesExecution) {
  graph::RmatParams p;
  p.scale = 11;
  const CsrGraph g = build_csr(graph::generate_rmat(p));
  const vid_t root = graph::sample_roots(g, 1, 9)[0];
  const core::LevelTrace trace = core::build_level_trace(g, root);
  const sim::Device cpu{sim::make_sandy_bridge_cpu()};
  for (const core::BeamerPolicy& policy :
       {core::BeamerPolicy{14, 24}, core::BeamerPolicy{2, 100},
        core::BeamerPolicy{100, 2}}) {
    const double replayed = core::replay_beamer(trace, cpu.spec(), policy);
    const core::CombinationRun run =
        core::run_combination_beamer(g, root, cpu, policy);
    EXPECT_NEAR(replayed, run.seconds, 1e-12 + 1e-9 * run.seconds)
        << "alpha=" << policy.alpha << " beta=" << policy.beta;
    EXPECT_TRUE(bfs::validate_bfs(g, root, run.result).ok);
  }
}

TEST(BeamerExecutor, DefaultsUseBothDirectionsOnRmat) {
  graph::RmatParams p;
  p.scale = 12;
  const CsrGraph g = build_csr(graph::generate_rmat(p));
  const vid_t root = graph::sample_roots(g, 1, 9)[0];
  const sim::Device cpu{sim::make_sandy_bridge_cpu()};
  const core::CombinationRun run =
      core::run_combination_beamer(g, root, cpu, {14, 24});
  bool saw_td = false;
  bool saw_bu = false;
  for (const obs::LevelEvent& lvl : run.levels) {
    saw_td |= lvl.direction == bfs::Direction::kTopDown;
    saw_bu |= lvl.direction == bfs::Direction::kBottomUp;
  }
  EXPECT_TRUE(saw_td);
  EXPECT_TRUE(saw_bu);
}

}  // namespace
}  // namespace bfsx
