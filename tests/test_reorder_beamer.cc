// Tests for vertex reordering and the Beamer alpha/beta policy.
#include <gtest/gtest.h>

#include <omp.h>

#include <algorithm>
#include <utility>
#include <vector>

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

/// Per vertex, its endpoints over the edges that are not self-loops,
/// both ends: the count degree_order sorts by.
std::vector<graph::eid_t> endpoint_counts(const EdgeList& el) {
  std::vector<graph::eid_t> counts(static_cast<std::size_t>(el.num_vertices));
  for (const graph::Edge& e : el.edges) {
    if (e.src == e.dst) continue;
    ++counts[static_cast<std::size_t>(e.src)];
    ++counts[static_cast<std::size_t>(e.dst)];
  }
  return counts;
}

/// R-MAT (duplicates, self-loops and isolated vertices included) plus
/// one vertex with only a self-loop and one with no edge at all.
EdgeList rmat_with_loops() {
  EdgeList el = rmat_edges();
  el.num_vertices += 2;
  el.add(el.num_vertices - 2, el.num_vertices - 2);
  return el;
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

// New ids run by descending endpoint count, ties to the smaller old id,
// so the vertices without a non-self-loop edge are exactly the tail.
// Deduplicated degree is only nearly descending, so it is not checked.
TEST(Reorder, DegreeOrderSortsByEndpointCountWithIsolatedTail) {
  const EdgeList el = rmat_with_loops();
  const Permutation perm = graph::degree_order(el);
  graph::validate_permutation(perm, el.num_vertices);
  const Permutation old_of = graph::invert_permutation(perm);
  const std::vector<graph::eid_t> counts = endpoint_counts(el);
  for (std::size_t i = 0; i + 1 < old_of.size(); ++i) {
    const vid_t a = old_of[i];
    const vid_t b = old_of[i + 1];
    const graph::eid_t ca = counts[static_cast<std::size_t>(a)];
    const graph::eid_t cb = counts[static_cast<std::size_t>(b)];
    EXPECT_TRUE(ca > cb || (ca == cb && a < b))
        << "new ids " << i << ", " << i + 1 << ": old " << a << " (count "
        << ca << ") before old " << b << " (count " << cb << ")";
  }
  const auto with_edges = static_cast<vid_t>(
      std::count_if(counts.begin(), counts.end(),
                    [](graph::eid_t c) { return c > 0; }));
  ASSERT_LT(with_edges, el.num_vertices - 2);
  const CsrGraph h = build_csr(graph::apply_permutation(el, perm));
  for (vid_t v = 0; v < h.num_vertices(); ++v) {
    EXPECT_EQ(h.out_degree(v) == 0, v >= with_edges) << "new id " << v;
  }
}

TEST(Reorder, DegreeOrderIsIdenticalAtEveryThreadCount) {
  const ThreadCountGuard guard;
  const EdgeList el = rmat_with_loops();
  omp_set_num_threads(1);
  const Permutation serial = graph::degree_order(el);
  for (const int threads : {2, 3, 4}) {
    omp_set_num_threads(threads);
    EXPECT_EQ(graph::degree_order(el), serial) << threads << " threads";
  }
}

// The in-place relabel builds the same CSR as the serial reference,
// build_csr(apply_permutation(el, perm)).
TEST(Reorder, RelabelInPlaceBuildsTheReferenceCsr) {
  const EdgeList el = rmat_with_loops();
  const Permutation perm = graph::degree_order(el);
  const CsrGraph want = build_csr(graph::apply_permutation(el, perm));
  EdgeList relabelled = el;
  const graph::Relabelling ids = graph::relabel_by_degree(relabelled);
  const CsrGraph got = build_csr(std::move(relabelled));
  EXPECT_TRUE(std::equal(want.out_offsets().begin(), want.out_offsets().end(),
                         got.out_offsets().begin(), got.out_offsets().end()));
  EXPECT_TRUE(std::equal(want.out_targets().begin(), want.out_targets().end(),
                         got.out_targets().begin(), got.out_targets().end()));
  ASSERT_EQ(ids.size(), el.num_vertices);
  for (vid_t v = 0; v < el.num_vertices; ++v) {
    EXPECT_EQ(ids.internal(v), perm[static_cast<std::size_t>(v)]);
    EXPECT_EQ(ids.external(ids.internal(v)), v);
  }
}

// Ids outside [0, size()) pass through both ways: grown vertices keep
// their ids and invalid ones still reach the range checks.
TEST(Reorder, RelabellingPassesOtherIdsThrough) {
  const graph::Relabelling ids(Permutation{2, 0, 1});
  EXPECT_EQ(ids.internal(0), 2);
  EXPECT_EQ(ids.external(2), 0);
  EXPECT_EQ(ids.external(0), 1);
  for (const vid_t other : {-1, -7, 3, 10}) {
    EXPECT_EQ(ids.internal(other), other);
    EXPECT_EQ(ids.external(other), other);
  }
  const graph::Relabelling identity;
  EXPECT_EQ(identity.size(), 0);
  EXPECT_EQ(identity.internal(5), 5);
  EXPECT_EQ(identity.external(graph::kNoVertex), graph::kNoVertex);
}

TEST(Reorder, DegreeOrderRejectsOutOfRangeEndpoints) {
  EdgeList el;
  el.num_vertices = 3;
  el.edges = {{0, 1}, {1, 3}};
  EXPECT_THROW((void)graph::degree_order(el), std::out_of_range);
  el.edges = {{0, 1}, {-1, 2}};
  EXPECT_THROW((void)graph::relabel_by_degree(el), std::out_of_range);
}

TEST(Reorder, InvertRoundTrips) {
  const Permutation perm = graph::degree_order(rmat_edges());
  const Permutation inv = graph::invert_permutation(perm);
  for (std::size_t v = 0; v < perm.size(); ++v) {
    EXPECT_EQ(inv[static_cast<std::size_t>(perm[v])], static_cast<vid_t>(v));
  }
}

// BFS is equivariant under relabelling: levels in the new namespace are
// the old levels transported through the permutation.
TEST(Reorder, BfsIsPermutationEquivariant) {
  EdgeList el = rmat_edges();
  const CsrGraph g = build_csr(EdgeList(el));
  const graph::Relabelling ids = graph::relabel_by_degree(el);
  const CsrGraph h = build_csr(std::move(el));

  const vid_t root = graph::sample_roots(g, 1, 3)[0];
  const bfs::BfsResult rg = bfs::run_serial(g, root);
  const bfs::BfsResult rh = bfs::run_serial(h, ids.internal(root));
  EXPECT_EQ(rg.reached, rh.reached);
  EXPECT_EQ(rg.edges_in_component, rh.edges_in_component);
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(rg.level[static_cast<std::size_t>(v)],
              rh.level[static_cast<std::size_t>(ids.internal(v))]);
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
