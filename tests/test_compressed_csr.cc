// Tests for the delta/varint-compressed CSR view (graph/compressed_csr.h):
// varint round-trip over adversarial degree distributions, decode-order
// fidelity, the unsorted-row rejection contract, and — the tier's core
// promise — bit-equality of traversals through CompressedCsrView with
// the same kernels on CsrGraphView: distances, parents, and per-level
// |V|cq / |E|cq counters, at 1 and 4 OpenMP threads.
#include "graph/compressed_csr.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "bfs/bottomup.h"
#include "bfs/drivers.h"
#include "bfs/frontier.h"
#include "bfs/state.h"
#include "bfs/topdown.h"
#include "core/hybrid_policy.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/graph_stats.h"
#include "graph/rmat.h"
#include "graph/view.h"
#include "thread_count.h"
#include "walled_grid.h"

namespace bfsx::graph {
namespace {

CsrGraph rmat(int scale, std::uint64_t seed = 2014) {
  RmatParams p;
  p.scale = scale;
  p.edgefactor = 16;
  p.seed = seed;
  return build_csr(generate_rmat(p));
}

std::vector<vid_t> row_of(const CompressedCsrView& v, vid_t u) {
  std::vector<vid_t> out;
  v.for_each_out_neighbor(u, [&out](vid_t w) { out.push_back(w); });
  return out;
}

// --- varint / encoding fidelity -------------------------------------

TEST(VarintCodec, RoundTripsBoundaryValues) {
  std::uint8_t buf[8];
  for (const std::uint32_t value :
       {0u, 1u, 127u, 128u, 16383u, 16384u, 2097151u, 2097152u,
        268435455u, 268435456u, 4294967295u}) {
    const std::size_t size = detail::varint_size(value);
    ASSERT_LE(size, 5u) << value;
    ASSERT_EQ(detail::varint_encode(buf, value), buf + size) << value;
    std::uint32_t decoded = 0;
    EXPECT_EQ(detail::varint_decode(buf, &decoded), buf + size) << value;
    EXPECT_EQ(decoded, value);
  }
}

TEST(CompressedCsrView, EveryRowDecodesVerbatim) {
  const CsrGraph g = rmat(12);
  const CompressedCsrView view(g);
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    const auto expect = g.out_neighbors(v);
    const std::vector<vid_t> got = row_of(view, v);
    ASSERT_EQ(got.size(), expect.size()) << v;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], expect[i]) << v << ":" << i;
    }
  }
}

/// Adversarial degree distributions: rows the delta coder must not
/// mishandle — empty rows everywhere, one mega-hub owning almost every
/// edge, and maximal first-deltas (an isolated edge to the top vertex
/// id, where the first delta is the full vid).
TEST(CompressedCsrView, AdversarialDegreeDistributionsRoundTrip) {
  const vid_t n = 1024;
  EdgeList el;
  el.num_vertices = n;
  // One mega-hub (vertex 3) adjacent to everything; all other rows are
  // empty except a single max-delta edge n-1 -> 0 (stored symmetric).
  for (vid_t v = 0; v < n; ++v) {
    if (v != 3) el.edges.push_back({3, v});
  }
  el.edges.push_back({n - 1, 0});
  const CsrGraph g = build_csr(std::move(el));
  const CompressedCsrView view(g);
  EXPECT_EQ(view.num_vertices(), g.num_vertices());
  EXPECT_EQ(view.num_edges(), g.num_edges());
  for (vid_t v = 0; v < n; ++v) {
    const auto expect = g.out_neighbors(v);
    const std::vector<vid_t> got = row_of(view, v);
    ASSERT_EQ(got.size(), expect.size()) << v;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], expect[i]) << v << ":" << i;
    }
  }
}

TEST(CompressedCsrView, AllZeroRowsGraph) {
  // No edges at all: every row empty, bytes() == 0, ratio finite.
  EdgeList el;
  el.num_vertices = 64;
  const CsrGraph g = build_csr(std::move(el));
  const CompressedCsrView view(g);
  EXPECT_EQ(view.num_edges(), 0);
  for (vid_t v = 0; v < 64; ++v) {
    EXPECT_EQ(view.out_degree(v), eid_t{0}) << v;
    EXPECT_TRUE(row_of(view, v).empty()) << v;
  }
}

TEST(CompressedCsrView, EarlyExitStopsMidRow) {
  const CsrGraph g = rmat(10);
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    if (g.out_degree(v) < 3) continue;
    const CompressedCsrView view(g);
    int calls = 0;
    view.for_each_in_neighbor(v, [&calls](vid_t) {
      ++calls;
      return false;  // stop immediately
    });
    EXPECT_EQ(calls, 1);
    return;
  }
  FAIL() << "graph has no vertex with degree >= 3";
}

TEST(CompressedCsrView, RejectsUnsortedRows) {
  // Hand-build a CSR whose row {2, 1} is out of order: the delta coder
  // cannot represent a negative gap, so construction must throw.
  const CsrGraph g(EidArray{0, 2, 2, 2}, VidArray{2, 1});
  EXPECT_THROW(CompressedCsrView{g}, std::invalid_argument);
}

TEST(CompressedCsrView, CompressionRatioAboveOneOnRmat) {
  const CsrGraph g = rmat(12);
  const CompressedCsrView view(g);
  // Sorted R-MAT rows delta-code well below 4 bytes/edge.
  EXPECT_GT(view.compression_ratio(), 1.0);
}

// --- traversal bit-equality -----------------------------------------

struct LevelCounters {
  std::int32_t level;
  vid_t frontier_vertices;  // |V|cq
  eid_t frontier_edges;     // |E|cq
};

/// Hybrid traversal over any view, recording the paper's per-level
/// counters before each step.
template <typename V>
bfs::BfsResult run_hybrid_logged(const V& g, vid_t root,
                                 std::vector<LevelCounters>& log) {
  const core::HybridPolicy policy{};
  bfs::BfsState state(g.num_vertices(), root);
  while (!state.frontier_empty()) {
    const eid_t e_cq = bfs::frontier_out_edges(g, state.frontier_queue);
    const auto v_cq = static_cast<vid_t>(state.frontier_queue.size());
    log.push_back({state.current_level, v_cq, e_cq});
    if (policy.decide(e_cq, v_cq, g.num_edges(), g.num_vertices()) ==
        bfs::Direction::kTopDown) {
      bfs::top_down_step(g, state);
    } else {
      bfs::bottom_up_step(g, state);
    }
  }
  return std::move(state).take_result(g);
}

void expect_bit_equal(const CsrGraph& g, vid_t root) {
  const CsrGraphView raw(g);
  const CompressedCsrView compressed(g);
  std::vector<LevelCounters> raw_log, comp_log;
  const bfs::BfsResult a = run_hybrid_logged(raw, root, raw_log);
  const bfs::BfsResult b = run_hybrid_logged(compressed, root, comp_log);
  ASSERT_EQ(a.reached, b.reached);
  ASSERT_EQ(a.edges_in_component, b.edges_in_component);
  // Compressed rows decode in CSR order, so not just distances but the
  // exact parent choices must match.
  ASSERT_EQ(a.parent.size(), b.parent.size());
  for (std::size_t v = 0; v < a.parent.size(); ++v) {
    ASSERT_EQ(a.level[v], b.level[v]) << "distance diverged at " << v;
    ASSERT_EQ(a.parent[v], b.parent[v]) << "parent diverged at " << v;
  }
  ASSERT_EQ(raw_log.size(), comp_log.size());
  for (std::size_t i = 0; i < raw_log.size(); ++i) {
    EXPECT_EQ(raw_log[i].level, comp_log[i].level) << i;
    EXPECT_EQ(raw_log[i].frontier_vertices, comp_log[i].frontier_vertices)
        << "|V|cq diverged at level " << i;
    EXPECT_EQ(raw_log[i].frontier_edges, comp_log[i].frontier_edges)
        << "|E|cq diverged at level " << i;
  }
}

class CompressedTraversal : public ::testing::TestWithParam<int> {};

TEST_P(CompressedTraversal, BitEqualOnRmatScale16) {
  test::set_threads(GetParam());
  const CsrGraph g = rmat(16);
  const std::vector<vid_t> roots = sample_roots(g, 3, 500);
  for (const vid_t root : roots) expect_bit_equal(g, root);
}

TEST_P(CompressedTraversal, BitEqualOnGrid) {
  test::set_threads(GetParam());
  const CsrGraph g = build_csr(make_grid(64, 48));
  expect_bit_equal(g, /*root=*/0);
  expect_bit_equal(g, /*root=*/64 * 48 - 1);
}

// Walls leave isolated ids with empty rows between the live cells, so
// the compressed view decodes zero-length rows inside every level.
TEST_P(CompressedTraversal, BitEqualOnWalledGrid) {
  test::set_threads(GetParam());
  const CsrGraph g = test::walled_grid(40, 30, 0.3, 13);
  ASSERT_GT(test::count_isolated(g), 0);
  for (const vid_t root : sample_roots(g, 3, 77)) expect_bit_equal(g, root);
}

TEST_P(CompressedTraversal, PureDirectionsMatchSerialOracle) {
  test::set_threads(GetParam());
  const CsrGraph g = rmat(12);
  const CompressedCsrView view(g);
  const vid_t root = sample_roots(g, 1, 11)[0];
  const bfs::BfsResult oracle = bfs::run_serial(g, root);
  const bfs::BfsResult td = bfs::run_top_down(view, root);
  const bfs::BfsResult bu = bfs::run_bottom_up(view, root);
  ASSERT_EQ(td.reached, oracle.reached);
  ASSERT_EQ(bu.reached, oracle.reached);
  for (std::size_t v = 0; v < oracle.level.size(); ++v) {
    ASSERT_EQ(td.level[v], oracle.level[v]) << v;
    ASSERT_EQ(bu.level[v], oracle.level[v]) << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, CompressedTraversal,
                         ::testing::Values(1, 4));

}  // namespace
}  // namespace bfsx::graph
