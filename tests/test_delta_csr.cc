// Tests for graph::DeltaCsr (graph/delta_csr.h): the incremental epoch
// overlay behind serve's delta publishes. The load-bearing contract is
// bit-equality — every templated kernel run over a delta epoch must
// produce exactly the traversal the fully rebuilt CSR would have
// produced (levels, parents under one thread, and the per-level
// |V|cq / |E|cq / scanned counters), including after removals, chained
// batches, vertex growth, and compaction.
#include "graph/delta_csr.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "bfs/drivers.h"
#include "bfs/msbfs.h"
#include "bfs/validate.h"
#include "core/hybrid_policy.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/graph_stats.h"
#include "graph/rmat.h"
#include "thread_count.h"

namespace bfsx::graph {
namespace {

std::shared_ptr<const CsrGraph> rmat10_base() {
  RmatParams p;
  p.scale = 10;
  p.edgefactor = 8;
  p.seed = 19;
  return std::make_shared<const CsrGraph>(build_csr(generate_rmat(p)));
}

/// Oracle for the symmetric case: the undirected edge set as canonical
/// (min, max) pairs, mutated exactly as the batch semantics promise.
using PairSet = std::set<std::pair<vid_t, vid_t>>;

PairSet undirected_pairs(const CsrGraph& g) {
  PairSet pairs;
  for (vid_t u = 0; u < g.num_vertices(); ++u) {
    for (const vid_t w : g.out_neighbors(u)) {
      pairs.emplace(std::min(u, w), std::max(u, w));
    }
  }
  return pairs;
}

void apply_to_oracle(PairSet& pairs, std::span<const Edge> inserts,
                     std::span<const Edge> removes) {
  for (const Edge& e : inserts) {
    if (e.src == e.dst) continue;  // remove_self_loops
    pairs.emplace(std::min(e.src, e.dst), std::max(e.src, e.dst));
  }
  for (const Edge& e : removes) {
    pairs.erase({std::min(e.src, e.dst), std::max(e.src, e.dst)});
  }
}

CsrGraph rebuild_from_oracle(const PairSet& pairs, vid_t num_vertices) {
  EdgeList el;
  el.num_vertices = num_vertices;
  for (const auto& [u, v] : pairs) el.add(u, v);
  return build_csr(std::move(el));  // default opts symmetrize + sort + dedup
}

void expect_rows_equal(const DeltaCsr& d, const CsrGraph& flat) {
  ASSERT_EQ(d.num_vertices(), flat.num_vertices());
  ASSERT_EQ(d.num_edges(), flat.num_edges());
  ASSERT_EQ(d.is_symmetric(), flat.is_symmetric());
  for (vid_t v = 0; v < flat.num_vertices(); ++v) {
    const std::span<const vid_t> a = d.out_row(v);
    const std::span<const vid_t> b = flat.out_neighbors(v);
    ASSERT_EQ(a.size(), b.size()) << "row " << v;
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i], b[i]) << "row " << v << " slot " << i;
    }
  }
}

TEST(DeltaCsr, EffectiveRowsMatchFullRebuild) {
  const auto base = rmat10_base();
  PairSet oracle = undirected_pairs(*base);

  const std::vector<Edge> inserts = {{3, 900}, {3, 901}, {17, 17},
                                     {250, 251}, {250, 251}};
  const std::vector<Edge> removes = {{0, 1}};  // may or may not exist
  apply_to_oracle(oracle, inserts, removes);

  const DeltaCsr d = DeltaCsr::apply(base, nullptr, inserts, removes);
  expect_rows_equal(d, rebuild_from_oracle(oracle, base->num_vertices()));

  EXPECT_TRUE(d.has_edge(3, 900));
  EXPECT_TRUE(d.has_edge(900, 3));  // symmetrized
  EXPECT_FALSE(d.has_edge(17, 17));
  EXPECT_FALSE(d.has_edge(0, 1));
  EXPECT_FALSE(d.has_edge(1, 0));
}

TEST(DeltaCsr, PatchesOnlyTouchedRowsAndSharesBaseStorage) {
  const auto base =
      std::make_shared<const CsrGraph>(build_csr(make_grid(8, 8)));
  const std::vector<Edge> inserts = {{0, 63}};
  const DeltaCsr d = DeltaCsr::apply(base, nullptr, inserts, {});

  EXPECT_EQ(d.patched_rows(), 2);  // rows 0 and 63, via symmetrize
  EXPECT_TRUE(d.row_is_patched(0));
  EXPECT_TRUE(d.row_is_patched(63));
  EXPECT_FALSE(d.row_is_patched(1));
  EXPECT_DOUBLE_EQ(d.patched_fraction(), 2.0 / 64.0);

  // An untouched row is the base's span verbatim — same storage, not a
  // copy; that sharing is the whole point of the overlay.
  EXPECT_EQ(d.out_row(1).data(), base->out_neighbors(1).data());
  EXPECT_EQ(d.out_row(1).size(), base->out_neighbors(1).size());
  EXPECT_EQ(&d.base(), base.get());
  EXPECT_EQ(d.base_ptr().get(), base.get());
}

TEST(DeltaCsr, NoOpBatchPatchesNothing) {
  const auto base =
      std::make_shared<const CsrGraph>(build_csr(make_grid(4, 4)));
  // Duplicate insert of an existing edge, removal of an absent edge,
  // and a self-loop: all publish-time no-ops; the overlay must not
  // burn patch slots or change the edge count for any of them.
  ASSERT_TRUE(base->out_degree(0) > 0);
  const vid_t w = base->out_neighbors(0)[0];
  const std::vector<Edge> inserts = {{0, w}, {7, 7}};
  const std::vector<Edge> removes = {{0, 15}};
  ASSERT_FALSE(std::ranges::binary_search(base->out_neighbors(0), vid_t{15}));

  const DeltaCsr d = DeltaCsr::apply(base, nullptr, inserts, removes);
  EXPECT_EQ(d.patched_rows(), 0);
  EXPECT_EQ(d.num_edges(), base->num_edges());
  EXPECT_EQ(d.num_vertices(), base->num_vertices());
}

TEST(DeltaCsr, VertexGrowthOnInsert) {
  const auto base =
      std::make_shared<const CsrGraph>(build_csr(make_path(6)));
  const std::vector<Edge> inserts = {{5, 9}};
  const DeltaCsr d = DeltaCsr::apply(base, nullptr, inserts, {});

  ASSERT_EQ(d.num_vertices(), 10);
  EXPECT_EQ(d.out_degree(9), 1);
  EXPECT_EQ(d.out_row(9)[0], 5);
  // Grown vertices that were never given edges read as empty rows.
  EXPECT_EQ(d.out_degree(7), 0);
  EXPECT_TRUE(d.out_row(7).empty());
  EXPECT_TRUE(d.in_row(7).empty());
  EXPECT_FALSE(d.has_edge(7, 5));

  // A removal alone never grows the vertex set.
  const std::vector<Edge> removes = {{40, 41}};
  const DeltaCsr d2 = DeltaCsr::apply(base, nullptr, {}, removes);
  EXPECT_EQ(d2.num_vertices(), base->num_vertices());
}

TEST(DeltaCsr, ChainedApplyCarriesPatchesForward) {
  const auto base = rmat10_base();
  PairSet oracle = undirected_pairs(*base);

  const std::vector<Edge> batch1_ins = {{1, 700}, {2, 701}};
  const std::vector<Edge> batch1_rem = {};
  apply_to_oracle(oracle, batch1_ins, batch1_rem);
  const DeltaCsr d1 = DeltaCsr::apply(base, nullptr, batch1_ins, batch1_rem);

  const std::vector<Edge> batch2_ins = {{700, 702}};
  const std::vector<Edge> batch2_rem = {{1, 700}};
  apply_to_oracle(oracle, batch2_ins, batch2_rem);
  const DeltaCsr d2 = DeltaCsr::apply(base, &d1, batch2_ins, batch2_rem);

  // Deltas never chain: d2 still overlays the original flat base, with
  // batch 1's surviving patches carried forward.
  EXPECT_EQ(d2.base_ptr().get(), base.get());
  EXPECT_TRUE(d2.has_edge(2, 701));   // batch 1, untouched by batch 2
  EXPECT_FALSE(d2.has_edge(1, 700));  // batch 1 edge removed by batch 2
  EXPECT_TRUE(d2.has_edge(700, 702));
  expect_rows_equal(d2, rebuild_from_oracle(oracle, base->num_vertices()));
}

TEST(DeltaCsr, DirectedOverlayPatchesBothSides) {
  BuildOptions opts;
  opts.symmetrize = false;
  EdgeList el;
  el.num_vertices = 5;
  el.add(0, 1);
  el.add(1, 2);
  el.add(3, 2);
  const auto base =
      std::make_shared<const CsrGraph>(build_csr(std::move(el), opts));
  ASSERT_FALSE(base->is_symmetric());

  const std::vector<Edge> inserts = {{2, 4}};
  const std::vector<Edge> removes = {{3, 2}};
  const DeltaCsr d = DeltaCsr::apply(base, nullptr, inserts, removes, opts);

  EXPECT_FALSE(d.is_symmetric());
  EXPECT_TRUE(d.has_edge(2, 4));
  EXPECT_FALSE(d.has_edge(4, 2));  // no mirror without symmetrize
  EXPECT_FALSE(d.has_edge(3, 2));
  EXPECT_EQ(d.out_degree(2), 1);
  EXPECT_EQ(d.in_degree(2), 1);  // only 1 -> 2 survives
  EXPECT_EQ(d.in_degree(4), 1);
  std::vector<vid_t> preds;
  d.for_each_in_neighbor(2, [&preds](vid_t u) {
    preds.push_back(u);
    return true;
  });
  EXPECT_EQ(preds, std::vector<vid_t>{1});
}

TEST(DeltaCsr, MaterializeEdgesRoundTripsThroughBuildCsr) {
  const auto base = rmat10_base();
  PairSet oracle = undirected_pairs(*base);
  const std::vector<Edge> inserts = {{10, 1100}, {11, 12}};
  const std::vector<Edge> removes = {{4, 5}};
  apply_to_oracle(oracle, inserts, removes);

  const DeltaCsr d = DeltaCsr::apply(base, nullptr, inserts, removes);
  const CsrGraph compacted = build_csr(d.materialize_edges());
  expect_rows_equal(d, compacted);
  // And the compacted graph is exactly what a from-scratch rebuild of
  // the surviving edge set produces.
  const CsrGraph expected = rebuild_from_oracle(oracle, d.num_vertices());
  ASSERT_EQ(compacted.num_edges(), expected.num_edges());
  for (vid_t v = 0; v < expected.num_vertices(); ++v) {
    const auto a = compacted.out_neighbors(v);
    const auto b = expected.out_neighbors(v);
    ASSERT_TRUE(std::ranges::equal(a, b)) << v;
  }
}

TEST(DeltaCsr, TopOutDegreeSelectionMatchesRebuiltCsr) {
  const auto base = rmat10_base();
  const std::vector<Edge> inserts = {{999, 1000}};
  const DeltaCsr d = DeltaCsr::apply(base, nullptr, inserts, {});
  const CsrGraph flat = build_csr(d.materialize_edges());
  EXPECT_EQ(top_out_degree_vertices(d, 16),
            top_out_degree_vertices(flat, 16));
}

TEST(DeltaCsr, ApplyValidatesItsInputs) {
  const auto base =
      std::make_shared<const CsrGraph>(build_csr(make_cycle(8)));
  const std::vector<Edge> one = {{0, 4}};

  EXPECT_THROW((void)DeltaCsr::apply(nullptr, nullptr, one, {}),
               std::invalid_argument);

  const std::vector<Edge> negative = {{-1, 3}};
  EXPECT_THROW((void)DeltaCsr::apply(base, nullptr, negative, {}),
               std::invalid_argument);
  EXPECT_THROW((void)DeltaCsr::apply(base, nullptr, {}, negative),
               std::invalid_argument);

  // prev must overlay this same base.
  const auto other =
      std::make_shared<const CsrGraph>(build_csr(make_cycle(8)));
  const DeltaCsr on_other = DeltaCsr::apply(other, nullptr, one, {});
  EXPECT_THROW((void)DeltaCsr::apply(base, &on_other, one, {}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------
// Bit-equality of traversals: the delta overlay and the full rebuild
// must be indistinguishable to every kernel — identical level maps,
// identical per-level |V|cq / |E|cq / scanned / next counters, and
// identical parents. Parameterised over thread count.
// ---------------------------------------------------------------------

void expect_bit_equal_traversals(const DeltaCsr& d, const CsrGraph& flat) {
  const CsrGraphView fv(flat);
  for (const vid_t root : sample_roots(flat, 3, 33)) {
    bfs::TraversalLog log_d_td;
    bfs::TraversalLog log_f_td;
    const bfs::BfsResult d_td = bfs::run_top_down(d, root, &log_d_td);
    const bfs::BfsResult f_td = bfs::run_top_down(fv, root, &log_f_td);

    bfs::TraversalLog log_d_bu;
    bfs::TraversalLog log_f_bu;
    const bfs::BfsResult d_bu = bfs::run_bottom_up(d, root, &log_d_bu);
    const bfs::BfsResult f_bu = bfs::run_bottom_up(fv, root, &log_f_bu);

    EXPECT_TRUE(bfs::same_levels(d_td, f_td)) << root;
    EXPECT_TRUE(bfs::same_levels(d_bu, f_bu)) << root;
    EXPECT_EQ(d_td.reached, f_td.reached) << root;
    EXPECT_EQ(d_td.edges_in_component, f_td.edges_in_component) << root;

    ASSERT_EQ(log_d_td.levels.size(), log_f_td.levels.size()) << root;
    for (std::size_t i = 0; i < log_d_td.levels.size(); ++i) {
      const bfs::LevelRecord& a = log_d_td.levels[i];
      const bfs::LevelRecord& b = log_f_td.levels[i];
      EXPECT_EQ(a.frontier_vertices, b.frontier_vertices) << root << "/" << i;
      EXPECT_EQ(a.frontier_edges, b.frontier_edges) << root << "/" << i;
      EXPECT_EQ(a.next_vertices, b.next_vertices) << root << "/" << i;
    }
    ASSERT_EQ(log_d_bu.levels.size(), log_f_bu.levels.size()) << root;
    for (std::size_t i = 0; i < log_d_bu.levels.size(); ++i) {
      const bfs::LevelRecord& a = log_d_bu.levels[i];
      const bfs::LevelRecord& b = log_f_bu.levels[i];
      EXPECT_EQ(a.frontier_vertices, b.frontier_vertices) << root << "/" << i;
      EXPECT_EQ(a.frontier_edges, b.frontier_edges) << root << "/" << i;
      EXPECT_EQ(a.bottom_up_scanned, b.bottom_up_scanned) << root << "/" << i;
      EXPECT_EQ(a.next_vertices, b.next_vertices) << root << "/" << i;
    }

    EXPECT_EQ(d_td.parent, f_td.parent) << root;
    EXPECT_EQ(d_bu.parent, f_bu.parent) << root;
    EXPECT_TRUE(bfs::validate_bfs(d, root, d_td).ok) << root;
  }
}

class DeltaTraversal : public ::testing::TestWithParam<int> {};

TEST_P(DeltaTraversal, BitEqualOnRmatWithInsertsAndRemoves) {
  test::set_threads(GetParam());
  const auto base = rmat10_base();
  PairSet oracle = undirected_pairs(*base);
  // A batch with inserts, a vertex-growing insert, and removals — the
  // post-delete shape the serve layer publishes under mixed churn.
  const std::vector<Edge> inserts = {{5, 600}, {6, 601}, {7, 1500}};
  std::vector<Edge> removes;
  for (vid_t u = 0; u < base->num_vertices() && removes.size() < 4; u += 37) {
    if (base->out_degree(u) > 0) removes.push_back({u, base->out_neighbors(u)[0]});
  }
  apply_to_oracle(oracle, inserts, removes);

  const DeltaCsr d = DeltaCsr::apply(base, nullptr, inserts, removes);
  expect_bit_equal_traversals(d, rebuild_from_oracle(oracle, d.num_vertices()));
}

TEST_P(DeltaTraversal, BitEqualOnGridAcrossChainedBatches) {
  test::set_threads(GetParam());
  const auto base =
      std::make_shared<const CsrGraph>(build_csr(make_grid(24, 24)));
  PairSet oracle = undirected_pairs(*base);

  const std::vector<Edge> b1_ins = {{0, 575}, {100, 475}};
  apply_to_oracle(oracle, b1_ins, {});
  const DeltaCsr d1 = DeltaCsr::apply(base, nullptr, b1_ins, {});
  expect_bit_equal_traversals(d1,
                              rebuild_from_oracle(oracle, d1.num_vertices()));

  const std::vector<Edge> b2_rem = {{0, 575}, {23, 47}};
  apply_to_oracle(oracle, {}, b2_rem);
  const DeltaCsr d2 = DeltaCsr::apply(base, &d1, {}, b2_rem);
  expect_bit_equal_traversals(d2,
                              rebuild_from_oracle(oracle, d2.num_vertices()));

  // Post-compaction: folding the overlay back to a flat CSR preserves
  // the traversal bit-for-bit.
  const CsrGraph compacted = build_csr(d2.materialize_edges());
  expect_rows_equal(d2, compacted);
}

TEST_P(DeltaTraversal, MsBfsOverDeltaMatchesFlatRebuild) {
  test::set_threads(GetParam());
  const auto base = rmat10_base();
  PairSet oracle = undirected_pairs(*base);
  const std::vector<Edge> inserts = {{2, 512}, {300, 301}};
  const std::vector<Edge> removes = {{2, 512}};  // last-op per batch is ours
  // Note: apply() takes inserts and removes as separate spans with
  // removes applied after inserts, so insert+remove of the same edge
  // nets to "absent".
  apply_to_oracle(oracle, inserts, removes);

  const DeltaCsr d = DeltaCsr::apply(base, nullptr, inserts, removes);
  const CsrGraph flat = rebuild_from_oracle(oracle, d.num_vertices());

  const std::vector<vid_t> roots = sample_roots(flat, 8, 44);
  const core::HybridPolicy policy;
  const bfs::MsBfsResult over_delta = bfs::ms_bfs(d, roots, policy);
  const bfs::MsBfsResult over_flat =
      bfs::ms_bfs(CsrGraphView(flat), roots, policy);
  ASSERT_EQ(over_delta.per_root.size(), over_flat.per_root.size());
  for (std::size_t i = 0; i < roots.size(); ++i) {
    EXPECT_EQ(over_delta.per_root[i].level, over_flat.per_root[i].level)
        << "lane " << i;
    EXPECT_EQ(over_delta.per_root[i].reached, over_flat.per_root[i].reached)
        << "lane " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, DeltaTraversal, ::testing::Values(1, 4));

}  // namespace
}  // namespace bfsx::graph
