// Unit tests for CSR storage and edge-list -> CSR construction.
#include "graph/builder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "graph/csr.h"
#include "graph/prng.h"
#include "graph/rmat.h"
#include "kernel1_digest.h"
#include "thread_count.h"

namespace bfsx::graph {
namespace {

EdgeList triangle_plus_tail() {
  // 0-1, 1-2, 2-0, 2-3 (undirected intent)
  EdgeList el;
  el.num_vertices = 4;
  el.add(0, 1);
  el.add(1, 2);
  el.add(2, 0);
  el.add(2, 3);
  return el;
}

TEST(Builder, SymmetrizedCountsBothDirections) {
  const CsrGraph g = build_csr(triangle_plus_tail());
  EXPECT_EQ(g.num_vertices(), 4);
  EXPECT_EQ(g.num_edges(), 8);  // 4 undirected edges -> 8 directed
  EXPECT_TRUE(g.is_symmetric());
}

TEST(Builder, NeighborsAreSortedAndComplete) {
  const CsrGraph g = build_csr(triangle_plus_tail());
  const std::vector<vid_t> n2(g.out_neighbors(2).begin(),
                              g.out_neighbors(2).end());
  EXPECT_EQ(n2, (std::vector<vid_t>{0, 1, 3}));
  const std::vector<vid_t> n3(g.out_neighbors(3).begin(),
                              g.out_neighbors(3).end());
  EXPECT_EQ(n3, (std::vector<vid_t>{2}));
}

TEST(Builder, HasEdgeBothDirectionsAfterSymmetrize) {
  const CsrGraph g = build_csr(triangle_plus_tail());
  EXPECT_TRUE(g.has_edge(2, 3));
  EXPECT_TRUE(g.has_edge(3, 2));
  EXPECT_FALSE(g.has_edge(0, 3));
}

TEST(Builder, RemovesSelfLoops) {
  EdgeList el;
  el.num_vertices = 3;
  el.add(0, 0);
  el.add(1, 1);
  el.add(0, 1);
  const CsrGraph g = build_csr(std::move(el));
  EXPECT_EQ(g.num_edges(), 2);  // just 0<->1
  EXPECT_FALSE(g.has_edge(0, 0));
}

TEST(Builder, KeepsSelfLoopsWhenAsked) {
  EdgeList el;
  el.num_vertices = 2;
  el.add(0, 0);
  el.add(0, 1);
  BuildOptions opts;
  opts.remove_self_loops = false;
  const CsrGraph g = build_csr(std::move(el), opts);
  EXPECT_TRUE(g.has_edge(0, 0));
}

TEST(Builder, DeduplicatesParallelEdges) {
  EdgeList el;
  el.num_vertices = 2;
  for (int i = 0; i < 5; ++i) el.add(0, 1);
  const CsrGraph g = build_csr(std::move(el));
  EXPECT_EQ(g.num_edges(), 2);  // one each way
  EXPECT_EQ(g.out_degree(0), 1);
}

TEST(Builder, RejectsOutOfRangeEndpoints) {
  EdgeList el;
  el.num_vertices = 2;
  el.add(0, 5);
  EXPECT_THROW(build_csr(std::move(el)), std::out_of_range);
}

TEST(Builder, EmptyGraphBuilds) {
  EdgeList el;
  el.num_vertices = 3;
  const CsrGraph g = build_csr(std::move(el));
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_EQ(g.out_degree(1), 0);
}

TEST(Builder, DirectedKeepsDistinctInOutAdjacency) {
  EdgeList el;
  el.num_vertices = 3;
  el.add(0, 1);
  el.add(1, 2);
  const CsrGraph g = build_directed_csr(std::move(el));
  EXPECT_FALSE(g.is_symmetric());
  EXPECT_EQ(g.out_degree(0), 1);
  EXPECT_EQ(g.in_degree(0), 0);
  EXPECT_EQ(g.in_degree(1), 1);
  EXPECT_EQ(g.in_degree(2), 1);
  const auto in2 = g.in_neighbors(2);
  ASSERT_EQ(in2.size(), 1u);
  EXPECT_EQ(in2[0], 1);
}

TEST(Builder, InDegreeSumEqualsOutDegreeSumDirected) {
  EdgeList el;
  el.num_vertices = 5;
  el.add(0, 1);
  el.add(0, 2);
  el.add(3, 4);
  el.add(4, 0);
  const CsrGraph g = build_directed_csr(std::move(el));
  eid_t in_sum = 0;
  eid_t out_sum = 0;
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    in_sum += g.in_degree(v);
    out_sum += g.out_degree(v);
  }
  EXPECT_EQ(in_sum, out_sum);
  EXPECT_EQ(out_sum, 4);
}

TEST(Builder, ValidatesLargeListsPastTheParallelThreshold) {
  // One bad endpoint buried in a list big enough to take the parallel
  // validation path must still throw.
  EdgeList el;
  el.num_vertices = 64;
  for (int i = 0; i < 100000; ++i) el.add(i % 64, (i + 1) % 64);
  el.edges[73111] = {3, 64};  // out of range
  EXPECT_THROW(validate_edge_list(el), std::out_of_range);
  el.edges[73111] = {3, 63};
  EXPECT_NO_THROW(validate_edge_list(el));
}

/// Adversarial edge lists: big enough to cross the parallel threshold,
/// shaped to stress one scatter pathology each.
std::vector<EdgeList> adversarial_lists() {
  std::vector<EdgeList> lists;
  {
    // Skewed degree: one hub owns nearly every edge, so a single
    // adjacency row spans many scatter chunks.
    EdgeList el;
    el.num_vertices = 1000;
    for (int i = 0; i < 60000; ++i) el.add(0, 1 + i % 999);
    lists.push_back(std::move(el));
  }
  {
    // Self-loop heavy: half the list must vanish before packing.
    EdgeList el;
    el.num_vertices = 500;
    for (int i = 0; i < 50000; ++i) {
      el.add(i % 500, (i % 2 == 0) ? i % 500 : (i * 7 + 1) % 500);
    }
    lists.push_back(std::move(el));
  }
  {
    // Duplicate heavy: dedup compacts rows to a fraction of their
    // scattered size.
    EdgeList el;
    el.num_vertices = 64;
    for (int i = 0; i < 80000; ++i) el.add(i % 64, (i * 3) % 64);
    lists.push_back(std::move(el));
  }
  {
    // Uniform random.
    EdgeList el;
    el.num_vertices = 4096;
    Xoshiro256ss rng(99);
    for (int i = 0; i < 70000; ++i) {
      el.add(static_cast<vid_t>(rng.next_bounded(4096)),
             static_cast<vid_t>(rng.next_bounded(4096)));
    }
    lists.push_back(std::move(el));
  }
  return lists;
}

/// Small and degenerate lists, and a star whose hub row alone holds
/// more entries than the builder's parallel threshold (2^14 edges), so
/// one worker's row range is a single giant row.
std::vector<EdgeList> edge_case_lists() {
  std::vector<EdgeList> lists;
  lists.push_back(EdgeList{});                 // no vertices, no edges
  lists.push_back(EdgeList{1, {}});            // one vertex, no edges
  lists.push_back(EdgeList{1, {{0, 0}}});      // one vertex, a self loop
  // Isolated vertices around a few edges, one of them a loop.
  lists.push_back(EdgeList{50, {{3, 7}, {7, 3}, {40, 12}, {12, 12}}});
  lists.push_back(EdgeList{3, {{1, 1}, {0, 2}, {1, 1}}});  // duplicated loop
  EdgeList star;
  star.num_vertices = 30001;
  const vid_t hub = star.num_vertices / 2;
  for (vid_t v = 0; v < star.num_vertices; ++v) {
    if (v % 2 == 0) star.add(hub, v);  // includes the loop (hub, hub)
    if (v % 2 == 1) star.add(v, hub);
  }
  lists.push_back(std::move(star));
  return lists;
}

using Rows = std::vector<std::vector<vid_t>>;

/// The serial reference build: every kept pair into its out-row and its
/// in-row, then a sort and a dedup of each row.
std::pair<Rows, Rows> reference_rows(const EdgeList& el, bool symmetrize,
                                     bool remove_self_loops) {
  const auto n = static_cast<std::size_t>(el.num_vertices);
  Rows out(n);
  Rows in(n);
  auto add = [&](vid_t u, vid_t v) {
    out[static_cast<std::size_t>(u)].push_back(v);
    in[static_cast<std::size_t>(v)].push_back(u);
  };
  for (const Edge& e : el.edges) {
    if (remove_self_loops && e.src == e.dst) continue;
    add(e.src, e.dst);
    if (symmetrize) add(e.dst, e.src);
  }
  for (Rows* rows : {&out, &in}) {
    for (std::vector<vid_t>& row : *rows) {
      std::sort(row.begin(), row.end());
      row.erase(std::unique(row.begin(), row.end()), row.end());
    }
  }
  return {std::move(out), std::move(in)};
}

void expect_reference_rows(const CsrGraph& g, const EdgeList& el,
                           bool symmetrize, bool remove_self_loops,
                           const std::string& what) {
  const auto [out, in] = reference_rows(el, symmetrize, remove_self_loops);
  ASSERT_EQ(static_cast<std::size_t>(g.num_vertices()), out.size()) << what;
  EXPECT_EQ(g.is_symmetric(), symmetrize) << what;
  for (std::size_t v = 0; v < out.size(); ++v) {
    const auto u = static_cast<vid_t>(v);
    ASSERT_TRUE(std::ranges::equal(g.out_neighbors(u), out[v]))
        << what << ": out-row " << v;
    ASSERT_TRUE(std::ranges::equal(g.in_neighbors(u), in[v]))
        << what << ": in-row " << v;
  }
}

class BuilderReference : public ::testing::TestWithParam<int> {
 protected:
  test::ThreadCountGuard guard_;
};

TEST_P(BuilderReference, BuildsEqualSortedDedupedReference) {
  test::set_threads(GetParam());
  std::vector<EdgeList> lists = adversarial_lists();
  for (EdgeList& el : edge_case_lists()) lists.push_back(std::move(el));
  for (std::size_t i = 0; i < lists.size(); ++i) {
    const EdgeList& el = lists[i];
    for (const bool remove_self_loops : {true, false}) {
      BuildOptions opts;
      opts.remove_self_loops = remove_self_loops;
      const std::string what = "list " + std::to_string(i) +
                               (remove_self_loops ? "" : ", loops kept");
      expect_reference_rows(build_csr(el, opts), el, true, remove_self_loops,
                            "build_csr, " + what);
      expect_reference_rows(build_directed_csr(el, opts), el, false,
                            remove_self_loops, "build_directed_csr, " + what);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, BuilderReference,
                         ::testing::Values(1, 2, 3, 4));

// Kernel 1's bytes over R-MAT lists: every benchmark graph and the
// golden trace depend on them, so the builder's arrays must not move at
// any thread count.
class BuilderDigest : public ::testing::TestWithParam<int> {
 protected:
  test::ThreadCountGuard guard_;
};

TEST_P(BuilderDigest, RmatArraysMatchPinnedDigests) {
  test::set_threads(GetParam());
  constexpr std::uint64_t kSymmetric[] = {
      0x766e4aaf96d465e9ULL, 0x10648ae4e91e66b2ULL,
      0x0dd40a2b99592702ULL, 0x9bf3e760f7d03a31ULL,
      0x85119bdc22193678ULL, 0x53ead39a37b1a616ULL,
  };
  constexpr std::uint64_t kDirected[] = {
      0x64b1565c64d3d9a4ULL, 0x29142393efa26729ULL,
      0x3ad8adfdb24f7dc3ULL, 0x542a5af157afd6dbULL,
      0x7e5883906e8cd613ULL, 0x29e23c2f81f7c5aaULL,
  };
  const std::vector<RmatParams> params = test::pinned_rmat_params();
  ASSERT_EQ(params.size(), std::size(kSymmetric));
  ASSERT_EQ(params.size(), std::size(kDirected));
  for (std::size_t i = 0; i < params.size(); ++i) {
    const EdgeList el = generate_rmat(params[i]);
    EXPECT_EQ(test::digest(build_csr(el)), kSymmetric[i])
        << "scale " << params[i].scale << ", noise " << params[i].noise;
    EXPECT_EQ(test::digest(build_directed_csr(el)), kDirected[i])
        << "scale " << params[i].scale << ", noise " << params[i].noise;
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, BuilderDigest, ::testing::Values(1, 4));

#ifdef _OPENMP
void expect_same_csr(const CsrGraph& a, const CsrGraph& b) {
  EXPECT_EQ(a.is_symmetric(), b.is_symmetric());
  EXPECT_EQ(a.out_offsets(), b.out_offsets());
  EXPECT_EQ(a.out_targets(), b.out_targets());
  EXPECT_EQ(a.in_offsets(), b.in_offsets());
  EXPECT_EQ(a.in_targets(), b.in_targets());
}

class BuilderThreads : public ::testing::TestWithParam<int> {};

TEST_P(BuilderThreads, ParallelBuildEqualsSerialBuild) {
  const int threads = GetParam();
  const int saved = omp_get_max_threads();
  for (const EdgeList& el : adversarial_lists()) {
    omp_set_num_threads(1);
    const CsrGraph serial_sym = build_csr(el);
    const CsrGraph serial_dir = build_directed_csr(el);
    omp_set_num_threads(threads);
    expect_same_csr(serial_sym, build_csr(el));
    expect_same_csr(serial_dir, build_directed_csr(el));
    omp_set_num_threads(saved);
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, BuilderThreads,
                         ::testing::Values(2, 3, 4, 8));
#endif  // _OPENMP

TEST(Csr, MemoryFootprintIsPositiveAndScales) {
  const CsrGraph small = build_csr(triangle_plus_tail());
  EdgeList big_el;
  big_el.num_vertices = 100;
  for (vid_t v = 0; v + 1 < 100; ++v) big_el.add(v, v + 1);
  const CsrGraph big = build_csr(std::move(big_el));
  EXPECT_GT(small.memory_footprint_bytes(), 0u);
  EXPECT_GT(big.memory_footprint_bytes(), small.memory_footprint_bytes());
}

}  // namespace
}  // namespace bfsx::graph
