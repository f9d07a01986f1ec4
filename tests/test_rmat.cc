// Unit and property tests for the R-MAT Kronecker generator.
#include "graph/rmat.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <iterator>
#include <stdexcept>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "graph/builder.h"
#include "graph/graph_stats.h"
#include "kernel1_digest.h"
#include "thread_count.h"

namespace bfsx::graph {
namespace {

TEST(Rmat, RespectsRequestedSizes) {
  RmatParams p;
  p.scale = 10;
  p.edgefactor = 8;
  const EdgeList el = generate_rmat(p);
  EXPECT_EQ(el.num_vertices, 1024);
  EXPECT_EQ(el.num_edges(), 8 * 1024);
  for (const Edge& e : el.edges) {
    EXPECT_GE(e.src, 0);
    EXPECT_LT(e.src, el.num_vertices);
    EXPECT_GE(e.dst, 0);
    EXPECT_LT(e.dst, el.num_vertices);
  }
}

TEST(Rmat, IsDeterministicUnderSeed) {
  RmatParams p;
  p.scale = 9;
  const EdgeList a = generate_rmat(p);
  const EdgeList b = generate_rmat(p);
  EXPECT_EQ(a.edges, b.edges);
}

TEST(Rmat, SeedsProduceDifferentGraphs) {
  RmatParams p;
  p.scale = 9;
  p.seed = 1;
  const EdgeList a = generate_rmat(p);
  p.seed = 2;
  const EdgeList b = generate_rmat(p);
  EXPECT_NE(a.edges, b.edges);
}

TEST(Rmat, SkewedParametersProduceSkewedDegrees) {
  // With A=0.57 the degree distribution must be far more skewed than a
  // uniform graph: max degree well above the mean.
  RmatParams p;
  p.scale = 12;
  p.edgefactor = 16;
  const CsrGraph g = build_csr(generate_rmat(p));
  const DegreeStats s = compute_degree_stats(g);
  EXPECT_GT(static_cast<double>(s.max), 8.0 * s.mean);
  EXPECT_GT(s.isolated, 0);  // scale-free graphs strand low-id leaves
}

TEST(Rmat, UniformParametersApproachErdosRenyi) {
  RmatParams p;
  p.scale = 12;
  p.edgefactor = 16;
  p.a = p.b = p.c = p.d = 0.25;
  p.noise = 0.0;
  const CsrGraph g = build_csr(generate_rmat(p));
  const DegreeStats s = compute_degree_stats(g);
  // Uniform quadrant probabilities give a near-Poisson degree profile:
  // max degree within a small factor of the mean.
  EXPECT_LT(static_cast<double>(s.max), 4.0 * s.mean);
}

TEST(Rmat, PermutationPreservesDegreeMultiset) {
  RmatParams p;
  p.scale = 10;
  p.seed = 77;
  p.noise = 0.0;
  p.permute_vertices = false;
  const CsrGraph g1 = build_csr(generate_rmat(p));
  p.permute_vertices = true;
  const CsrGraph g2 = build_csr(generate_rmat(p));
  std::vector<eid_t> d1;
  std::vector<eid_t> d2;
  for (vid_t v = 0; v < g1.num_vertices(); ++v) {
    d1.push_back(g1.out_degree(v));
    d2.push_back(g2.out_degree(v));
  }
  std::sort(d1.begin(), d1.end());
  std::sort(d2.begin(), d2.end());
  EXPECT_EQ(d1, d2);
}

TEST(Rmat, WithoutPermutationHubsHaveSmallIds) {
  // The raw Kronecker recursion biases mass toward low ids when A is
  // the largest quadrant; the permutation option exists to destroy
  // exactly this artefact.
  RmatParams p;
  p.scale = 12;
  p.permute_vertices = false;
  const CsrGraph g = build_csr(generate_rmat(p));
  const vid_t n = g.num_vertices();
  eid_t low_half = 0;
  eid_t high_half = 0;
  for (vid_t v = 0; v < n; ++v) {
    (v < n / 2 ? low_half : high_half) += g.out_degree(v);
  }
  EXPECT_GT(low_half, 2 * high_half);
}

#ifdef _OPENMP
/// Runs `fn` with the OpenMP worker pool clamped to `threads`, restoring
/// the previous setting afterwards.
template <typename Fn>
auto with_threads(int threads, Fn&& fn) {
  const int saved = omp_get_max_threads();
  omp_set_num_threads(threads);
  auto result = fn();
  omp_set_num_threads(saved);
  return result;
}

TEST(Rmat, BitIdenticalAcrossThreadCounts) {
  // Eight generation blocks (2^13 * 16 / kRmatBlockEdges), so the block
  // partition is genuinely exercised. Permutation and noise on: both
  // draw from streams whose position is independent of the worker count.
  RmatParams p;
  p.scale = 13;
  p.edgefactor = 16;
  ASSERT_GT(static_cast<std::size_t>(p.num_edges()), kRmatBlockEdges);
  const EdgeList serial = with_threads(1, [&] { return generate_rmat(p); });
  for (int threads : {2, 3, 4}) {
    const EdgeList parallel =
        with_threads(threads, [&] { return generate_rmat(p); });
    EXPECT_EQ(serial.edges, parallel.edges) << "threads=" << threads;
  }
}

TEST(Rmat, BitIdenticalAcrossThreadCountsNoNoiseNoPermute) {
  // The noise-free draw consumes a different number of PRNG values per
  // edge; the block scheme must be invariant for that shape too.
  RmatParams p;
  p.scale = 13;
  p.edgefactor = 16;
  p.noise = 0.0;
  p.permute_vertices = false;
  const EdgeList serial = with_threads(1, [&] { return generate_rmat(p); });
  const EdgeList parallel = with_threads(4, [&] { return generate_rmat(p); });
  EXPECT_EQ(serial.edges, parallel.edges);
}
#endif  // _OPENMP

TEST(Rmat, SingleBlockAndMultiBlockListsAreBothDeterministic) {
  // Below one block the generator degenerates to a single stream; above
  // it the jump table kicks in. Same-seed determinism must hold in both
  // regimes (the cross-regime layout is pinned by kRmatBlockEdges, not
  // by the machine).
  for (int scale : {9, 13}) {
    RmatParams p;
    p.scale = scale;
    const EdgeList a = generate_rmat(p);
    const EdgeList b = generate_rmat(p);
    EXPECT_EQ(a.edges, b.edges) << "scale=" << scale;
  }
}

TEST(Rmat, QuadrantFrequenciesMatchProbabilities) {
  // At scale 1 each edge is one quadrant draw: (row, col) = (0, 0) with
  // probability a, (0, 1) with b, (1, 0) with c and (1, 1) with d. b != c
  // here, so a swapped row and column bit shows.
  RmatParams p;
  p.scale = 1;
  p.edgefactor = 1 << 15;
  p.a = 0.45;
  p.b = 0.25;
  p.c = 0.2;
  p.d = 0.1;
  p.noise = 0.0;
  p.permute_vertices = false;
  const EdgeList el = generate_rmat(p);
  std::array<double, 4> share{};
  for (const Edge& e : el.edges) {
    share[static_cast<std::size_t>(2 * e.src + e.dst)] += 1;
  }
  const std::array<double, 4> expected{p.a, p.b, p.c, p.d};
  for (std::size_t q = 0; q < share.size(); ++q) {
    EXPECT_NEAR(share[q] / static_cast<double>(el.edges.size()), expected[q],
                0.01)
        << "(row, col) = (" << q / 2 << ", " << q % 2 << ")";
  }
}

// Kernel 1's bytes: every benchmark graph and the golden trace depend on
// them, so the generator's output must not move at any thread count.
class RmatDigest : public ::testing::TestWithParam<int> {
 protected:
  test::ThreadCountGuard guard_;
};

TEST_P(RmatDigest, EdgeListsMatchPinnedDigests) {
  test::set_threads(GetParam());
  constexpr std::uint64_t kPinned[] = {
      0x019a15f5292774fcULL, 0x34d6d0ffdd6e42baULL,
      0x2b3ec079672e3390ULL, 0x0cb243a9a26296e2ULL,
      0x95c0b2991a2a3facULL, 0x586b7adbd7593433ULL,
  };
  const std::vector<RmatParams> params = test::pinned_rmat_params();
  ASSERT_EQ(params.size(), std::size(kPinned));
  for (std::size_t i = 0; i < params.size(); ++i) {
    EXPECT_EQ(test::digest(generate_rmat(params[i])), kPinned[i])
        << "scale " << params[i].scale << ", noise " << params[i].noise;
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, RmatDigest, ::testing::Values(1, 4));

TEST(RmatValidate, RejectsBadParameters) {
  RmatParams p;
  p.scale = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = {};
  p.edgefactor = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = {};
  p.a = 0.9;  // sum != 1
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = {};
  p.noise = 1.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = {};
  EXPECT_NO_THROW(p.validate());
}

// Parameterised sweep: every (scale, edgefactor) combination must build
// a structurally sane CSR.
class RmatSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RmatSweep, BuildsSaneCsr) {
  const auto [scale, ef] = GetParam();
  RmatParams p;
  p.scale = scale;
  p.edgefactor = ef;
  const CsrGraph g = build_csr(generate_rmat(p));
  EXPECT_EQ(g.num_vertices(), vid_t{1} << scale);
  // Symmetrised and deduplicated: at most 2x the generated count, and
  // at least half of it (dedup and self-loop removal shrink a little).
  EXPECT_LE(g.num_edges(), 2 * p.num_edges());
  EXPECT_GE(g.num_edges(), p.num_edges() / 2);
  // Symmetry: out and in views are the same arrays.
  EXPECT_TRUE(g.is_symmetric());
}

INSTANTIATE_TEST_SUITE_P(ScaleAndEdgefactor, RmatSweep,
                         ::testing::Combine(::testing::Values(8, 10, 12),
                                            ::testing::Values(4, 8, 16)));

}  // namespace
}  // namespace bfsx::graph
