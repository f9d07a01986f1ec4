// Unit tests for the wall-clock engines.
#include "graph500/native_engine.h"

#include <gtest/gtest.h>

#include <omp.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bfs/validate.h"
#include "graph/builder.h"
#include "graph/compressed_csr.h"
#include "graph/graph_stats.h"
#include "graph/rmat.h"
#include "graph500/engine_registry.h"

namespace bfsx::graph500 {
namespace {

graph::CsrGraph test_graph() {
  graph::RmatParams p;
  p.scale = 11;
  return graph::build_csr(graph::generate_rmat(p));
}

TEST(NativeEngine, TopDownProducesValidTimedResult) {
  const graph::CsrGraph g = test_graph();
  const graph::vid_t root = graph::sample_roots(g, 1, 5)[0];
  const TimedBfs t = make_native_top_down_engine()(g, root);
  EXPECT_TRUE(bfs::validate_bfs(g, root, t.result).ok);
  EXPECT_GT(t.seconds, 0.0);
  EXPECT_LT(t.seconds, 30.0);  // wall clock, sane bound
}

TEST(NativeEngine, AllNativeEnginesAgreeOnLevels) {
  const graph::CsrGraph g = test_graph();
  const graph::vid_t root = graph::sample_roots(g, 1, 5)[0];
  const TimedBfs td = make_native_top_down_engine()(g, root);
  const TimedBfs bu = make_native_bottom_up_engine()(g, root);
  const TimedBfs hy = make_native_hybrid_engine({14, 24})(g, root);
  EXPECT_EQ(td.result.level, bu.result.level);
  EXPECT_EQ(td.result.level, hy.result.level);
}

TEST(NativeEngine, HybridValidatesThroughRunner) {
  const graph::CsrGraph g = test_graph();
  RunnerOptions opts;
  opts.num_roots = 4;
  const BenchmarkResult res =
      run_benchmark(g, make_native_hybrid_engine({14, 24}), opts);
  EXPECT_EQ(res.validation_failures, 0);
  EXPECT_GT(res.stats.harmonic_mean, 0.0);
}

TEST(NativeEngine, HybridRejectsInvalidPolicy) {
  EXPECT_THROW(make_native_hybrid_engine({0.1, 5}), std::invalid_argument);
}

graph::CsrGraph rmat14(std::uint64_t seed, bool symmetric) {
  graph::RmatParams p;
  p.scale = 14;
  p.seed = seed;
  graph::BuildOptions opts;
  opts.symmetrize = symmetric;
  return graph::build_csr(graph::generate_rmat(p), opts);
}

TEST(NativeEngine, CompressedConfigMatchesCsrThroughTheRegistry) {
  const EngineRegistry registry = EngineRegistry::with_builtin_engines();
  const int saved_threads = omp_get_max_threads();
  for (const bool symmetric : {true, false}) {
    const graph::CsrGraph g = rmat14(2014, symmetric);
    ASSERT_EQ(g.is_symmetric(), symmetric);
    const graph::CompressedCsrView compressed(g);
    // Same vertex count, other edges: proves the engine traverses the
    // view it is handed rather than the CsrGraph it is called with.
    const graph::CsrGraph other = rmat14(7, symmetric);
    ASSERT_EQ(other.num_vertices(), g.num_vertices());
    const graph::CompressedCsrView other_compressed(other);
    EngineConfig flat_cfg;
    EngineConfig compressed_cfg;
    compressed_cfg.compressed = &compressed;
    EngineConfig other_cfg;
    other_cfg.compressed = &other_compressed;
    const std::vector<graph::vid_t> roots = graph::sample_roots(g, 2, 17);
    for (const std::string name :
         {"native-td", "native-bu", "native-hybrid"}) {
      const BfsEngine flat = registry.make_engine(name, flat_cfg);
      const BfsEngine packed = registry.make_engine(name, compressed_cfg);
      for (const int threads : {1, 4}) {
        omp_set_num_threads(threads);
        for (const graph::vid_t root : roots) {
          SCOPED_TRACE(name + (symmetric ? " symmetric" : " directed") +
                       ", " + std::to_string(threads) + " threads, root " +
                       std::to_string(root));
          const bfs::BfsResult want = flat(g, root).result;
          const bfs::BfsResult got = packed(g, root).result;
          EXPECT_EQ(got.reached, want.reached);
          EXPECT_EQ(got.edges_in_component, want.edges_in_component);
          EXPECT_TRUE(got.level == want.level);
          // Parents are the smallest-id frontier in-neighbour on every
          // view, so they match exactly, not just as valid trees.
          EXPECT_TRUE(got.parent == want.parent);
        }
      }
      const bfs::BfsResult rerouted =
          registry.make_engine(name, other_cfg)(g, roots.front()).result;
      EXPECT_FALSE(rerouted.level == flat(g, roots.front()).result.level)
          << name;
    }
  }
  omp_set_num_threads(saved_threads);
}

}  // namespace
}  // namespace bfsx::graph500
