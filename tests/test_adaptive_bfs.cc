// Unit tests for the single-architecture combination executor.
#include "core/adaptive_bfs.h"

#include <gtest/gtest.h>

#include "bfs/validate.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/graph_stats.h"
#include "graph/rmat.h"

namespace bfsx::core {
namespace {

graph::CsrGraph rmat_graph() {
  graph::RmatParams p;
  p.scale = 12;
  return graph::build_csr(graph::generate_rmat(p));
}

TEST(Combination, ProducesValidBfsUnderAnyPolicy) {
  const graph::CsrGraph g = rmat_graph();
  const sim::Device cpu{sim::make_sandy_bridge_cpu()};
  const auto roots = graph::sample_roots(g, 2, 13);
  for (graph::vid_t root : roots) {
    for (const HybridPolicy& p :
         {HybridPolicy{1, 1}, HybridPolicy{14, 24}, HybridPolicy{300, 300}}) {
      const CombinationRun run = run_combination(g, root, cpu, p);
      EXPECT_TRUE(bfs::validate_bfs(g, root, run.result).ok)
          << "M=" << p.m << " N=" << p.n;
      EXPECT_GT(run.seconds, 0.0);
      EXPECT_FALSE(run.levels.empty());
    }
  }
}

TEST(Combination, UsesBothDirectionsAtModerateKnobs) {
  const graph::CsrGraph g = rmat_graph();
  const sim::Device cpu{sim::make_sandy_bridge_cpu()};
  const auto roots = graph::sample_roots(g, 1, 13);
  const CombinationRun run = run_combination(g, roots[0], cpu, {14, 24});
  bool saw_td = false;
  bool saw_bu = false;
  for (const obs::LevelEvent& lvl : run.levels) {
    saw_td |= lvl.direction == bfs::Direction::kTopDown;
    saw_bu |= lvl.direction == bfs::Direction::kBottomUp;
  }
  EXPECT_TRUE(saw_td);
  EXPECT_TRUE(saw_bu);
  EXPECT_GE(run.direction_switches, 1);
}

TEST(Combination, MatchesLevelCount) {
  const graph::CsrGraph g = graph::build_csr(graph::make_binary_tree(255));
  const sim::Device gpu{sim::make_kepler_gpu()};
  const CombinationRun run = run_combination(g, 0, gpu, {14, 24});
  EXPECT_EQ(run.levels.size(), 8u);  // depth-7 tree: levels 0..7 expanded
  for (const obs::LevelEvent& lvl : run.levels) {
    EXPECT_EQ(lvl.device, "KeplerK20xGPU");
  }
}

TEST(Combination, SecondsAreSumOfLevels) {
  const graph::CsrGraph g = rmat_graph();
  const sim::Device mic{sim::make_knights_corner_mic()};
  const auto roots = graph::sample_roots(g, 1, 21);
  const CombinationRun run = run_combination(g, roots[0], mic, {10, 10});
  double sum = 0;
  for (const obs::LevelEvent& lvl : run.levels) sum += lvl.compute_seconds;
  EXPECT_DOUBLE_EQ(run.seconds, sum);
  EXPECT_DOUBLE_EQ(run.transfer_seconds, 0.0);
}

TEST(Combination, BeatsPureDirectionsOnSmallWorldGraph) {
  // The Beamer result the whole paper builds on: the hybrid must beat
  // both pure directions on a scale-free graph.
  const graph::CsrGraph g = rmat_graph();
  const sim::Device cpu{sim::make_sandy_bridge_cpu()};
  const auto roots = graph::sample_roots(g, 1, 13);
  const double td = run_pure(g, roots[0], cpu, bfs::Direction::kTopDown).seconds;
  const double bu = run_pure(g, roots[0], cpu, bfs::Direction::kBottomUp).seconds;
  const double cb = run_combination(g, roots[0], cpu, {14, 24}).seconds;
  EXPECT_LT(cb, td);
  EXPECT_LT(cb, bu);
}

TEST(Combination, TepsAccessorConsistent) {
  const graph::CsrGraph g = rmat_graph();
  const sim::Device cpu{sim::make_sandy_bridge_cpu()};
  const auto roots = graph::sample_roots(g, 1, 13);
  const CombinationRun run = run_combination(g, roots[0], cpu, {14, 24});
  EXPECT_DOUBLE_EQ(
      run.teps(),
      static_cast<double>(run.result.edges_in_component) / run.seconds);
}

TEST(PureRuns, AgreeWithEachOtherOnLevels) {
  const graph::CsrGraph g = rmat_graph();
  const sim::Device cpu{sim::make_sandy_bridge_cpu()};
  const auto roots = graph::sample_roots(g, 1, 13);
  const CombinationRun td = run_pure(g, roots[0], cpu, bfs::Direction::kTopDown);
  const CombinationRun bu = run_pure(g, roots[0], cpu, bfs::Direction::kBottomUp);
  EXPECT_EQ(td.result.level, bu.result.level);
  EXPECT_EQ(td.result.reached, bu.result.reached);
}

TEST(Combination, InvalidPolicyThrows) {
  const graph::CsrGraph g = graph::build_csr(graph::make_path(4));
  const sim::Device cpu{sim::make_sandy_bridge_cpu()};
  EXPECT_THROW(run_combination(g, 0, cpu, {0.5, 3}), std::invalid_argument);
}

}  // namespace
}  // namespace bfsx::core
