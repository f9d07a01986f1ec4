// Unit tests for the cross-architecture executor (Algorithm 3).
#include "core/cross_arch_bfs.h"

#include <gtest/gtest.h>

#include "bfs/validate.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/graph_stats.h"
#include "graph/rmat.h"

namespace bfsx::core {
namespace {

struct Fixture {
  graph::CsrGraph g;
  sim::Device cpu{sim::make_sandy_bridge_cpu()};
  sim::Device gpu{sim::make_kepler_gpu()};
  sim::InterconnectSpec link;
  graph::vid_t root;

  Fixture() {
    graph::RmatParams p;
    p.scale = 13;
    g = graph::build_csr(graph::generate_rmat(p));
    root = graph::sample_roots(g, 1, 77)[0];
  }
};

TEST(CrossArch, ProducesValidBfs) {
  Fixture f;
  const CombinationRun run =
      run_cross_arch(f.g, f.root, f.cpu, f.gpu, f.link, {20, 30}, {5, 200});
  EXPECT_TRUE(bfs::validate_bfs(f.g, f.root, run.result).ok);
  EXPECT_GT(run.seconds, 0.0);
}

TEST(CrossArch, StartsOnHostEndsOnAccelerator) {
  Fixture f;
  const CombinationRun run =
      run_cross_arch(f.g, f.root, f.cpu, f.gpu, f.link, {20, 30}, {5, 200});
  ASSERT_GE(run.levels.size(), 3u);
  EXPECT_EQ(run.levels.front().device, "SandyBridgeCPU");
  EXPECT_EQ(run.levels.front().direction, bfs::Direction::kTopDown);
  EXPECT_EQ(run.levels.back().device, "KeplerK20xGPU");
}

TEST(CrossArch, NeverReturnsToHost) {
  Fixture f;
  const CombinationRun run =
      run_cross_arch(f.g, f.root, f.cpu, f.gpu, f.link, {20, 30}, {5, 200});
  bool left_host = false;
  for (const obs::LevelEvent& lvl : run.levels) {
    if (lvl.device == "KeplerK20xGPU") left_host = true;
    if (left_host) EXPECT_EQ(lvl.device, "KeplerK20xGPU");
  }
  EXPECT_TRUE(left_host);
}

TEST(CrossArch, ChargesExactlyOneTransfer) {
  Fixture f;
  const CombinationRun run =
      run_cross_arch(f.g, f.root, f.cpu, f.gpu, f.link, {20, 30}, {5, 200});
  EXPECT_DOUBLE_EQ(
      run.transfer_seconds,
      sim::transfer_seconds(f.link, sim::handoff_bytes(f.g.num_vertices())));
}

TEST(CrossArch, AccelSwitchesBackToTopDownAtTheEnd) {
  // The CPUTD+GPUCB behaviour of Table IV: the last levels run top-down
  // on the GPU.
  Fixture f;
  const CombinationRun run =
      run_cross_arch(f.g, f.root, f.cpu, f.gpu, f.link, {20, 30}, {14, 24});
  ASSERT_GE(run.levels.size(), 4u);
  const obs::LevelEvent& last = run.levels.back();
  EXPECT_EQ(last.device, "KeplerK20xGPU");
  EXPECT_EQ(last.direction, bfs::Direction::kTopDown);
}

TEST(CrossArch, BuOnlyVariantNeverRunsTopDownOnAccel) {
  Fixture f;
  const CombinationRun run =
      run_cross_arch_bu_only(f.g, f.root, f.cpu, f.gpu, f.link, {20, 30});
  EXPECT_TRUE(bfs::validate_bfs(f.g, f.root, run.result).ok);
  for (const obs::LevelEvent& lvl : run.levels) {
    if (lvl.device == "KeplerK20xGPU") {
      EXPECT_EQ(lvl.direction, bfs::Direction::kBottomUp);
    }
  }
}

TEST(CrossArch, CpuTdPlusGpuCbBeatsCpuTdPlusGpuBu) {
  // Table IV: CPUTD+GPUCB (36.1x) edges out CPUTD+GPUBU (32.8x) by
  // switching the tail levels back to top-down.
  Fixture f;
  const double with_cb =
      run_cross_arch(f.g, f.root, f.cpu, f.gpu, f.link, {20, 30}, {14, 24})
          .seconds;
  const double bu_only =
      run_cross_arch_bu_only(f.g, f.root, f.cpu, f.gpu, f.link, {20, 30})
          .seconds;
  EXPECT_LT(with_cb, bu_only);
}

TEST(CrossArch, HandoffNeverTriggeredStaysOnHost) {
  // A handoff policy that always chooses top-down keeps the whole run
  // on the CPU and charges no transfer.
  Fixture f;
  const CombinationRun run = run_cross_arch(f.g, f.root, f.cpu, f.gpu, f.link,
                                            always_top_down(), {14, 24});
  EXPECT_DOUBLE_EQ(run.transfer_seconds, 0.0);
  for (const obs::LevelEvent& lvl : run.levels) {
    EXPECT_EQ(lvl.device, "SandyBridgeCPU");
  }
}

TEST(CrossArch, ResultAgreesWithSingleDeviceRun) {
  Fixture f;
  const CombinationRun cross =
      run_cross_arch(f.g, f.root, f.cpu, f.gpu, f.link, {20, 30}, {14, 24});
  const CombinationRun single = run_combination(f.g, f.root, f.cpu, {14, 24});
  EXPECT_EQ(cross.result.level, single.result.level);
  EXPECT_EQ(cross.result.reached, single.result.reached);
  EXPECT_EQ(cross.result.edges_in_component,
            single.result.edges_in_component);
}

}  // namespace
}  // namespace bfsx::core
