// Unit tests for Device (functional kernels + modelled time) and
// Machine (host + accelerators + link).
#include "sim/machine.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "bfs/validate.h"
#include "core/adaptive_bfs.h"
#include "graph/builder.h"
#include "graph/generators.h"

namespace bfsx::sim {
namespace {

using graph::build_csr;

TEST(Device, TopDownLevelAdvancesStateAndCharges) {
  const graph::CsrGraph g = build_csr(graph::make_star(50));
  const Device cpu{make_sandy_bridge_cpu()};
  const core::CombinationRun run =
      core::run_pure(g, 0, cpu, bfs::Direction::kTopDown);
  const obs::LevelEvent& out = run.levels.front();
  EXPECT_EQ(out.direction, bfs::Direction::kTopDown);
  EXPECT_EQ(out.level, 0);
  EXPECT_EQ(out.frontier_vertices, 1);
  EXPECT_EQ(out.frontier_edges, 49);
  EXPECT_EQ(out.next_vertices, 49);
  EXPECT_GT(out.compute_seconds, 0.0);
  EXPECT_DOUBLE_EQ(out.compute_seconds, cpu.top_down_cost(49));
  EXPECT_EQ(run.result.reached, 50);
}

TEST(Device, BottomUpLevelChargesHitMissSplit) {
  const graph::CsrGraph g = build_csr(graph::make_path(4));
  const Device gpu{make_kepler_gpu()};
  const core::CombinationRun run =
      core::run_pure(g, 0, gpu, bfs::Direction::kBottomUp);
  const obs::LevelEvent& out = run.levels.front();
  EXPECT_EQ(out.direction, bfs::Direction::kBottomUp);
  EXPECT_EQ(out.bu_edges_hit, 1);
  EXPECT_EQ(out.bu_edges_miss, 3);
  EXPECT_DOUBLE_EQ(out.compute_seconds,
                   gpu.bottom_up_cost(g.num_vertices(), 1, 3));
}

TEST(Device, FullTraversalViaLevelsIsValid) {
  const graph::CsrGraph g = build_csr(graph::make_binary_tree(200));
  const Device dev{make_knights_corner_mic()};
  const core::CombinationRun run =
      core::run_pure(g, 0, dev, bfs::Direction::kTopDown);
  double total = 0.0;
  for (const obs::LevelEvent& level : run.levels) {
    total += level.compute_seconds;
  }
  EXPECT_TRUE(bfs::validate_bfs(g, 0, run.result).ok);
  EXPECT_GT(total, 0.0);
}

TEST(Machine, PaperNodeHasGpuAndMic) {
  const Machine m = make_paper_node();
  EXPECT_EQ(m.host().name(), "SandyBridgeCPU");
  EXPECT_EQ(m.num_accelerators(), 2u);
  EXPECT_EQ(m.accelerator(0).name(), "KeplerK20xGPU");
  EXPECT_EQ(m.accelerator(1).name(), "KnightsCornerMIC");
}

TEST(Machine, DeviceByNameFindsAll) {
  const Machine m = make_paper_node();
  EXPECT_NO_THROW((void)m.device_by_name("SandyBridgeCPU"));
  EXPECT_NO_THROW((void)m.device_by_name("KeplerK20xGPU"));
  EXPECT_THROW((void)m.device_by_name("Cell"), std::out_of_range);
}

TEST(Machine, AcceleratorOutOfRangeThrows) {
  Machine m{Device{make_sandy_bridge_cpu()}, InterconnectSpec{}};
  EXPECT_THROW((void)m.accelerator(0), std::out_of_range);
}

TEST(Machine, AddAcceleratorReturnsConsecutiveIndices) {
  Machine m{Device{make_sandy_bridge_cpu()}, InterconnectSpec{}};
  EXPECT_EQ(m.num_accelerators(), 0u);
  EXPECT_EQ(m.add_accelerator(Device{make_kepler_gpu()}), 0u);
  EXPECT_EQ(m.add_accelerator(Device{make_knights_corner_mic()}), 1u);
  EXPECT_EQ(m.add_accelerator(Device{make_kepler_gpu()}), 2u);
  EXPECT_EQ(m.num_accelerators(), 3u);
}

TEST(Machine, AcceleratorIndexSelectsTheRightDevice) {
  Machine m{Device{make_sandy_bridge_cpu()}, InterconnectSpec{}};
  m.add_accelerator(Device{make_kepler_gpu()});
  m.add_accelerator(Device{make_knights_corner_mic()});
  EXPECT_EQ(m.accelerator(0).name(), "KeplerK20xGPU");
  EXPECT_EQ(m.accelerator(1).name(), "KnightsCornerMIC");
  // The default argument selects the first accelerator.
  EXPECT_EQ(m.accelerator().name(), "KeplerK20xGPU");
  // One past the end throws; valid indices are untouched by the probe.
  EXPECT_THROW((void)m.accelerator(2), std::out_of_range);
  EXPECT_EQ(m.num_accelerators(), 2u);
}

TEST(Machine, HandoffSecondsGrowWithGraph) {
  const Machine m = make_paper_node();
  EXPECT_LT(m.handoff_seconds(1'000), m.handoff_seconds(10'000'000));
  EXPECT_GT(m.handoff_seconds(1'000), 0.0);
}

}  // namespace
}  // namespace bfsx::sim
