// Quickstart: the whole library in ~60 lines.
//
//   1. generate a Graph 500-style R-MAT graph;
//   2. train the switching-point predictor offline (once);
//   3. run the adaptive cross-architecture BFS (paper Algorithm 3);
//   4. inspect the per-level plan and the result.
//
// Build & run:  ./examples/quickstart
#include <cstdio>

#include "bfs/validate.h"
#include "core/api.h"
#include "graph/builder.h"
#include "graph/graph_stats.h"
#include "graph/rmat.h"

int main() {
  using namespace bfsx;

  // 1. A scale-free graph: 2^14 vertices, edgefactor 16, the paper's
  //    Kronecker parameters (A,B,C,D) = (0.57, 0.19, 0.19, 0.05).
  graph::RmatParams params;
  params.scale = 14;
  params.edgefactor = 16;
  const graph::CsrGraph g = graph::build_csr(graph::generate_rmat(params));
  std::printf("graph: %s\n", graph::summarize(g).c_str());

  // 2. Offline training (paper Fig. 6). In production this happens once
  //    and the model is stored with SwitchPredictor::save_file.
  std::printf("training switching-point predictor...\n");
  core::TrainerConfig cfg = core::default_trainer_config();
  const core::SwitchPredictor predictor =
      core::train_predictor(core::generate_training_data(cfg));

  // 3. A heterogeneous node (Sandy Bridge host + Kepler K20x over PCIe,
  //    modelled) and one adaptive traversal.
  sim::Machine machine = sim::make_paper_node();
  const graph::vid_t root = graph::sample_roots(g, 1, 7)[0];
  const core::CombinationRun run = core::run_adaptive(
      g, root, core::features_from_rmat(params), machine, predictor);

  // 4. What happened, level by level.
  std::printf("\nper-level plan (root %d):\n", root);
  for (const obs::LevelEvent& lvl : run.levels) {
    std::printf("  level %d: %-16s %-3s |V|cq=%-8d %.3f ms\n", lvl.level,
                lvl.device.c_str(), to_string(lvl.direction),
                lvl.frontier_vertices, lvl.compute_seconds * 1e3);
  }
  std::printf("\nreached %d vertices in %.3f ms modelled time "
              "(%.3f GTEPS, %.3f ms of that on PCIe)\n",
              run.result.reached, run.seconds * 1e3, run.teps() / 1e9,
              run.transfer_seconds * 1e3);

  const bfs::ValidationReport report = bfs::validate_bfs(g, root, run.result);
  std::printf("Graph 500 validation: %s\n", report.ok ? "PASS" : report.error.c_str());
  return report.ok ? 0 : 1;
}
