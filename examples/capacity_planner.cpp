// Capacity planner — "should I buy the accelerator?"
//
// Shows the what-if workflow the simulator + tuner enable: model a
// hypothetical device as a key=value string (sim/arch_config.h), check
// its roofline balance for BFS, and ask the exhaustive oracle whether
// pairing it with the CPU host would beat the devices you already
// have — all without touching hardware.
//
// Usage: ./examples/capacity_planner ["base=gpu,name=NextGen,..."]
#include <cstdio>
#include <string>
#include <vector>

#include "bfs/spmv.h"
#include "core/api.h"
#include "core/level_trace.h"
#include "core/tuner.h"
#include "graph/builder.h"
#include "graph/graph_stats.h"
#include "sim/arch_config.h"
#include "sim/roofline.h"

int main(int argc, char** argv) {
  using namespace bfsx;

  // A hypothetical next-generation accelerator: double the K20x's
  // bandwidth, half its launch overhead, weaker all-miss penalty.
  const std::string spec_text =
      argc > 1 ? argv[1]
               : "base=gpu,name=NextGenGPU,bw_measured_gbps=376,"
                 "level_overhead_us=110,bu_edge_miss_ns=0.8,td_edge_ns=0.6";
  const sim::ArchSpec candidate = sim::parse_arch_spec(spec_text);
  std::printf("candidate device: %s\n\n", sim::format_arch_spec(candidate).c_str());

  // 1. Roofline sanity: is BFS still memory-bound on it?
  const double bfs_rcma = bfs::rcma_sparse_bfs(1 << 20, 16 << 20);
  std::printf("balance check: %s\n",
              sim::describe_balance(bfs_rcma, candidate, true).c_str());

  // 2. Representative workload and the devices to beat.
  graph::RmatParams p;
  p.scale = 16;
  p.edgefactor = 16;
  const graph::CsrGraph g = graph::build_csr(graph::generate_rmat(p));
  const graph::vid_t root = graph::sample_roots(g, 1, 11)[0];
  const core::LevelTrace trace = core::build_level_trace(g, root);

  const sim::ArchSpec cpu = sim::make_sandy_bridge_cpu();
  const core::SwitchCandidates cands = core::SwitchCandidates::paper_grid();
  const sim::InterconnectSpec link;

  struct Plan {
    std::string name;
    double seconds;
  };
  std::vector<Plan> plans;
  auto cross_cost = [&](const sim::ArchSpec& accel) {
    const core::TunedPolicy inner =
        core::pick_best(core::sweep_single(trace, accel, cands), cands);
    return core::pick_best(
               core::sweep_cross(trace, cpu, accel, link, cands, inner.policy),
               cands)
        .seconds;
  };
  plans.push_back({"CPU alone (tuned CB)",
                   core::pick_best(core::sweep_single(trace, cpu, cands), cands)
                       .seconds});
  plans.push_back({"CPU + K20x GPU", cross_cost(sim::make_kepler_gpu())});
  plans.push_back({"CPU + KNC MIC", cross_cost(sim::make_knights_corner_mic())});
  plans.push_back({"CPU + " + candidate.name, cross_cost(candidate)});

  std::printf("\ntuned plans on a SCALE-%d R-MAT (exhaustive oracle):\n",
              p.scale);
  double best = plans.front().seconds;
  for (const Plan& plan : plans) best = std::min(best, plan.seconds);
  for (const Plan& plan : plans) {
    std::printf("  %-24s %9.4f ms %s\n", plan.name.c_str(),
                plan.seconds * 1e3,
                plan.seconds == best ? "<- best" : "");
  }

  std::printf("\n(change the spec string to explore: e.g. "
              "\"base=mic,bw_measured_gbps=400\" or a full custom device — "
              "every numeric ArchSpec field is settable.)\n");
  return 0;
}
