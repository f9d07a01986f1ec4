// Tests for the distributed-memory BFS simulation (src/dist): distance
// exactness against the reference traversal, BSP accounting, and
// strong-scaling behaviour of the modelled time.
#include "dist/dist_bfs.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "bfs/validate.h"
#include "core/adaptive_bfs.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/graph_stats.h"
#include "graph/rmat.h"
#include "graph500/reference_bfs.h"

namespace bfsx::dist {
namespace {

using graph::CsrGraph;
using graph::vid_t;

CsrGraph rmat_graph(int scale, int edgefactor, std::uint64_t seed = 2014) {
  graph::RmatParams p;
  p.scale = scale;
  p.edgefactor = edgefactor;
  p.seed = seed;
  return graph::build_csr(graph::generate_rmat(p));
}

CsrGraph directed_er_graph() {
  graph::BuildOptions opts;
  opts.symmetrize = false;
  return graph::build_directed_csr(graph::make_erdos_renyi(600, 4'000, 99),
                                   opts);
}

/// Distances must match the reference BFS exactly for every cluster
/// size and both partition strategies; parents must validate (their
/// identity can differ — parallel claims race benignly).
void expect_exact(const CsrGraph& g, vid_t root) {
  const bfs::BfsResult ref = graph500::reference_bfs(g, root);
  for (const graph::PartitionStrategy strategy :
       {graph::PartitionStrategy::kBlock,
        graph::PartitionStrategy::kDegreeBalanced}) {
    for (int devices = 1; devices <= 8; ++devices) {
      const sim::Cluster cluster =
          sim::Cluster::homogeneous(sim::make_sandy_bridge_cpu(), devices);
      DistBfsOptions opts;
      opts.strategy = strategy;
      const DistBfsRun run = run_dist_bfs(g, root, cluster, opts);
      ASSERT_EQ(run.result.level, ref.level)
          << "strategy=" << graph::to_string(strategy)
          << " devices=" << devices;
      EXPECT_EQ(run.result.reached, ref.reached);
      EXPECT_EQ(run.result.edges_in_component, ref.edges_in_component);
      const bfs::ValidationReport rep = bfs::validate_bfs(g, root, run.result);
      EXPECT_TRUE(rep.ok) << rep.error << " strategy="
                          << graph::to_string(strategy)
                          << " devices=" << devices;
    }
  }
}

TEST(DistBfsExactness, RmatGraph) {
  const CsrGraph g = rmat_graph(11, 8);
  expect_exact(g, graph::sample_roots(g, 1, 7)[0]);
}

TEST(DistBfsExactness, GridGraph) {
  expect_exact(graph::build_csr(graph::make_grid(20, 30)), 0);
}

TEST(DistBfsExactness, LollipopGraph) {
  expect_exact(graph::build_csr(graph::make_lollipop(40, 60)), 5);
}

TEST(DistBfsExactness, UnreachableComponentStaysUnreached) {
  const CsrGraph g = graph::build_csr(graph::make_two_cliques(40));
  expect_exact(g, 0);
  const DistBfsRun run = run_dist_bfs(
      g, 0, sim::Cluster::homogeneous(sim::make_sandy_bridge_cpu(), 4));
  EXPECT_EQ(run.result.reached, 20);
  EXPECT_EQ(run.result.level[25], -1);
}

TEST(DistBfsExactness, DirectedGraph) {
  expect_exact(directed_er_graph(), 0);
}

TEST(DistBfs, SingleDeviceMatchesSingleArchCombination) {
  // P = 1 degenerates to the single-device combination: no comm, the
  // same per-level direction choices, the same modelled seconds.
  const CsrGraph g = rmat_graph(12, 16);
  const vid_t root = graph::sample_roots(g, 1, 3)[0];
  const sim::Device device{sim::make_sandy_bridge_cpu()};
  const core::HybridPolicy policy{14.0, 24.0};

  const core::CombinationRun single =
      core::run_combination(g, root, device, policy);
  DistBfsOptions opts;
  opts.policy = policy;
  const DistBfsRun dist = run_dist_bfs(
      g, root, sim::Cluster{{device}, sim::InterconnectSpec{}}, opts);

  EXPECT_EQ(dist.comm_seconds, 0.0);
  ASSERT_EQ(dist.levels.size(), single.levels.size());
  for (std::size_t i = 0; i < dist.levels.size(); ++i) {
    EXPECT_EQ(dist.levels[i].direction, single.levels[i].direction);
  }
  EXPECT_NEAR(dist.seconds, single.seconds, single.seconds * 1e-9);
  EXPECT_EQ(dist.direction_switches, single.direction_switches);
}

TEST(DistBfs, AggregatedCountersReproduceGlobalDirectionSequence) {
  // The Buluç–Beamer rule sums per-partition counters before deciding,
  // so every cluster size must take the same per-level branches as the
  // single-device run.
  const CsrGraph g = rmat_graph(12, 16);
  const vid_t root = graph::sample_roots(g, 1, 3)[0];
  const core::HybridPolicy policy{14.0, 24.0};
  const core::CombinationRun single = core::run_combination(
      g, root, sim::Device{sim::make_sandy_bridge_cpu()}, policy);

  for (const int devices : {2, 5, 8}) {
    DistBfsOptions opts;
    opts.policy = policy;
    const DistBfsRun run = run_dist_bfs(
        g, root,
        sim::Cluster::homogeneous(sim::make_sandy_bridge_cpu(), devices),
        opts);
    ASSERT_EQ(run.levels.size(), single.levels.size());
    for (std::size_t i = 0; i < run.levels.size(); ++i) {
      EXPECT_EQ(run.levels[i].direction, single.levels[i].direction);
      EXPECT_EQ(run.levels[i].frontier_vertices,
                single.levels[i].frontier_vertices);
      EXPECT_EQ(run.levels[i].frontier_edges,
                single.levels[i].frontier_edges);
    }
  }
}

TEST(DistBfs, ModelledTimeMonotoneNonIncreasingOverDevices) {
  // Strong scaling on a frontier-heavy graph: more devices must never
  // model slower, and communication must be charged whenever there is
  // more than one device. The graph needs enough vertices that the
  // bottom-up candidate sweep (|V| * bu_vertex_ns per level) dominates
  // the fixed per-level overhead — otherwise there is nothing for extra
  // devices to parallelise and comm makes the cluster strictly slower.
  const CsrGraph g = rmat_graph(19, 16);
  const vid_t root = graph::sample_roots(g, 1, 5)[0];
  DistBfsOptions opts;
  opts.strategy = graph::PartitionStrategy::kDegreeBalanced;

  double prev = 0.0;
  for (const int devices : {1, 2, 4}) {
    const DistBfsRun run =
        run_dist_bfs(g, root, sim::make_paper_cluster(devices), opts);
    if (devices == 1) {
      EXPECT_EQ(run.comm_seconds, 0.0);
    } else {
      EXPECT_GT(run.comm_seconds, 0.0);
      for (const DistLevelOutcome& lvl : run.levels) {
        EXPECT_GT(lvl.comm_seconds, 0.0);
      }
      EXPECT_LE(run.seconds, prev);
    }
    prev = run.seconds;
  }
}

TEST(DistBfs, PerLevelAccountingIsConsistent) {
  const CsrGraph g = rmat_graph(11, 16);
  const vid_t root = graph::sample_roots(g, 1, 9)[0];
  const sim::Cluster cluster =
      sim::Cluster::homogeneous(sim::make_sandy_bridge_cpu(), 4);
  const DistBfsRun run = run_dist_bfs(g, root, cluster);

  double compute = 0.0;
  double comm = 0.0;
  vid_t discovered = 1;  // the root
  for (const DistLevelOutcome& lvl : run.levels) {
    ASSERT_EQ(lvl.device_compute_seconds.size(), 4u);
    EXPECT_GE(lvl.balance, 1.0);
    double worst = 0.0;
    for (const double s : lvl.device_compute_seconds) {
      worst = std::max(worst, s);
    }
    EXPECT_DOUBLE_EQ(lvl.compute_seconds, worst);
    compute += lvl.compute_seconds;
    comm += lvl.comm_seconds;
    discovered += lvl.next_vertices;
  }
  EXPECT_DOUBLE_EQ(run.compute_seconds, compute);
  EXPECT_DOUBLE_EQ(run.comm_seconds, comm);
  EXPECT_NEAR(run.seconds, compute + comm, 1e-15);
  EXPECT_EQ(discovered, run.result.reached);
  ASSERT_EQ(run.device_graph_bytes.size(), 4u);
  for (const std::size_t b : run.device_graph_bytes) EXPECT_GT(b, 0u);
}

TEST(DistBfs, HeterogeneousClusterRunsExactly) {
  const CsrGraph g = rmat_graph(11, 16);
  const vid_t root = graph::sample_roots(g, 1, 11)[0];
  std::vector<sim::Device> devices;
  devices.emplace_back(sim::make_sandy_bridge_cpu());
  devices.emplace_back(sim::make_kepler_gpu());
  devices.emplace_back(sim::make_knights_corner_mic());
  const sim::Cluster cluster{std::move(devices), sim::InterconnectSpec{}};

  const bfs::BfsResult ref = graph500::reference_bfs(g, root);
  const DistBfsRun run = run_dist_bfs(g, root, cluster);
  EXPECT_EQ(run.result.level, ref.level);
  EXPECT_GT(run.comm_seconds, 0.0);
}

TEST(DistBfs, RejectsBadInputs) {
  const CsrGraph g = rmat_graph(8, 8);
  const sim::Cluster cluster =
      sim::Cluster::homogeneous(sim::make_sandy_bridge_cpu(), 2);
  EXPECT_THROW(run_dist_bfs(g, -1, cluster), std::invalid_argument);
  EXPECT_THROW(run_dist_bfs(g, g.num_vertices(), cluster),
               std::invalid_argument);
  DistBfsOptions opts;
  opts.policy = core::HybridPolicy{0.5, 0.5};
  EXPECT_THROW(run_dist_bfs(g, 0, cluster, opts), std::invalid_argument);
  EXPECT_THROW(run_dist_bfs(CsrGraph{}, 0, cluster), std::invalid_argument);
}

}  // namespace
}  // namespace bfsx::dist
