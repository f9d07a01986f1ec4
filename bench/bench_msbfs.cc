// Root-batching throughput: the Graph 500 protocol run serially, with
// roots spread across OpenMP workers (reusable states from a
// StatePool), and with the bit-parallel MS-BFS kernel (64 roots per
// edge-set walk). Reports aggregate TEPS — total component edges of
// all roots divided by protocol wall time — plus a degree-reorder A/B
// on the same roots.
#include "bench_common.h"

#include <chrono>
#include <cstdint>
#include <utility>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "bfs/state_pool.h"
#include "graph/reorder.h"
#include "graph500/native_engine.h"
#include "graph500/runner.h"
#include "obs/percentiles.h"

namespace {

using namespace bfsx;
using namespace bfsx::bench;

struct Measured {
  double seconds = 0.0;
  double aggregate_teps = 0.0;
  std::size_t states_created = 0;
  /// Per-root traversal seconds (engine-attributed, not protocol wall).
  obs::Percentiles per_root;
};

double wall_seconds(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

graph::eid_t total_edges(const graph500::BenchmarkResult& r) {
  graph::eid_t sum = 0;
  for (const graph500::RootRun& run : r.runs) sum += run.edges;
  return sum;
}

constexpr int kRepeats = 2;  // best-of to damp scheduler noise

/// One protocol pass over `roots` in the given dispatch mode.
Measured run_mode(const graph::CsrGraph& g,
                  const std::vector<graph::vid_t>& roots,
                  graph500::BatchMode mode) {
  graph500::RunnerOptions opts;
  opts.roots = roots;
  opts.validate = false;  // measure traversal, not the validator
  opts.batch_mode = mode;

  bfs::StatePool pool;
  const core::HybridPolicy policy{};
  const auto t0 = std::chrono::steady_clock::now();
  graph500::BenchmarkResult result =
      mode == graph500::BatchMode::kMsBfs
          ? graph500::run_benchmark(
                g, graph500::make_msbfs_batch_engine(policy), opts)
          : graph500::run_benchmark(
                g, graph500::make_native_hybrid_engine(policy, nullptr, &pool),
                opts);
  Measured m;
  m.seconds = wall_seconds(t0);
  m.aggregate_teps =
      m.seconds > 0.0 ? static_cast<double>(total_edges(result)) / m.seconds
                      : 0.0;
  m.states_created = pool.created();
  std::vector<double> per_root;
  per_root.reserve(result.runs.size());
  for (const graph500::RootRun& run : result.runs) {
    per_root.push_back(run.seconds);
  }
  m.per_root = obs::compute_percentiles(std::move(per_root));
  return m;
}

void set_threads(int n) {
#ifdef _OPENMP
  omp_set_num_threads(n);
#else
  (void)n;
#endif
}

}  // namespace

int main() {
  print_header("batching", "serial vs parallel-roots vs bit-parallel MS-BFS");
  const int scale = pick_scale(18, 19);
  const int num_roots = 64;
  const BuiltGraph bg = make_graph(scale, 16);
  const std::vector<graph::vid_t> roots =
      graph::sample_roots(bg.csr, num_roots, 500);
  std::printf("graph: %s vertices, %lld directed edges, %d roots\n\n",
              scale_label(scale).c_str(),
              static_cast<long long>(bg.csr.num_edges()), num_roots);

  JsonReport report("msbfs");
  std::printf("%-16s %8s %12s %14s %10s %7s %10s %10s\n", "mode", "threads",
              "seconds", "agg MTEPS", "speedup", "states", "p50 ms",
              "p99 ms");

  for (const int threads : {1, 2, 4}) {
    set_threads(threads);
    double serial_teps = 0.0;
    for (const graph500::BatchMode mode :
         {graph500::BatchMode::kSerial, graph500::BatchMode::kParallelRoots,
          graph500::BatchMode::kMsBfs}) {
      const Measured m = bench::best_of(
          kRepeats, [&] { return run_mode(bg.csr, roots, mode); },
          [](const Measured& x) { return x.aggregate_teps; });
      if (mode == graph500::BatchMode::kSerial) serial_teps = m.aggregate_teps;
      const double speedup =
          serial_teps > 0.0 ? m.aggregate_teps / serial_teps : 0.0;
      std::printf("%-16s %8d %12.3f %14.1f %9.2fx %7zu %10.3f %10.3f\n",
                  graph500::to_string(mode), threads, m.seconds,
                  m.aggregate_teps / 1e6, speedup, m.states_created,
                  m.per_root.p50 * 1e3, m.per_root.p99 * 1e3);
      report.row();
      report.cell("mode", graph500::to_string(mode));
      report.cell("threads", threads);
      report.cell("seconds", m.seconds);
      report.cell("aggregate_teps", m.aggregate_teps);
      report.cell("speedup_vs_serial", speedup);
      report.cell("states_created",
                  static_cast<std::int64_t>(m.states_created));
      report.cell("per_root_p50_seconds", m.per_root.p50);
      report.cell("per_root_p95_seconds", m.per_root.p95);
      report.cell("per_root_p99_seconds", m.per_root.p99);
    }
  }

  // Degree-reorder A/B: the same logical roots traversed on the
  // original and the degree-sorted graph (hub-first ids improve
  // frontier locality), serial dispatch at the widest thread count.
  {
    graph::EdgeList el = graph::generate_rmat(bg.params);
    const graph::Relabelling ids = graph::relabel_by_degree(el);
    const graph::CsrGraph reordered = graph::build_csr(std::move(el));
    std::vector<graph::vid_t> mapped;
    mapped.reserve(roots.size());
    for (const graph::vid_t r : roots) mapped.push_back(ids.internal(r));
    const auto by_teps = [](const Measured& x) { return x.aggregate_teps; };
    const Measured base = bench::best_of(
        kRepeats,
        [&] { return run_mode(bg.csr, roots, graph500::BatchMode::kSerial); },
        by_teps);
    const Measured deg = bench::best_of(
        kRepeats,
        [&] {
          return run_mode(reordered, mapped, graph500::BatchMode::kSerial);
        },
        by_teps);
    std::printf("\nreorder A/B (serial dispatch, same logical roots):\n");
    std::printf("%-16s %12.3f s %14.1f MTEPS\n", "original", base.seconds,
                base.aggregate_teps / 1e6);
    std::printf("%-16s %12.3f s %14.1f MTEPS (%0.2fx)\n", "degree-reordered",
                deg.seconds, deg.aggregate_teps / 1e6,
                base.aggregate_teps > 0.0
                    ? deg.aggregate_teps / base.aggregate_teps
                    : 0.0);
    for (const auto& [label, m] :
         {std::pair<const char*, const Measured&>{"reorder_none", base},
          std::pair<const char*, const Measured&>{"reorder_degree", deg}}) {
      report.row();
      report.cell("mode", label);
      report.cell("threads", 4);
      report.cell("seconds", m.seconds);
      report.cell("aggregate_teps", m.aggregate_teps);
    }
  }

  std::printf("-> expectation: parallel_roots >=2x and msbfs >=4x serial "
              "aggregate TEPS at 4 threads\n");
  report.write();
  return 0;
}
