// Serving-mode benchmark: one resident graph, a hot-skewed query
// stream, replayed open loop with the landmark distance cache off and
// on. Each tick answers its distance and reachability queries by
// bidirectional search and its bfs queries by one traversal per
// source. Reported per mode and worker count: throughput (queries/s),
// submit-to-answer latency percentiles, and how many answers came from
// pair searches and how many traversals ran. The cache answers hot
// distance queries at admission, so it shows as a p50 drop. (The
// write path under churn — delta publishes answering like full
// rebuilds at a fifth of the cost or less — is a ctest case,
// ServeChurn.* in tests/test_serve_trace.cc.)
#include "bench_common.h"

#include <vector>

#include "obs/percentiles.h"
#include "serve/engine.h"
#include "serve/trace.h"

namespace {

using namespace bfsx;
using namespace bfsx::bench;

struct ModeSpec {
  const char* label;
  bool cache;
};

}  // namespace

int main() {
  print_header("serve", "query serving: landmark cache off vs on");
  const int scale = pick_scale(15, 18);
  const int num_queries = full_mode() ? 4096 : 1024;

  graph::RmatParams params;
  params.scale = scale;
  params.edgefactor = 16;
  params.seed = 2014;
  const graph::EdgeList edges = graph::generate_rmat(params);
  const graph::CsrGraph g = graph::build_csr(edges);

  serve::TraceGenOptions gen;
  gen.num_queries = num_queries;
  gen.hot_fraction = 0.5;
  gen.hot_set = 16;
  const std::vector<serve::TraceOp> ops = serve::generate_query_trace(g, gen);
  std::printf("graph: %s vertices, %lld directed edges; %d queries "
              "(%.0f%% hot-sourced)\n\n",
              scale_label(scale).c_str(),
              static_cast<long long>(g.num_edges()), num_queries,
              gen.hot_fraction * 100.0);

  JsonReport report("serve");
  std::printf("%-14s %8s %10s %8s %10s %10s %10s %8s %10s\n", "mode",
              "workers", "queries/s", "cached", "p50 ms", "p95 ms", "p99 ms",
              "pairs", "traversals");

  const ModeSpec modes[] = {
      {"cache_off", false},
      {"cache_on", true},
  };

  for (const int workers : {1, 2, 4}) {
    for (const ModeSpec& mode : modes) {
      serve::ServeOptions opts;
      opts.workers = workers;
      opts.cache_enabled = mode.cache;
      opts.num_landmarks = 16;
      opts.queue_capacity = ops.size();
      serve::QueryEngine engine(edges, opts);

      const serve::ReplaySummary sum = serve::replay_trace(engine, ops);
      engine.shutdown();
      const serve::ServeStats st = engine.stats();
      const obs::Percentiles lat = obs::compute_percentiles(sum.latencies);
      const double qps =
          sum.wall_seconds > 0.0
              ? static_cast<double>(sum.served) / sum.wall_seconds
              : 0.0;
      std::printf("%-14s %8d %10.0f %8lld %10.3f %10.3f %10.3f %8lld %10lld\n",
                  mode.label, workers, qps,
                  static_cast<long long>(sum.cache_hits), lat.p50 * 1e3,
                  lat.p95 * 1e3, lat.p99 * 1e3,
                  static_cast<long long>(st.pair_queries),
                  static_cast<long long>(st.traversals));

      report.row();
      report.cell("mode", mode.label);
      report.cell("workers", workers);
      report.cell("queries_per_second", qps);
      report.cell("served", sum.served);
      report.cell("rejected", sum.rejected);
      report.cell("cache_hits", sum.cache_hits);
      report.cell("p50_seconds", lat.p50);
      report.cell("p95_seconds", lat.p95);
      report.cell("p99_seconds", lat.p99);
      report.cell("max_seconds", lat.max);
      report.cell("pair_queries", st.pair_queries);
      report.cell("traversals", st.traversals);
      report.cell("max_batch", st.max_batch);
      report.cell("dispatches", st.dispatches);
    }
    std::printf("\n");
  }

  std::printf("-> expectation: cache_on cuts p50 vs cache_off at every "
              "worker count (hot distance\n"
              "   queries answered at admission)\n\n");

  report.write();
  return 0;
}
