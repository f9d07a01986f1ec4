// Serving-mode benchmark: one resident graph, a hot-skewed query
// stream, replayed open loop with the landmark distance cache off and
// on. Each tick answers its distance and reachability queries by
// bidirectional search and its bfs queries by one traversal per
// source. Reported per mode and worker count: throughput (queries/s),
// submit-to-answer latency percentiles, and how many answers came from
// pair searches and how many traversals ran. The cache answers hot
// distance queries at admission, so it shows as a p50 drop.
//
// A second, lockstep sweep measures the write path under churn: the
// same insert/remove/publish trace replayed against full-rebuild
// publishes, delta publishes, and delta publishes with landmark
// repair. It emits the publish-cost curve into BENCH_serve.json and
// cross-checks that every recorded answer is identical across the
// three configurations — delta epochs and repaired caches must be
// indistinguishable from full rebuilds except in cost.
//
// Gate (report-only unless BFSX_ENFORCE_GATE=1): at <= 0.1% per-batch
// edge churn, the delta graph publish must be >= 5x cheaper than the
// full rebuild, and the answer streams must match exactly.
//
// Flags: --insert-every K, --remove-every K, --publish-every K
// override the churn trace cadence (0 disables the op).
#include "bench_common.h"

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "obs/percentiles.h"
#include "obs/registry.h"
#include "serve/engine.h"
#include "serve/trace.h"

namespace {

using namespace bfsx;
using namespace bfsx::bench;

struct ModeSpec {
  const char* label;
  bool cache;
};

struct ChurnSpec {
  const char* label;
  bool delta;
  bool repair;
};

bool enforce_gate() {
  const char* v = std::getenv("BFSX_ENFORCE_GATE");
  return v != nullptr && v[0] == '1';
}

std::int64_t flag_or(int argc, char** argv, const char* name,
                     std::int64_t dflt) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return std::atoll(argv[i + 1]);
  }
  return dflt;
}

bool answers_match(const std::vector<serve::ReplayAnswer>& a,
                   const std::vector<serve::ReplayAnswer>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].ok != b[i].ok || a[i].kind != b[i].kind ||
        a[i].distance != b[i].distance || a[i].reachable != b[i].reachable ||
        a[i].epoch != b[i].epoch || a[i].bfs_checksum != b[i].bfs_checksum) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
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

  // ---- churn sweep: publish-cost curve under a write workload ----
  serve::TraceGenOptions cgen;
  cgen.num_queries = full_mode() ? 256 : 96;
  cgen.bfs_fraction = 0.05;
  cgen.hot_fraction = 0.9;  // mostly cache-answerable: the sweep times
  cgen.hot_set = 16;        // the write path, not query throughput
  cgen.insert_every = flag_or(argc, argv, "--insert-every", 2);
  cgen.remove_every = flag_or(argc, argv, "--remove-every", 0);
  cgen.publish_every =
      flag_or(argc, argv, "--publish-every", cgen.num_queries / 8);
  cgen.seed = 777;
  const std::vector<serve::TraceOp> churn_ops =
      serve::generate_query_trace(g, cgen);

  std::int64_t trace_inserts = 0;
  std::int64_t trace_removes = 0;
  std::int64_t trace_publishes = 0;
  for (const serve::TraceOp& op : churn_ops) {
    trace_inserts += op.kind == serve::TraceOp::Kind::kInsert;
    trace_removes += op.kind == serve::TraceOp::Kind::kRemove;
    trace_publishes += op.kind == serve::TraceOp::Kind::kPublish;
  }
  const double churn_per_publish =
      trace_publishes > 0
          ? static_cast<double>(trace_inserts + trace_removes) /
                static_cast<double>(trace_publishes) /
                static_cast<double>(g.num_edges())
          : 0.0;
  std::printf("churn sweep (lockstep): %lld inserts, %lld removes over "
              "%lld publishes (%.5f%% edge churn per publish)\n",
              static_cast<long long>(trace_inserts),
              static_cast<long long>(trace_removes),
              static_cast<long long>(trace_publishes),
              churn_per_publish * 100.0);
  std::printf("%-14s %10s %12s %12s %10s %10s %10s\n", "publish", "publishes",
              "graph ms/pub", "write ms/pub", "repairs", "rebuilds",
              "relaxed");

  const ChurnSpec churn_modes[] = {
      {"full_rebuild", false, false},
      {"delta", true, false},
      {"delta_repair", true, true},
  };
  double graph_ms[3] = {};
  std::vector<serve::ReplayAnswer> baseline_answers;
  bool all_match = true;

  for (std::size_t ci = 0; ci < 3; ++ci) {
    const ChurnSpec& spec = churn_modes[ci];
    serve::ServeOptions opts;
    opts.workers = 2;
    opts.batch_max = 64;
    opts.cache_enabled = true;
    opts.num_landmarks = 16;
    opts.queue_capacity = churn_ops.size();
    opts.delta_publish = spec.delta;
    opts.repair_cache = spec.repair;
    serve::QueryEngine engine(edges, opts);

    const serve::ReplaySummary sum =
        serve::replay_trace_lockstep(engine, churn_ops);
    obs::Registry metrics;
    engine.export_metrics(metrics);
    engine.shutdown();
    const serve::ServeStats st = engine.stats();
    const serve::RepairStats rep = engine.last_repair();

    const auto per_pub = [&](double total) {
      return sum.publishes > 0 ? total / static_cast<double>(sum.publishes)
                               : 0.0;
    };
    const double graph_pub_ms =
        per_pub(metrics.timer("serve.publish").seconds) * 1e3;
    const double write_pub_ms = per_pub(sum.publish_wall_seconds) * 1e3;
    graph_ms[ci] = graph_pub_ms;

    if (ci == 0) {
      baseline_answers = sum.answers;
    } else if (!answers_match(baseline_answers, sum.answers)) {
      all_match = false;
      std::printf("!! %s: answers DIVERGE from full_rebuild\n", spec.label);
    }

    std::printf("%-14s %10lld %12.3f %12.3f %10lld %10lld %10zu\n",
                spec.label, static_cast<long long>(sum.publishes),
                graph_pub_ms, write_pub_ms,
                static_cast<long long>(st.cache_repairs),
                static_cast<long long>(st.cache_rebuilds), rep.relaxed);

    report.row();
    report.cell("mode", std::string("churn:") + spec.label);
    report.cell("publishes", sum.publishes);
    report.cell("delta_publishes", st.delta_publishes);
    report.cell("full_publishes", st.full_publishes);
    report.cell("graph_publish_ms", graph_pub_ms);
    report.cell("write_path_ms", write_pub_ms);
    report.cell("cache_repairs", st.cache_repairs);
    report.cell("cache_rebuilds", st.cache_rebuilds);
    report.cell("repair_relaxed", static_cast<std::int64_t>(rep.relaxed));
    report.cell("inserts", trace_inserts);
    report.cell("removes", trace_removes);
    report.cell("churn_per_publish", churn_per_publish);
    report.cell("served", sum.served);
    report.cell("cache_hits", sum.cache_hits);
  }

  // Gate: at <= 0.1% churn the delta publish must be >= 5x cheaper
  // than the full rebuild, with identical answers. Higher churn rates
  // report the speedup but only enforce equality.
  const double speedup = graph_ms[1] > 0.0 ? graph_ms[0] / graph_ms[1] : 0.0;
  const bool low_churn = churn_per_publish <= 0.001;
  const bool speedup_ok = !low_churn || speedup >= 5.0;
  std::printf("\n-> delta publish speedup vs full rebuild: %.1fx "
              "(gate: >= 5x at <= 0.1%% churn)%s\n",
              speedup, speedup_ok ? "" : "  ** GATE FAILED **");
  std::printf("-> answers identical across configurations: %s\n",
              all_match ? "yes" : "NO  ** GATE FAILED **");
  report.row();
  report.cell("mode", "churn:gate");
  report.cell("publish_speedup", speedup);
  report.cell("low_churn", low_churn ? 1 : 0);
  report.cell("answers_match", all_match ? 1 : 0);
  report.cell("gate_ok", (speedup_ok && all_match) ? 1 : 0);

  report.write();
  if (enforce_gate() && (!speedup_ok || !all_match)) return 1;
  return 0;
}
