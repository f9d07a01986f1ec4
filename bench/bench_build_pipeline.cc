// Ingestion-pipeline scaling bench: times generate / validate / build /
// traverse separately across OpenMP thread counts.
//
// The traversal kernels were the hot path in the paper's experiments,
// but at Graph 500 scales kernel 1 (R-MAT draws, endpoint validation,
// and a CSR build by scatter, transpose and dedup) is a large share of
// end-to-end wall time. This bench tracks how every stage scales with
// cores and doubles as a runtime determinism check: the edge list and
// the CSR arrays must hash identically for every thread count, and each
// row prints both hashes.
//
// Emits BENCH_build.json (schema bfsx.bench.v1).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "bench_common.h"
#include "check/contract.h"
#include "graph500/native_engine.h"
#include "graph/builder.h"
#include "graph/graph_stats.h"
#include "graph/rmat.h"
#include "obs/perf_counters.h"

namespace {

using clock_type = std::chrono::steady_clock;

double seconds_since(clock_type::time_point start) {
  return std::chrono::duration<double>(clock_type::now() - start).count();
}

/// FNV-1a over a byte span; used to assert thread-count invariance.
std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t h = 0xcbf29ce484222325ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t hash_edges(const bfsx::graph::EdgeList& el) {
  return fnv1a(el.edges.data(), el.edges.size() * sizeof(bfsx::graph::Edge));
}

std::uint64_t hash_csr(const bfsx::graph::CsrGraph& g) {
  std::uint64_t h = fnv1a(g.out_offsets().data(),
                          g.out_offsets().size() * sizeof(bfsx::graph::eid_t));
  return fnv1a(g.out_targets().data(),
               g.out_targets().size() * sizeof(bfsx::graph::vid_t), h);
}

struct StageTimes {
  int threads = 1;
  double generate = 0;
  double validate = 0;
  double build = 0;
  double traverse = 0;
  std::uint64_t edge_hash = 0;
  std::uint64_t csr_hash = 0;
  /// Hardware counters over build and traverse (invalid where
  /// perf_event_open is unavailable; columns then read n/a).
  bfsx::obs::PerfSample build_perf;
  bfsx::obs::PerfSample traverse_perf;

  [[nodiscard]] double ingest() const { return generate + validate + build; }
};

StageTimes run_at(int threads, const bfsx::graph::RmatParams& params) {
  namespace graph = bfsx::graph;
  StageTimes st;
  st.threads = threads;
#ifdef _OPENMP
  omp_set_num_threads(threads);
#endif

  auto t0 = clock_type::now();
  graph::EdgeList el = graph::generate_rmat(params);
  st.generate = seconds_since(t0);
  st.edge_hash = hash_edges(el);

  t0 = clock_type::now();
  graph::validate_edge_list(el);
  st.validate = seconds_since(t0);

  bfsx::obs::PerfCounters counters;
  counters.start();
  t0 = clock_type::now();
  const graph::CsrGraph g = graph::build_csr(std::move(el));
  st.build = seconds_since(t0);
  st.build_perf = counters.stop();
  st.csr_hash = hash_csr(g);

  const graph::vid_t root = graph::sample_roots(g, 1, params.seed + 1)[0];
  const auto hybrid =
      bfsx::graph500::make_native_hybrid_engine(bfsx::core::HybridPolicy{});
  counters.start();
  t0 = clock_type::now();
  const auto timed = hybrid(g, root);
  st.traverse = seconds_since(t0);
  st.traverse_perf = counters.stop();
  std::printf(
      "  threads=%d  generate %.3fs  validate %.3fs  build %.3fs  "
      "traverse %.3fs  (reached %d vertices)  edges %016llx  csr %016llx\n",
      threads, st.generate, st.validate, st.build, st.traverse,
      timed.result.reached, static_cast<unsigned long long>(st.edge_hash),
      static_cast<unsigned long long>(st.csr_hash));
  return st;
}

/// One timed ingest+traverse pass at scale 14, used for the
/// checks-on/off A/B below. Returns wall seconds.
double ingest_traverse_once(const bfsx::graph::RmatParams& params) {
  namespace graph = bfsx::graph;
  const auto t0 = clock_type::now();
  graph::EdgeList el = graph::generate_rmat(params);
  graph::validate_edge_list(el);
  const graph::CsrGraph g = graph::build_csr(std::move(el));
  const graph::vid_t root = graph::sample_roots(g, 1, params.seed + 1)[0];
  const auto hybrid =
      bfsx::graph500::make_native_hybrid_engine(bfsx::core::HybridPolicy{});
  const auto timed = hybrid(g, root);
  (void)timed;
  return seconds_since(t0);
}

struct CheckOverhead {
  double on_seconds = 0;
  double off_seconds = 0;
  double pct = 0;
};

/// Measures the cost of the always-on BFSX_CHECK tier by running the
/// scale-14 ingest+traverse path with checks enabled vs. disabled via
/// the kill switch (the switch's only sanctioned use). Best-of-N so a
/// single scheduler hiccup cannot fake an overhead. The contract in
/// src/check/contract.h budgets this tier at < 2%.
CheckOverhead measure_check_overhead() {
  bfsx::graph::RmatParams params;
  params.scale = 14;
  params.edgefactor = 16;
  constexpr int kReps = 7;
  CheckOverhead m;
  (void)ingest_traverse_once(params);  // warm-up, discarded
  m.on_seconds = 1e30;
  m.off_seconds = 1e30;
  // Interleave on/off samples so slow drift (frequency scaling, page
  // cache) hits both sides equally; best-of-N absorbs hiccups.
  for (int r = 0; r < kReps; ++r) {
    m.on_seconds = std::min(m.on_seconds, ingest_traverse_once(params));
    {
      bfsx::check::ScopedDisableChecks off;
      m.off_seconds = std::min(m.off_seconds, ingest_traverse_once(params));
    }
  }
  m.pct = (m.on_seconds / m.off_seconds - 1.0) * 100.0;
  return m;
}

}  // namespace

int main() {
  using namespace bfsx::bench;
  print_header("build-pipeline",
               "ingestion scaling: generate / validate / build / traverse "
               "per thread count");

  bfsx::graph::RmatParams params;
  params.scale = pick_scale(16, 20);
  params.edgefactor = 16;
  std::printf("graph: R-MAT scale %d (%s vertices), edgefactor %d\n",
              params.scale, scale_label(params.scale).c_str(),
              params.edgefactor);

  std::vector<int> thread_counts{1};
#ifdef _OPENMP
  thread_counts = {1, 2, 4};
  const int hw = omp_get_max_threads();
  if (hw > 4) thread_counts.push_back(hw);
#endif

  std::vector<StageTimes> rows;
  rows.reserve(thread_counts.size());
  for (int t : thread_counts) rows.push_back(run_at(t, params));

  // Determinism gate: same bits out of every thread count, or the run
  // is worthless as a benchmark of *this* pipeline.
  bool deterministic = true;
  for (const StageTimes& st : rows) {
    deterministic = deterministic && st.edge_hash == rows.front().edge_hash &&
                    st.csr_hash == rows.front().csr_hash;
  }
  std::printf("determinism across thread counts: %s\n",
              deterministic ? "OK (edge + CSR hashes identical)" : "BROKEN");

  const double base_ingest = rows.front().ingest();
  std::printf("\n%8s %10s %10s %10s %10s %10s %8s\n", "threads", "generate",
              "validate", "build", "traverse", "ingest", "speedup");
  JsonReport report("build");
  for (const StageTimes& st : rows) {
    const double speedup = base_ingest / st.ingest();
    std::printf("%8d %9.3fs %9.3fs %9.3fs %9.3fs %9.3fs %7.2fx\n", st.threads,
                st.generate, st.validate, st.build, st.traverse, st.ingest(),
                speedup);
    report.row();
    report.cell("threads", st.threads);
    report.cell("scale", params.scale);
    report.cell("edgefactor", params.edgefactor);
    report.cell("generate_seconds", st.generate);
    report.cell("validate_seconds", st.validate);
    report.cell("build_seconds", st.build);
    report.cell("traverse_seconds", st.traverse);
    report.cell("ingest_seconds", st.ingest());
    report.cell("ingest_speedup", speedup);
    report.cell("deterministic", deterministic ? 1 : 0);
    report.cell("perf_valid",
                (st.build_perf.valid && st.traverse_perf.valid) ? 1 : 0);
    report.cell("build_ipc", st.build_perf.ipc());
    report.cell("build_miss_rate", st.build_perf.cache_miss_rate());
    report.cell("traverse_ipc", st.traverse_perf.ipc());
    report.cell("traverse_miss_rate", st.traverse_perf.cache_miss_rate());
    if (st.build_perf.valid && st.traverse_perf.valid) {
      std::printf("         build: IPC %.2f, LLC miss %.1f%%; traverse: "
                  "IPC %.2f, LLC miss %.1f%%\n",
                  st.build_perf.ipc(), st.build_perf.cache_miss_rate() * 100.0,
                  st.traverse_perf.ipc(),
                  st.traverse_perf.cache_miss_rate() * 100.0);
    }
  }

  // Contract-check overhead A/B (BFSX_CHECK tier, budget < 2%).
  const CheckOverhead overhead = measure_check_overhead();
  std::printf(
      "\ncheck overhead (scale-14 ingest+traverse): checks-on %.3fs, "
      "checks-off %.3fs, overhead %+.2f%% (budget < 2%%)\n",
      overhead.on_seconds, overhead.off_seconds, overhead.pct);
  report.row();
  report.cell("kind", "check_overhead");
  report.cell("scale", 14);
  report.cell("checks_on_seconds", overhead.on_seconds);
  report.cell("checks_off_seconds", overhead.off_seconds);
  report.cell("check_overhead_pct", overhead.pct);

  report.write();
  return deterministic ? 0 : 1;
}
