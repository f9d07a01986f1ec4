// Workload g500: Graph 500 kernel 1 and kernel 2 on the whole machine.
//
// R-MAT scale 19, edgefactor 16, Graph 500 A/B/C/D with the vertex
// permutation. Kernel 1 (generate_rmat, validate_edge_list, build_csr)
// is the set-up, timed kSetupReps times. Kernel 2 runs 64 sampled roots
// one at a time through the "native-hybrid" engine closure
// EngineRegistry builds for `bfsx bfs` (paper M/N rule, M=14, N=24).
//
// The first pass of 64 searches runs back to back and all 64 trees are
// then validated with bfs::validate_bfs, the trees checked in parallel.
// Validating right after each search, as graph500::run_benchmark does,
// leaves the OpenMP team idle long enough to park, which makes some of
// the following searches several times slower. Further passes repeat
// the same 64 roots for the measured seconds; each of their trees must
// reproduce the level map of the validated tree of its root.
#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "bfs/state_pool.h"
#include "bfs/validate.h"
#include "graph/builder.h"
#include "graph/graph_stats.h"
#include "graph/rmat.h"
#include "graph500/engine_registry.h"
#include "obs/sink.h"
#include "stats.h"

#if defined(_OPENMP)
#include <omp.h>
#endif

namespace perfbench {
namespace {

using bfsx::graph::CsrGraph;
using bfsx::graph::vid_t;

constexpr int kScale = 19;
constexpr int kEdgefactor = 16;
constexpr int kRoots = 64;
constexpr int kSetupReps = 3;
/// The tail is taken per block of this many plain passes (256 searches,
/// so p95 keeps ten beyond) and reported as the median block. A burst of
/// steal on the shared host inflates the tail of the block it hits; p95
/// over all searches of a run spread 0.42 over ten seeds.
constexpr int kTailPasses = 4;

/// Order-independent digest of a level map and its reached count: equal
/// BFS distance labellings give equal digests whatever the parents.
std::uint64_t level_digest(const bfsx::bfs::BfsResult& r) {
  const auto n = static_cast<std::int64_t>(r.level.size());
  std::uint64_t sum = static_cast<std::uint64_t>(r.reached);
#pragma omp parallel for reduction(+ : sum) schedule(static)
  for (std::int64_t v = 0; v < n; ++v) {
    sum += derive_seed(static_cast<std::uint64_t>(v),
                       static_cast<std::uint64_t>(
                           r.level[static_cast<std::size_t>(v)] + 1));
  }
  return sum;
}

/// Level statistics of one 64-search pass, summed from the trace.
struct LevelTotals {
  double td_levels = 0, bu_levels = 0, switches = 0;
  double td_s = 0, bu_s = 0;
  double td_edges = 0, td_vertices = 0, bu_scanned = 0, bu_hits = 0;
  double level_s_max = 0, outside_s = 0;
};

LevelTotals sum_levels(const bfsx::obs::MemorySink& sink,
                       const std::vector<double>& call_seconds) {
  using bfsx::graph::Direction;
  LevelTotals t;
  std::vector<double> level_sum(sink.run_begins.size(), 0.0);
  for (const auto& [run, e] : sink.levels) {
    if (e.kind != bfsx::obs::LevelEvent::Kind::kLevel) continue;
    level_sum[run] += e.compute_seconds;
    t.level_s_max = std::max(t.level_s_max, e.compute_seconds);
    if (e.direction == Direction::kTopDown) {
      t.td_levels += 1;
      t.td_s += e.compute_seconds;
      t.td_edges += static_cast<double>(e.frontier_edges);
      t.td_vertices += static_cast<double>(e.frontier_vertices);
    } else {
      t.bu_levels += 1;
      t.bu_s += e.compute_seconds;
      t.bu_scanned += static_cast<double>(e.bu_edges_hit + e.bu_edges_miss);
      t.bu_hits += static_cast<double>(e.bu_edges_hit);
    }
  }
  for (const auto& end : sink.run_ends) t.switches += end.direction_switches;
  for (std::size_t i = 0; i < call_seconds.size() && i < level_sum.size();
       ++i) {
    t.outside_s += call_seconds[i] - level_sum[i];
  }
  return t;
}

}  // namespace

Outcome run_g500(const Options& opts) {
  Outcome out;
  out.facts["scale"] = std::to_string(kScale);
  out.facts["edgefactor"] = std::to_string(kEdgefactor);
  out.facts["roots"] = std::to_string(kRoots);
  out.facts["engine"] = "native-hybrid (M=14, N=24)";
#if defined(_OPENMP)
  out.facts["omp_threads"] = std::to_string(omp_get_max_threads());
#endif

  // ---- set-up: kernel 1, median of kSetupReps ----
  bfsx::graph::RmatParams params;
  params.scale = kScale;
  params.edgefactor = kEdgefactor;
  params.seed = derive_seed(opts.seed, 1);
  std::vector<double> setup_s, gen_s, val_s, build_s;
  std::optional<CsrGraph> graph;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    graph.reset();
    const auto t0 = Clock::now();
    bfsx::graph::EdgeList el = bfsx::graph::generate_rmat(params);
    const auto t1 = Clock::now();
    bfsx::graph::validate_edge_list(el);
    const auto t2 = Clock::now();
    graph.emplace(bfsx::graph::build_csr(std::move(el)));
    const auto t3 = Clock::now();
    gen_s.push_back(seconds_between(t0, t1));
    val_s.push_back(seconds_between(t1, t2));
    build_s.push_back(seconds_between(t2, t3));
    setup_s.push_back(seconds_between(t0, t3));
  }
  const CsrGraph& g = *graph;
  out.values["setup_s"] = median(setup_s);
  out.values["graph.generate_s"] = median(gen_s);
  out.values["graph.validate_edges_s"] = median(val_s);
  out.values["graph.build_s"] = median(build_s);
  out.values["graph.csr_bytes"] = csr_bytes(g);
  out.facts["vertices"] = std::to_string(g.num_vertices());
  out.facts["directed_edges"] = std::to_string(g.num_edges());

  // ---- kernel 2 engines: one untraced, one feeding a MemorySink ----
  const std::vector<vid_t> roots =
      bfsx::graph::sample_roots(g, kRoots, derive_seed(opts.seed, 2));
  const auto registry =
      bfsx::graph500::EngineRegistry::with_builtin_engines();
  bfsx::bfs::StatePool pool;
  bfsx::obs::MemorySink sink;
  bfsx::graph500::EngineConfig cfg;
  cfg.policy = {14.0, 24.0};
  cfg.pool = &pool;
  const bfsx::graph500::BfsEngine plain =
      registry.make_engine("native-hybrid", cfg);
  cfg.sink = &sink;
  const bfsx::graph500::BfsEngine traced =
      registry.make_engine("native-hybrid", cfg);

  // One pass: the 64 roots back to back, each timed around the engine
  // call. `keep` receives each result after its clock stopped.
  const auto run_pass = [&](const bfsx::graph500::BfsEngine& engine,
                            std::vector<double>& seconds,
                            std::vector<std::int64_t>& edges, auto&& keep) {
    for (int i = 0; i < kRoots; ++i) {
      const auto t0 = Clock::now();
      bfsx::graph500::TimedBfs r = engine(g, roots[static_cast<std::size_t>(i)]);
      seconds.push_back(seconds_between(t0, Clock::now()));
      edges.push_back(r.result.edges_in_component);
      keep(i, std::move(r.result));
    }
  };

  // ---- pass 0: 64 searches, then 64 validations ----
  std::vector<bfsx::bfs::BfsResult> trees(kRoots);
  std::vector<double> first_s;
  std::vector<std::int64_t> first_edges;
  run_pass(plain, first_s, first_edges,
           [&](int i, bfsx::bfs::BfsResult&& r) {
             trees[static_cast<std::size_t>(i)] = std::move(r);
           });
  const auto v0 = Clock::now();
  std::vector<char> tree_ok(kRoots, 0);
#pragma omp parallel for schedule(dynamic, 1)
  for (int i = 0; i < kRoots; ++i) {
    const auto k = static_cast<std::size_t>(i);
    tree_ok[k] = bfsx::bfs::validate_bfs(g, roots[k], trees[k]).ok ? 1 : 0;
  }
  const double validate_s = seconds_between(v0, Clock::now());
  std::vector<std::uint64_t> digest(kRoots);
  for (std::size_t k = 0; k < trees.size(); ++k) {
    if (tree_ok[k] == 0) ++out.failed;
    digest[k] = level_digest(trees[k]);
  }
  trees.clear();
  trees.shrink_to_fit();
  out.attempted += kRoots;
  double first_total = 0.0;
  for (const double s : first_s) first_total += s;
  out.values["bfs.validate_s"] = validate_s;
  out.values["graph500.validated_s"] = first_total + validate_s;

  // ---- measured passes ----
  // Untraced runs time only the plain engine. Traced runs alternate
  // traced and plain passes over the same roots; the plain ones give the
  // tracing overhead and the TEPS the trace run reports.
  std::vector<double> plain_s, traced_s;
  std::vector<std::int64_t> plain_edges, traced_edges;
  // Per plain pass: its median search time and its searches per second.
  // The run reports the median pass, so one pass slowed by a stall on
  // the host moves the result little.
  std::vector<double> pass_p50_ms, pass_rate;
  LevelTotals levels;
  int traced_passes = 0;
  int plain_passes = 0;
  const auto check = [&](int i, bfsx::bfs::BfsResult&& r) {
    if (level_digest(r) != digest[static_cast<std::size_t>(i)]) ++out.failed;
  };
  const auto start = Clock::now();
  for (int pass = 0;; ++pass) {
    const bool use_trace = opts.trace && pass % 2 == 0;
    if (use_trace) {
      sink.run_begins.clear();
      sink.levels.clear();
      sink.run_ends.clear();
      std::vector<double> call_s;
      run_pass(traced, call_s, traced_edges, check);
      const LevelTotals t = sum_levels(sink, call_s);
      levels.td_levels += t.td_levels;
      levels.bu_levels += t.bu_levels;
      levels.switches += t.switches;
      levels.td_s += t.td_s;
      levels.bu_s += t.bu_s;
      levels.td_edges += t.td_edges;
      levels.td_vertices += t.td_vertices;
      levels.bu_scanned += t.bu_scanned;
      levels.bu_hits += t.bu_hits;
      levels.outside_s += t.outside_s;
      levels.level_s_max = std::max(levels.level_s_max, t.level_s_max);
      traced_s.insert(traced_s.end(), call_s.begin(), call_s.end());
      ++traced_passes;
    } else {
      const std::size_t first = plain_s.size();
      run_pass(plain, plain_s, plain_edges, check);
      std::vector<double> ms;
      double total = 0.0;
      for (std::size_t i = first; i < plain_s.size(); ++i) {
        ms.push_back(plain_s[i] * 1e3);
        total += plain_s[i];
      }
      pass_p50_ms.push_back(median(std::move(ms)));
      pass_rate.push_back(kRoots / total);
      ++plain_passes;
    }
    out.attempted += kRoots;
    const bool enough = !opts.trace || (traced_passes > 0 && plain_passes > 0);
    if (enough && seconds_between(start, Clock::now()) >= opts.seconds) break;
  }
  out.facts["timed_searches"] = std::to_string(plain_s.size());
  out.facts["p50_ms_by_pass"] = join(pass_p50_ms);
  out.facts["traced_searches"] = std::to_string(traced_s.size());

  double plain_total = 0.0;
  for (const double s : plain_s) plain_total += s;
  std::vector<double> plain_ms, plain_pass;
  for (std::size_t i = 0; i < plain_s.size(); ++i) {
    plain_ms.push_back(plain_s[i] * 1e3);
    plain_pass.push_back(
        static_cast<double>(i / static_cast<std::size_t>(kRoots)));
  }
  out.values["ops_per_s"] = median(pass_rate);
  out.values["lat_ms_p50"] = median(pass_p50_ms);
  out.values["lat_ms_p95"] =
      median_of_windows(plain_pass, plain_ms, kTailPasses, kRoots, 0.95);
  out.values["graph500.teps_hmean"] = teps_hmean(plain_edges, plain_s);

  if (traced_passes > 0) {
    const double per = 1.0 / traced_passes;
    out.values["core.td_levels"] = levels.td_levels * per;
    out.values["core.bu_levels"] = levels.bu_levels * per;
    out.values["core.switches"] = levels.switches * per;
    out.values["bfs.td_s"] = levels.td_s * per;
    out.values["bfs.bu_s"] = levels.bu_s * per;
    out.values["bfs.td_edges"] = levels.td_edges * per;
    out.values["bfs.bu_scanned"] = levels.bu_scanned * per;
    out.values["bfs.bu_hit_ratio"] =
        levels.bu_scanned > 0 ? levels.bu_hits / levels.bu_scanned : 0.0;
    out.values["bfs.td_edges_per_s"] =
        levels.td_s > 0 ? levels.td_edges / levels.td_s : 0.0;
    out.values["bfs.bu_scanned_per_s"] =
        levels.bu_s > 0 ? levels.bu_scanned / levels.bu_s : 0.0;
    // Computed, not counted: per top-down frontier vertex its two
    // offsets (16 B); per top-down edge its target and the parent word
    // it claims (8 B); per bottom-up scanned edge its target (4 B).
    out.values["bfs.bytes_computed"] =
        (16.0 * levels.td_vertices + 8.0 * levels.td_edges +
         4.0 * levels.bu_scanned) *
        per;
    out.values["bfs.level_ms_max"] = levels.level_s_max * 1e3;
    out.values["graph500.outside_levels_s"] = levels.outside_s * per;
    double traced_total = 0.0;
    for (const double s : traced_s) traced_total += s;
    out.values["obs.trace_overhead_pct"] =
        100.0 * (traced_total / static_cast<double>(traced_s.size()) /
                     (plain_total / static_cast<double>(plain_s.size())) -
                 1.0);
  }
  out.correct = out.failed == 0;
  return out;
}

}  // namespace perfbench
