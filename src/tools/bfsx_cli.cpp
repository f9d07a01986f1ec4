// bfsx — command-line driver for the library.
//
// Subcommands:
//   generate  write an R-MAT edge list to a file (.bel binary or text)
//   bfs       run a BFS engine over a generated or loaded graph and
//             print Graph 500-style statistics
//   tune      exhaustively tune (M, N) for a graph/device pair
//   train     run the offline pipeline and save a predictor model
//   predict   load a model and print the predicted switching points
//   serve     run the concurrent query engine over a workload trace
//
// Run `bfsx help` or any subcommand with no arguments for usage.
// Misspelled subcommands get the same did-you-mean treatment as
// options and engine names (tools::suggest_closest).
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bfs/drivers.h"
#include "graph/compressed_csr.h"
#include "check/agreement.h"
#include "check/report.h"
#include "core/api.h"
#include "core/level_trace.h"
#include "core/online_tuner.h"
#include "core/tuner.h"
#include "graph/builder.h"
#include "graph/graph_stats.h"
#include "graph/io.h"
#include "graph/partition.h"
#include "graph/reorder.h"
#include "graph500/engine_registry.h"
#include "graph500/runner.h"
#include "obs/percentiles.h"
#include "obs/registry.h"
#include "obs/writers.h"
#include "serve/engine.h"
#include "serve/trace.h"
#include "sim/arch_config.h"
#include "sim/cluster.h"
#include "tools/args.h"

namespace {

using namespace bfsx;
using tools::Args;

/// Option names shared by every graph-consuming subcommand (--graph
/// FILE or R-MAT parameters).
const std::vector<std::string_view> kGraphKeys = {
    "graph", "scale", "edgefactor", "seed", "a", "b", "c", "d"};

std::vector<std::string_view> with_graph_keys(
    std::vector<std::string_view> extra) {
  extra.insert(extra.end(), kGraphKeys.begin(), kGraphKeys.end());
  return extra;
}

graph::RmatParams rmat_from_args(const Args& args) {
  graph::RmatParams p;
  p.scale = args.get_int("scale", 16);
  p.edgefactor = args.get_int("edgefactor", 16);
  p.seed = static_cast<std::uint64_t>(args.get_int("seed", 2014));
  p.a = args.get_double("a", 0.57);
  p.b = args.get_double("b", 0.19);
  p.c = args.get_double("c", 0.19);
  p.d = args.get_double("d", 0.05);
  return p;
}

/// Graph source: --graph FILE loads an edge list; otherwise R-MAT from
/// --scale/--edgefactor/... Kept as an edge list so callers that
/// relabel vertices (--reorder) can permute before building the CSR.
graph::EdgeList load_edges(const Args& args, graph::RmatParams* params_out) {
  if (const auto path = args.get("graph")) {
    std::printf("loading %s ...\n", path->c_str());
    return graph::load_edge_list(*path);
  }
  const graph::RmatParams p = rmat_from_args(args);
  if (params_out != nullptr) *params_out = p;
  std::printf("generating R-MAT scale=%d edgefactor=%d ...\n", p.scale,
              p.edgefactor);
  return graph::generate_rmat(p);
}

graph::CsrGraph load_graph(const Args& args, graph::RmatParams* params_out) {
  return graph::build_csr(load_edges(args, params_out));
}

/// A relabelled graph seen under its original ids: what root sampling
/// reads, so `--reorder` samples the roots an unreordered run would.
struct OriginalIds {
  const graph::CsrGraph* g;
  const graph::Relabelling* ids;

  [[nodiscard]] graph::vid_t num_vertices() const {
    return g->num_vertices();
  }
  [[nodiscard]] bool is_symmetric() const { return g->is_symmetric(); }
  [[nodiscard]] graph::eid_t out_degree(graph::vid_t v) const {
    return g->out_degree(ids->internal(v));
  }
  template <typename Fn>
  void for_each_out_neighbor(graph::vid_t v, Fn&& fn) const {
    for (const graph::vid_t w : g->out_neighbors(ids->internal(v))) {
      fn(ids->external(w));
    }
  }
};

sim::Device device_from_spec(const std::string& text) {
  if (text == "cpu" || text == "gpu" || text == "mic") {
    return sim::Device{sim::parse_arch_spec("base=" + text + ",name=" + text)};
  }
  return sim::Device{sim::parse_arch_spec(text)};
}

sim::Device device_from_args(const Args& args, const char* key = "device") {
  return device_from_spec(args.get_or(key, "cpu"));
}

/// Cluster source: --cluster names each device, '+'-separated (each
/// element a preset or a full key=value arch spec, e.g. "cpu+cpu+gpu");
/// otherwise --devices N copies of --device. Link knobs:
/// --link-latency-us / --link-gbps.
sim::Cluster cluster_from_args(const Args& args) {
  sim::InterconnectSpec fabric;
  fabric.name = "cluster-fabric";
  fabric.latency_us = args.get_double("link-latency-us", fabric.latency_us);
  fabric.bandwidth_gbps = args.get_double("link-gbps", fabric.bandwidth_gbps);

  std::vector<sim::Device> devices;
  if (const auto list = args.get("cluster")) {
    std::size_t begin = 0;
    while (begin <= list->size()) {
      const std::size_t end = list->find('+', begin);
      const std::string token = list->substr(
          begin, end == std::string::npos ? std::string::npos : end - begin);
      if (!token.empty()) devices.push_back(device_from_spec(token));
      if (end == std::string::npos) break;
      begin = end + 1;
    }
    if (devices.empty()) {
      throw std::invalid_argument("--cluster: no devices in list");
    }
  } else {
    const int ndev = args.get_int("devices", 2);
    if (ndev < 1) throw std::invalid_argument("--devices: need at least 1");
    const sim::Device proto = device_from_args(args);
    devices.assign(static_cast<std::size_t>(ndev), proto);
  }
  return sim::Cluster{std::move(devices), std::move(fabric)};
}

/// --trace-out FILE [--trace-format jsonl|csv] -> a writer sink, or
/// null when tracing is off.
std::unique_ptr<obs::TraceSink> sink_from_args(const Args& args) {
  const auto out = args.get("trace-out");
  if (!out) {
    if (args.has("trace-format")) {
      throw std::invalid_argument("--trace-format requires --trace-out");
    }
    return nullptr;
  }
  const std::string format = args.get_or("trace-format", "jsonl");
  if (format == "jsonl") return std::make_unique<obs::JsonlWriter>(*out);
  if (format == "csv") return std::make_unique<obs::CsvWriter>(*out);
  throw std::invalid_argument("--trace-format: expected jsonl or csv, got '" +
                              format + "'");
}

int cmd_generate(const Args& args) {
  args.check_known(with_graph_keys({"out"}));
  const graph::RmatParams p = rmat_from_args(args);
  const std::string out = args.get_or("out", "graph.bel");
  const graph::EdgeList el = graph::generate_rmat(p);
  graph::save_edge_list(out, el);
  std::printf("wrote %lld edges over %d vertices to %s\n",
              static_cast<long long>(el.num_edges()), el.num_vertices,
              out.c_str());
  return 0;
}

int cmd_bfs(const Args& args) {
  args.check_known(with_graph_keys(
      {"engine", "device", "host", "m", "n", "m2", "n2", "roots", "native",
       "devices", "partition", "cluster", "link-latency-us", "link-gbps",
       "trace-out", "trace-format", "metrics", "paranoid", "batch",
       "batch-size", "reorder", "compress"}));

  const graph500::BatchMode batch_mode =
      graph500::parse_batch_mode(args.get_or("batch", "serial"));
  if (batch_mode == graph500::BatchMode::kParallelRoots &&
      args.has("trace-out")) {
    throw std::invalid_argument(
        "--batch=parallel_roots cannot be combined with --trace-out: "
        "concurrent roots would interleave their trace events");
  }

  // --reorder degree relabels the edge list by descending degree, then
  // the graph is built once. Roots are sampled on the *original*
  // labelling (with the runner's default seed) and mapped in, so a
  // reordered run traverses the same logical roots as an unreordered
  // one; reported roots are translated back below.
  const std::string reorder = args.get_or("reorder", "none");
  if (reorder != "none" && reorder != "degree") {
    throw std::invalid_argument("--reorder: expected none or degree, got '" +
                                reorder + "'");
  }
  graph::RmatParams params;
  graph::EdgeList edges = load_edges(args, &params);
  const int num_roots = args.get_int("roots", 8);
  std::optional<graph::Relabelling> ids;
  if (reorder == "degree") ids = graph::relabel_by_degree(edges);
  const graph::CsrGraph g = graph::build_csr(std::move(edges));
  std::vector<graph::vid_t> explicit_roots;
  if (ids) {
    explicit_roots =
        graph::sample_view_roots(OriginalIds{&g, &*ids}, num_roots, 500);
    for (graph::vid_t& r : explicit_roots) r = ids->internal(r);
    std::printf("reorder: degree order applied (%d vertices relabelled)\n",
                ids->size());
  }
  std::printf("graph: %s\n", graph::summarize(g).c_str());

  if (args.get_bool("paranoid", false)) {
    // Runtime tier of the paranoid validators (available even when the
    // library was compiled without -DBFSX_PARANOID=ON): full CSR
    // structural validation, then the paper's cross-engine counter
    // contract — top-down and bottom-up must report bit-equal |V|cq /
    // |E|cq / next at every level (Fig. 4, Table IV).
    g.assert_invariants();
    const graph::vid_t root = graph::sample_roots(g, 1, 7)[0];
    bfs::TraversalLog td_log;
    bfs::TraversalLog bu_log;
    (void)bfs::run_top_down(g, root, &td_log);
    (void)bfs::run_bottom_up(g, root, &bu_log);
    check::require_counter_agreement(bfs::to_level_counters(td_log),
                                     bfs::to_level_counters(bu_log),
                                     "top-down", "bottom-up");
    std::printf(
        "paranoid: CSR invariants ok; TD/BU counters agree over %zu levels "
        "(root %d)\n",
        td_log.levels.size(), root);
  }

  std::string engine_name = args.get_or(
      "engine",
      batch_mode == graph500::BatchMode::kMsBfs ? "msbfs" : "hybrid");
  // Compatibility spelling: `--native --engine td` == `--engine native-td`.
  if (args.get_bool("native", false) &&
      engine_name.rfind("native-", 0) != 0) {
    engine_name = "native-" + engine_name;
  }

  const std::unique_ptr<obs::TraceSink> sink = sink_from_args(args);

  // Pooled states: each worker recycles a BfsState's bitmaps, queues and
  // scratch from root to root (native engines only; the simulated
  // engines model their state).
  bfs::StatePool pool;

  graph500::EngineConfig cfg;
  cfg.pool = &pool;
  cfg.device = device_from_args(args);
  cfg.host = device_from_args(args, "host");
  cfg.policy = {args.get_double("m", 14.0), args.get_double("n", 24.0)};
  cfg.accel_policy = {args.get_double("m2", 14.0),
                      args.get_double("n2", 24.0)};
  cfg.strategy =
      graph::parse_partition_strategy(args.get_or("partition", "block"));
  cfg.sink = sink.get();
  if (engine_name == "dist") {
    cfg.cluster = std::make_shared<const sim::Cluster>(cluster_from_args(args));
  }

  // --compress (native engines only; everything else ignores it —
  // DESIGN.md §12): the compressed view is built once here and outlives
  // the engine closure below.
  std::optional<graph::CompressedCsrView> compressed;
  if (args.get_bool("compress", false)) {
    compressed.emplace(g);
    cfg.compressed = &*compressed;
    std::printf("compress: %.2fx (%zu -> %zu adjacency bytes)\n",
                compressed->compression_ratio(),
                compressed->uncompressed_bytes(),
                compressed->compressed_bytes());
  }

  const graph500::EngineRegistry registry =
      graph500::EngineRegistry::with_builtin_engines();
  const graph500::BatchBfsEngine engine =
      registry.make_batch_engine(engine_name, cfg);
  if (const auto* entry = registry.find(engine_name)) {
    std::printf("engine: %s — %s\n", entry->name.c_str(),
                entry->description.c_str());
  }
  if (batch_mode != graph500::BatchMode::kSerial) {
    std::printf("batch: %s\n", graph500::to_string(batch_mode));
  }
  if (engine_name == "dist") {
    std::printf("        %zu device(s), %s partition, link %.1fus/%.0fGB/s\n",
                cfg.cluster->num_devices(), graph::to_string(cfg.strategy),
                cfg.cluster->interconnect().latency_us,
                cfg.cluster->interconnect().bandwidth_gbps);
  }

  obs::Registry metrics;
  graph500::RunnerOptions opts;
  opts.num_roots = num_roots;
  opts.roots = explicit_roots;  // non-empty only under --reorder
  opts.batch_mode = batch_mode;
  opts.batch_size = args.get_int("batch-size", 64);
  if (args.get_bool("metrics", false)) opts.metrics = &metrics;

  const graph500::BenchmarkResult res =
      graph500::run_benchmark(g, engine, opts);
  std::printf("%s", graph500::format_teps_stats(res.stats).c_str());
  std::printf("validation failures: %d / %zu\n", res.validation_failures,
              res.runs.size());
  if (ids) {
    std::printf("roots (original ids):");
    for (const graph500::RootRun& run : res.runs) {
      std::printf(" %d", ids->external(run.root));
    }
    std::printf("\n");
  }
  if (opts.metrics != nullptr) {
    std::printf("metrics:\n%s", metrics.format().c_str());
  }
  if (const auto out = args.get("trace-out")) {
    std::printf("trace (%s, schema %s) written to %s\n",
                args.get_or("trace-format", "jsonl").c_str(),
                obs::kTraceSchema, out->c_str());
  }
  return res.validation_failures == 0 ? 0 : 1;
}

int cmd_tune(const Args& args) {
  args.check_known(with_graph_keys({"device"}));
  const graph::CsrGraph g = load_graph(args, nullptr);
  const sim::Device device = device_from_args(args);
  const graph::vid_t root = graph::sample_roots(g, 1, 7)[0];
  const core::LevelTrace trace = core::build_level_trace(g, root);

  const core::SwitchCandidates cands = core::SwitchCandidates::paper_grid();
  const core::CandidateSweep sweep =
      core::sweep_single(trace, device.spec(), cands);
  const core::TunedPolicy best = core::pick_best(sweep, cands);
  std::printf("exhaustive over %zu candidates: M=%.1f N=%.1f -> %.4f ms "
              "(worst %.4f ms, mean %.4f ms)\n",
              cands.size(), best.policy.m, best.policy.n,
              best.seconds * 1e3, sweep.worst_seconds() * 1e3,
              sweep.mean_seconds * 1e3);

  core::OnlineTuner online;
  const core::TunedPolicy quick = online.tune([&](const core::HybridPolicy& p) {
    return core::replay_single(trace, device.spec(), p);
  });
  std::printf("online tuner (%d probes): M=%.1f N=%.1f -> %.4f ms (%.0f%% of "
              "exhaustive best)\n",
              online.probes_used(), quick.policy.m, quick.policy.n,
              quick.seconds * 1e3, 100.0 * best.seconds / quick.seconds);
  return 0;
}

int cmd_analyze(const Args& args) {
  args.check_known(with_graph_keys({}));
  const graph::CsrGraph g = load_graph(args, nullptr);
  std::printf("%s\n", graph::summarize(g).c_str());

  const graph::ComponentStats comps = graph::compute_components(g);
  std::printf("components: %d (largest %d vertices, representative %d)\n",
              comps.num_components, comps.largest_size,
              comps.largest_representative);

  std::printf("out-degree histogram (log2 buckets):\n");
  const std::vector<graph::vid_t> hist = graph::degree_histogram_log2(g);
  for (std::size_t b = 0; b < hist.size(); ++b) {
    if (hist[b] == 0) continue;
    if (b == 0) {
      std::printf("  deg 0        : %d\n", hist[b]);
    } else {
      std::printf("  deg [%lld, %lld): %d\n", 1LL << (b - 1), 1LL << b,
                  hist[b]);
    }
  }
  return 0;
}

int cmd_trace(const Args& args) {
  args.check_known(with_graph_keys({"root"}));
  const graph::CsrGraph g = load_graph(args, nullptr);
  const graph::vid_t root = static_cast<graph::vid_t>(
      args.get_int("root", graph::sample_roots(g, 1, 7)[0]));
  const core::LevelTrace trace = core::build_level_trace(g, root);
  std::printf("# level trace: root=%d |V|=%d |E|=%lld\n", root,
              trace.num_vertices, static_cast<long long>(trace.num_edges));
  std::printf("level,frontier_vertices,frontier_edges,bu_hit,bu_miss,"
              "next_vertices\n");
  for (const core::TraceLevel& lvl : trace.levels) {
    std::printf("%d,%d,%lld,%lld,%lld,%d\n", lvl.level,
                lvl.frontier_vertices,
                static_cast<long long>(lvl.frontier_edges),
                static_cast<long long>(lvl.bu_edges_hit),
                static_cast<long long>(lvl.bu_edges_miss),
                lvl.next_vertices);
  }
  return 0;
}

int cmd_train(const Args& args) {
  args.check_known({"out"});
  const std::string out = args.get_or("out", "bfsx_switch_model.txt");
  const core::TrainerConfig cfg = core::default_trainer_config();
  std::printf("labelling %zu configurations by exhaustive search...\n",
              cfg.graphs.size() * cfg.arch_pairs.size());
  const core::TrainingData data = core::generate_training_data(cfg);
  const core::SwitchPredictor predictor = core::train_predictor(data);
  predictor.save_file(out);
  std::printf("model saved to %s\n", out.c_str());
  return 0;
}

int cmd_predict(const Args& args) {
  args.check_known(with_graph_keys({"model", "td-arch", "bu-arch"}));
  const auto model = args.get("model");
  if (!model) {
    std::fprintf(stderr, "predict: --model FILE is required\n");
    return 2;
  }
  const core::SwitchPredictor predictor =
      core::SwitchPredictor::load_file(*model);
  const graph::RmatParams p = rmat_from_args(args);
  const sim::Device td = device_from_args(args, "td-arch");
  const sim::Device bu = device_from_args(args, "bu-arch");
  const core::HybridPolicy policy =
      predictor.predict(core::features_from_rmat(p), td.spec(), bu.spec());
  std::printf("predicted switching point for scale=%d ef=%d on "
              "TD=%s / BU=%s: M=%.2f N=%.2f\n",
              p.scale, p.edgefactor, std::string(td.name()).c_str(),
              std::string(bu.name()).c_str(), policy.m, policy.n);
  return 0;
}

/// bfsx serve: the query-serving subsystem behind a CLI. Two modes:
/// --make-trace FILE writes a generated workload, --replay FILE runs
/// one against a live engine and prints throughput + latency
/// percentiles. The graph comes from the usual --graph/--scale keys.
int cmd_serve(const Args& args) {
  args.check_known(with_graph_keys(
      {"replay", "make-trace", "queries", "bfs-fraction", "reach-fraction",
       "hot-fraction", "hot-set", "insert-every", "remove-every",
       "publish-every", "trace-seed", "workers", "batch-max", "cache",
       "landmarks", "queue-cap", "m", "n", "trace-out",
       "trace-format", "delta", "compact-threshold", "repair", "lockstep",
       "metrics"}));
  const auto make = args.get("make-trace");
  const auto replay = args.get("replay");
  if (make.has_value() == replay.has_value()) {
    throw std::invalid_argument(
        "serve: exactly one of --make-trace FILE or --replay FILE is "
        "required");
  }

  graph::EdgeList edges = load_edges(args, nullptr);

  if (make) {
    const graph::CsrGraph g = graph::build_csr(edges);
    serve::TraceGenOptions topt;
    topt.num_queries = args.get_int("queries", 1000);
    topt.bfs_fraction = args.get_double("bfs-fraction", topt.bfs_fraction);
    topt.reach_fraction =
        args.get_double("reach-fraction", topt.reach_fraction);
    topt.hot_fraction = args.get_double("hot-fraction", topt.hot_fraction);
    topt.hot_set = args.get_int("hot-set", topt.hot_set);
    topt.insert_every = args.get_int("insert-every", 0);
    topt.remove_every = args.get_int("remove-every", 0);
    topt.publish_every = args.get_int("publish-every", 0);
    topt.seed = static_cast<std::uint64_t>(args.get_int("trace-seed", 42));
    const std::vector<serve::TraceOp> ops =
        serve::generate_query_trace(g, topt);
    serve::save_trace_file(ops, *make);
    std::printf("wrote %zu trace ops (%lld queries) to %s\n", ops.size(),
                static_cast<long long>(topt.num_queries), make->c_str());
    return 0;
  }

  const std::vector<serve::TraceOp> ops = serve::load_trace_file(*replay);
  const std::unique_ptr<obs::TraceSink> sink = sink_from_args(args);

  serve::ServeOptions sopt;
  sopt.workers = args.get_int("workers", 2);
  sopt.batch_max = args.get_int("batch-max", 64);
  sopt.cache_enabled = args.get_bool("cache", true);
  sopt.num_landmarks = args.get_int("landmarks", 16);
  sopt.policy = {args.get_double("m", 14.0), args.get_double("n", 24.0)};
  sopt.delta_publish = args.get_bool("delta", true);
  sopt.compact_threshold =
      args.get_double("compact-threshold", sopt.compact_threshold);
  sopt.repair_cache = args.get_bool("repair", true);
  sopt.sink = sink.get();
  // Default capacity fits the whole trace (the replay client is
  // open-loop); pass an explicit --queue-cap to see backpressure
  // rejections in the summary instead.
  const int cap = args.get_int("queue-cap", 0);
  sopt.queue_capacity =
      cap > 0 ? static_cast<std::size_t>(cap) : std::max(ops.size(), {1});

  serve::QueryEngine engine(std::move(edges), sopt);
  std::printf("serving %zu trace ops: workers=%d batch-max=%d cache=%s "
              "landmarks=%d\n",
              ops.size(), sopt.workers, sopt.batch_max,
              sopt.cache_enabled ? "on" : "off", sopt.num_landmarks);

  const bool lockstep = args.get_bool("lockstep", false);
  const serve::ReplaySummary sum =
      lockstep ? serve::replay_trace_lockstep(engine, ops)
               : serve::replay_trace(engine, ops);
  obs::Registry metrics;
  engine.export_metrics(metrics);
  engine.shutdown();
  const serve::ServeStats st = engine.stats();
  const obs::Percentiles lat = obs::compute_percentiles(sum.latencies);

  std::printf("queries: %lld served, %lld rejected (%lld cache hits)\n",
              static_cast<long long>(sum.served),
              static_cast<long long>(sum.rejected),
              static_cast<long long>(sum.cache_hits));
  std::printf("ticks: %lld pair searches, %lld traversals over %lld "
              "ticks (largest tick %lld)\n",
              static_cast<long long>(st.pair_queries),
              static_cast<long long>(st.traversals),
              static_cast<long long>(st.dispatches),
              static_cast<long long>(st.max_batch));
  if (sum.inserts > 0 || sum.removes > 0 || sum.publishes > 0) {
    std::printf(
        "writes: %lld inserts, %lld removes, %lld publishes "
        "(%lld delta / %lld full; final epoch %llu)\n",
        static_cast<long long>(sum.inserts),
        static_cast<long long>(sum.removes),
        static_cast<long long>(sum.publishes),
        static_cast<long long>(st.delta_publishes),
        static_cast<long long>(st.full_publishes),
        static_cast<unsigned long long>(engine.current_epoch()));
    std::printf("cache re-arms: %lld repaired, %lld rebuilt\n",
                static_cast<long long>(st.cache_repairs),
                static_cast<long long>(st.cache_rebuilds));
  }
  std::printf("throughput: %.0f queries/s over %.3f s\n",
              sum.wall_seconds > 0.0
                  ? static_cast<double>(sum.served) / sum.wall_seconds
                  : 0.0,
              sum.wall_seconds);
  std::printf("latency ms: p50 %.3f  p95 %.3f  p99 %.3f  max %.3f\n",
              lat.p50 * 1e3, lat.p95 * 1e3, lat.p99 * 1e3, lat.max * 1e3);
  std::printf(
      "answer digest: %016llx over %zu answers\n",
      static_cast<unsigned long long>(serve::answer_digest(sum.answers)),
      sum.answers.size());
  if (args.get_bool("metrics", false)) {
    std::printf("%s", metrics.format().c_str());
  }
  if (const auto out = args.get("trace-out")) {
    std::printf("query events (%s, schema %s) written to %s\n",
                args.get_or("trace-format", "jsonl").c_str(),
                obs::kTraceSchema, out->c_str());
  }
  return 0;
}

int usage() {
  std::printf(
      "bfsx — heuristic cross-architecture BFS (ICPP'14 reproduction)\n\n"
      "usage: bfsx <command> [--option value ...]\n\n"
      "commands:\n"
      "  generate  --scale N --edgefactor E [--seed S --a --b --c --d] --out FILE\n"
      "  bfs       [--graph FILE | --scale N ...] --engine NAME\n"
      "            [--device cpu|gpu|mic|KEY=VAL,...] [--host cpu] [--m M --n N]\n"
      "            [--m2 M --n2 N] [--roots K] [--metrics] [--paranoid]\n"
      "            [--batch serial|parallel_roots|msbfs] [--batch-size 1..64]\n"
      "            [--reorder degree] [--compress (native-*)]\n"
      "            [--trace-out FILE [--trace-format jsonl|csv]]\n"
      "            dist: [--devices N] [--partition block|balanced]\n"
      "                  [--cluster cpu+cpu+gpu] [--link-latency-us L --link-gbps B]\n"
      "  analyze   [--graph FILE | --scale N ...]   degree/component report\n"
      "  trace     [--graph FILE | --scale N ...] [--root R]   level-trace CSV\n"
      "  tune      [--graph FILE | --scale N ...] [--device ...]\n"
      "  train     [--out FILE]\n"
      "  predict   --model FILE [--scale N ...] [--td-arch cpu] [--bu-arch gpu]\n"
      "  serve     --make-trace FILE [--queries N] [--hot-fraction F]\n"
      "            [--insert-every K --remove-every K --publish-every K]\n"
      "            [--trace-seed S]\n"
      "            or: --replay FILE [--workers N] [--batch-max 1..64]\n"
      "            [--cache on|off] [--landmarks K] [--queue-cap N]\n"
      "            [--trace-out FILE]\n"
      "            [--delta on|off] [--compact-threshold F] [--repair on|off]\n"
      "            [--lockstep] [--metrics]\n"
      "\nengines (--engine NAME):\n%s"
      "\noptions accept '--key value', '--key=value', and bare boolean "
      "'--flag';\nrepeating or misspelling an option is an error\n",
      graph500::EngineRegistry::with_builtin_engines().describe().c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    const Args args(argc, argv, 2);
    if (cmd == "generate") return cmd_generate(args);
    if (cmd == "bfs") return cmd_bfs(args);
    if (cmd == "analyze") return cmd_analyze(args);
    if (cmd == "trace") return cmd_trace(args);
    if (cmd == "tune") return cmd_tune(args);
    if (cmd == "train") return cmd_train(args);
    if (cmd == "predict") return cmd_predict(args);
    if (cmd == "serve") return cmd_serve(args);
    if (cmd == "help") return usage();
    static const std::vector<std::string_view> kCommands = {
        "generate", "bfs",   "analyze", "trace", "tune",
        "train",    "predict", "serve",  "help"};
    std::string message = "unknown command '" + cmd + "'";
    if (const std::string_view closest =
            tools::suggest_closest(cmd, kCommands);
        !closest.empty()) {
      message += " (did you mean '" + std::string(closest) + "'?)";
    }
    std::fprintf(stderr, "bfsx: %s\n\n", message.c_str());
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bfsx %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
}
