// perfbench: the repository benchmark. One run of one workload:
//
//   perfbench --workload g500|serve_read|serve_churn --seed N
//             --seconds S --trace 0|1 [--record-dir DIR] [--commit ID]
//
// prints a few human-readable lines, then, as its last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}. An untraced run
// (--trace 0) reports the end-to-end metrics, a traced run the
// per-layer ones; both tables are below and in BENCHMARK.json. Every
// figure the run computed, with a stamp of the machine and build, goes
// to DIR/record-<workload>-seed<N>-trace<0|1>.json.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(_OPENMP)
#include <omp.h>
#endif

#include "bench.h"
#include "obs/perf_counters.h"

namespace {

using perfbench::Options;
using perfbench::Outcome;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every workload reports every metric of the table its mode selects.
// A layer a workload does not exercise reads 0 there.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"ops_per_s", "1/s"},
    {"lat_ms_p50", "ms"},
    {"lat_ms_p95", "ms"},
};

constexpr MetricSpec kPerLayer[] = {
    {"graph.generate_s", "s"},
    {"graph.validate_edges_s", "s"},
    {"graph.build_s", "s"},
    {"graph.csr_bytes", "bytes"},
    {"serve.init_s", "s"},
    {"core.td_levels", "count"},
    {"core.bu_levels", "count"},
    {"core.switches", "count"},
    {"bfs.td_s", "s"},
    {"bfs.bu_s", "s"},
    {"bfs.td_edges", "count"},
    {"bfs.bu_scanned", "count"},
    {"bfs.bu_hit_ratio", "ratio"},
    {"bfs.td_edges_per_s", "1/s"},
    {"bfs.bu_scanned_per_s", "1/s"},
    {"bfs.bytes_computed", "bytes"},
    {"bfs.level_ms_max", "ms"},
    {"bfs.validate_s", "s"},
    {"graph500.outside_levels_s", "s"},
    {"graph500.teps_hmean", "edges/s"},
    {"graph500.validated_s", "s"},
    {"bfs.msbfs_passes", "count"},
    {"bfs.msbfs_lanes_mean", "count"},
    {"bfs.msbfs_pass_ms_p50", "ms"},
    {"bfs.msbfs_pass_ms_p99", "ms"},
    {"serve.qps_open", "1/s"},
    {"serve.open_lat_ms_p50", "ms"},
    {"serve.open_lat_ms_p99", "ms"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.queue_wait_ms_p50", "ms"},
    {"serve.queue_wait_ms_p99", "ms"},
    {"serve.batch_mean", "count"},
    {"serve.queries_per_lane", "ratio"},
    {"serve.single_share", "ratio"},
    {"serve.rejected", "count"},
    {"serve.publish_ms_p50", "ms"},
    {"serve.publish_ms_p90", "ms"},
    {"serve.publish_graph_ms_p50", "ms"},
    {"serve.rearm_repair_ms_p50", "ms"},
    {"serve.rearm_rebuild_ms_p50", "ms"},
    {"serve.repair_relaxed", "count"},
    {"serve.delta_dispatch_share", "ratio"},
    {"serve.patched_fraction", "ratio"},
    {"serve.epochs_live_max", "count"},
    {"gen.late_ms_p99", "ms"},
    {"obs.trace_overhead_pct", "%"},
};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const Outcome& out, bool trace) {
  std::string s = "{";
  bool first = true;
  for (const MetricSpec& m : trace ? std::span<const MetricSpec>(kPerLayer)
                                   : std::span<const MetricSpec>(kEndToEnd)) {
    const auto it = out.values.find(m.name);
    const double v = it == out.values.end() ? 0.0 : it->second;
    s += (first ? "" : ", ") + json_string(m.name) + ": {\"value\": " +
         json_number(v) + ", \"unit\": " + json_string(m.unit) + "}";
    first = false;
  }
  return s + "}";
}

std::string first_line_with(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(key, 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unavailable";
}

/// Size of the highest-level data or unified cache cpu0 reports.
std::string llc_size() {
  namespace fs = std::filesystem;
  std::string best = "unavailable";
  int best_level = 0;
  std::error_code ec;
  for (const auto& entry :
       fs::directory_iterator("/sys/devices/system/cpu/cpu0/cache", ec)) {
    const std::string dir = entry.path().string();
    std::ifstream level_in(dir + "/level");
    std::ifstream type_in(dir + "/type");
    std::ifstream size_in(dir + "/size");
    int level = 0;
    std::string type;
    std::string size;
    if (!(level_in >> level) || !(type_in >> type) || !(size_in >> size)) {
      continue;
    }
    if (type != "Instruction" && level > best_level) {
      best_level = level;
      best = "L" + std::to_string(level) + " " + size;
    }
  }
  return best;
}

std::string stamp_json(const std::string& commit) {
  const bfsx::obs::PerfCounters probe;
  int omp_threads = 1;
#if defined(_OPENMP)
  omp_threads = omp_get_max_threads();
#endif
  std::ostringstream s;
  s << "{\"commit\": " << json_string(commit)
    << ", \"nproc\": " << std::thread::hardware_concurrency()
    << ", \"cpu_model\": "
    << json_string(first_line_with("/proc/cpuinfo", "model name"))
    << ", \"llc\": " << json_string(llc_size())
    << ", \"compiler\": " << json_string(__VERSION__)
    << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
    << ", \"cxx_flags\": " << json_string(PERFBENCH_CXX_FLAGS)
    << ", \"omp_threads\": " << omp_threads
    << ", \"hardware_counters\": "
    << json_string(probe.available() ? "available, not sampled"
                                     : "unavailable")
    << "}";
  return s.str();
}

void write_record(const std::string& dir, const Options& opts,
                  const std::string& commit, const Outcome& out,
                  const std::string& result_line) {
  namespace fs = std::filesystem;
  fs::create_directories(dir);
  const std::string path = dir + "/record-" + opts.workload + "-seed" +
                           std::to_string(opts.seed) + "-trace" +
                           (opts.trace ? "1" : "0") + ".json";
  std::ofstream f(path);
  f << "{\"workload\": " << json_string(opts.workload)
    << ", \"seed\": " << opts.seed
    << ", \"seconds\": " << json_number(opts.seconds)
    << ", \"trace\": " << (opts.trace ? "true" : "false")
    << ",\n \"stamp\": " << stamp_json(commit) << ",\n \"facts\": {";
  bool first = true;
  for (const auto& [k, v] : out.facts) {
    f << (first ? "" : ", ") << json_string(k) << ": " << json_string(v);
    first = false;
  }
  f << "},\n \"values\": {";
  first = true;
  for (const auto& [k, v] : out.values) {
    f << (first ? "" : ", ") << json_string(k) << ": " << json_number(v);
    first = false;
  }
  f << "},\n \"result\": " << result_line << "}\n";
  if (!f) throw std::runtime_error("cannot write record " + path);
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "g500|serve_read|serve_churn --seed N --seconds S --trace 0|1 "
               "[--record-dir DIR] [--commit ID]\n",
               why.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  std::string record_dir;
  std::string commit = "unavailable";
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string key = argv[i];
      if (i + 1 >= argc) usage("missing value for " + key);
      const std::string value = argv[++i];
      if (key == "--workload") {
        opts.workload = value;
        have_workload = true;
      } else if (key == "--seed") {
        opts.seed = std::stoull(value);
      } else if (key == "--seconds") {
        opts.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        opts.trace = value == "1";
      } else if (key == "--record-dir") {
        record_dir = value;
      } else if (key == "--commit") {
        commit = value;
      } else {
        usage("unknown option " + key);
      }
    }
  } catch (const std::exception& e) {
    usage(std::string("bad value: ") + e.what());
  }
  if (!have_workload) usage("--workload is required");
  if (!(opts.seconds > 0.0)) usage("--seconds must be positive");

  try {
    Outcome out;
    if (opts.workload == "g500") {
      out = perfbench::run_g500(opts);
    } else if (opts.workload == "serve_read") {
      out = perfbench::run_serve(opts, /*churn=*/false);
    } else if (opts.workload == "serve_churn") {
      out = perfbench::run_serve(opts, /*churn=*/true);
    } else {
      usage("unknown workload '" + opts.workload + "'");
    }
    const std::string result =
        std::string("{\"correct\": ") + (out.correct ? "true" : "false") +
        ", \"attempted\": " + std::to_string(out.attempted) +
        ", \"failed\": " + std::to_string(out.failed) +
        ", \"metrics\": " + metrics_json(out, opts.trace) + "}";
    if (!record_dir.empty()) {
      write_record(record_dir, opts, commit, out, result);
    }
    std::printf("%s\n", result.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", opts.workload.c_str(),
                 e.what());
    return 1;
  }
}
