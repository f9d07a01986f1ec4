// Shared helpers for the experiment-reproduction binaries.
//
// Every bench honours two environment variables:
//   BFSX_SCALE — overrides the default graph SCALE (log2 vertices);
//   BFSX_FULL=1 — runs at the paper's original sizes (SCALE up to 23;
//                 slow on a laptop-class container, exact shapes).
// Defaults are chosen so the whole bench suite finishes in minutes on
// one core while preserving the paper's qualitative shapes.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/api.h"
#include "graph/builder.h"
#include "graph/graph_stats.h"
#include "graph/rmat.h"
#include "obs/json.h"

namespace bfsx::bench {

inline bool full_mode() {
  const char* v = std::getenv("BFSX_FULL");
  return v != nullptr && v[0] == '1';
}

/// Scale override: BFSX_SCALE wins; otherwise `full` in full mode, else
/// `dflt`.
inline int pick_scale(int dflt, int full) {
  if (const char* v = std::getenv("BFSX_SCALE")) return std::atoi(v);
  return full_mode() ? full : dflt;
}

struct BuiltGraph {
  graph::RmatParams params;
  graph::CsrGraph csr;
  graph::vid_t root;
};

/// Generates, builds, and roots an R-MAT graph with the paper's
/// Kronecker parameters.
inline BuiltGraph make_graph(int scale, int edgefactor,
                             std::uint64_t seed = 2014) {
  BuiltGraph bg;
  bg.params.scale = scale;
  bg.params.edgefactor = edgefactor;
  bg.params.seed = seed;
  bg.csr = graph::build_csr(graph::generate_rmat(bg.params));
  bg.root = graph::sample_roots(bg.csr, 1, seed + 1)[0];
  return bg;
}

inline core::GraphFeatures features_of(const BuiltGraph& bg) {
  return core::features_from_rmat(bg.params);
}

/// "2^18 (262144)" style label.
inline std::string scale_label(int scale) {
  return "2^" + std::to_string(scale);
}

inline void print_header(const char* experiment, const char* what) {
  std::printf("==================================================================\n");
  std::printf("%s — %s\n", experiment, what);
  std::printf("mode: %s (set BFSX_FULL=1 for paper-sized graphs, BFSX_SCALE=n to override)\n",
              full_mode() ? "FULL (paper sizes)" : "scaled-down");
  std::printf("==================================================================\n");
}

/// Machine-readable companion to a bench's printed tables: rows of
/// key/value cells collected while the bench runs, written as
/// `BENCH_<figure>.json` (schema "bfsx.bench.v1") next to the binary.
/// Plotting scripts read these instead of scraping stdout.
class JsonReport {
 public:
  explicit JsonReport(std::string figure) : figure_(std::move(figure)) {}

  /// Starts a new output row; subsequent cell() calls land in it.
  void row() { rows_.emplace_back(); }

  template <typename V>
  void cell(std::string_view key, V value) {
    rows_.back().field(key, value);
  }
  void cell(std::string_view key, int value) {
    rows_.back().field(key, static_cast<std::int64_t>(value));
  }

  /// Writes BENCH_<figure>.json in the working directory and reports
  /// the path on stdout. Call once, after the tables are printed.
  void write() const {
    const std::string path = "BENCH_" + figure_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
      return;
    }
    std::string rows = "[";
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      if (r != 0) rows += ",";
      rows += rows_[r].str();
    }
    rows += "]";
    const std::string out = obs::JsonObject()
                                .field("schema", "bfsx.bench.v1")
                                .field("figure", figure_)
                                .field("mode", full_mode() ? "full" : "scaled")
                                .raw_field("rows", rows)
                                .str() +
                            "\n";
    std::fwrite(out.data(), 1, out.size(), f);
    std::fclose(f);
    std::printf("machine-readable result: %s (%zu rows)\n", path.c_str(),
                rows_.size());
  }

 private:
  std::string figure_;
  std::vector<obs::JsonObject> rows_;
};

/// Best-of-N measurement: invokes `run()` `reps` times and returns the
/// result `score` ranks highest. The perf benches (bench_msbfs) take
/// the best pass rather than the mean so
/// one scheduler hiccup cannot fabricate a regression; `score` is
/// usually aggregate TEPS.
template <typename F, typename Score>
auto best_of(int reps, F&& run, Score&& score) {
  auto best = run();
  for (int rep = 1; rep < reps; ++rep) {
    auto candidate = run();
    if (score(candidate) > score(best)) best = std::move(candidate);
  }
  return best;
}

/// A quick trainer config that spans the scales the benches evaluate,
/// so the regression predictor interpolates rather than extrapolates.
/// `lo..hi` inclusive scale range.
inline core::TrainerConfig bench_trainer_config(int lo, int hi) {
  core::TrainerConfig cfg;
  for (int scale = lo; scale <= hi; ++scale) {
    for (int ef : {8, 16, 32}) {
      for (std::uint64_t seed : {11ULL, 29ULL}) {
        graph::RmatParams p;
        p.scale = scale;
        p.edgefactor = ef;
        p.seed = seed;
        cfg.graphs.push_back(p);
      }
    }
  }
  const sim::ArchSpec cpu = sim::make_sandy_bridge_cpu();
  const sim::ArchSpec gpu = sim::make_kepler_gpu();
  const sim::ArchSpec mic = sim::make_knights_corner_mic();
  cfg.arch_pairs = {{cpu, cpu}, {gpu, gpu}, {mic, mic}, {cpu, gpu}};
  return cfg;
}

}  // namespace bfsx::bench
