#include "graph500/runner.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>

#include "check/contract.h"
#include "graph/graph_stats.h"

namespace bfsx::graph500 {
namespace {

using Clock = std::chrono::steady_clock;

double elapsed_seconds(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

std::vector<graph::vid_t> resolve_roots(const graph::CsrGraph& g,
                                        const RunnerOptions& opts) {
  if (!opts.roots.empty()) {
    const graph::vid_t n = g.num_vertices();
    for (const graph::vid_t r : opts.roots) {
      if (r < 0 || r >= n) {
        throw std::invalid_argument("run_benchmark: explicit root " +
                                    std::to_string(r) + " out of range [0, " +
                                    std::to_string(n) + ")");
      }
    }
    return opts.roots;
  }
  if (opts.num_roots <= 0) {
    throw std::invalid_argument("run_benchmark: num_roots must be > 0");
  }
  return graph::sample_roots(g, opts.num_roots, opts.root_seed);
}

/// Per-root record produced by a worker. Everything the deterministic
/// merge needs, indexed by root position — workers never touch the
/// (thread-unsafe) metrics registry or any shared accumulator.
struct Slot {
  RootRun run;
  double engine_seconds = 0.0;    // wall time attributed to this root
  double validate_seconds = 0.0;  // wall time of this root's validation
};

}  // namespace

double BenchmarkResult::mean_seconds() const {
  if (runs.empty()) return 0.0;
  double sum = 0.0;
  for (const RootRun& r : runs) sum += r.seconds;
  return sum / static_cast<double>(runs.size());
}

BatchMode parse_batch_mode(std::string_view text) {
  if (text == "serial") return BatchMode::kSerial;
  if (text == "parallel_roots") return BatchMode::kParallelRoots;
  if (text == "msbfs") return BatchMode::kMsBfs;
  throw std::invalid_argument("unknown batch mode '" + std::string(text) +
                              "' (valid: serial, parallel_roots, msbfs)");
}

BatchBfsEngine one_root_at_a_time(BfsEngine engine) {
  return [engine = std::move(engine)](const graph::CsrGraph& g,
                                      const std::vector<graph::vid_t>& batch) {
    std::vector<TimedBfs> timed;
    timed.reserve(batch.size());
    for (const graph::vid_t root : batch) timed.push_back(engine(g, root));
    return timed;
  };
}

BenchmarkResult run_benchmark(const graph::CsrGraph& g,
                              const BatchBfsEngine& engine,
                              const RunnerOptions& opts) {
  const std::vector<graph::vid_t> roots = resolve_roots(g, opts);
  const std::size_t total = roots.size();

  std::size_t chunk = 1;
  if (opts.batch_mode == BatchMode::kMsBfs) {
    if (opts.batch_size < 1 || opts.batch_size > 64) {
      throw std::invalid_argument("run_benchmark: batch_size " +
                                  std::to_string(opts.batch_size) +
                                  " out of range [1, 64]");
    }
    chunk = static_cast<std::size_t>(opts.batch_size);
  }
  const std::size_t num_chunks = (total + chunk - 1) / chunk;

  std::vector<Slot> slots(total);
  std::vector<double> batch_wall(num_chunks, 0.0);

  // Runs one chunk of roots through the engine and validates each
  // result, writing only this chunk's slots (disjoint across chunks, so
  // parallel_roots threads never contend).
  const auto eval_chunk = [&](std::size_t c) {
    const std::size_t begin = c * chunk;
    const std::size_t end = std::min(begin + chunk, total);
    const std::vector<graph::vid_t> batch(roots.begin() +
                                              static_cast<std::ptrdiff_t>(begin),
                                          roots.begin() +
                                              static_cast<std::ptrdiff_t>(end));
    const auto t0 = Clock::now();
    std::vector<TimedBfs> timed = engine(g, batch);
    const double wall = elapsed_seconds(t0);
    batch_wall[c] = wall;
    BFSX_CHECK(timed.size() == batch.size())
        << "batch engine returned " << timed.size() << " results for "
        << batch.size() << " roots";
    const double share = wall / static_cast<double>(batch.size());
    for (std::size_t i = begin; i < end; ++i) {
      Slot& slot = slots[i];
      TimedBfs& t = timed[i - begin];
      slot.engine_seconds = share;
      slot.run.root = roots[i];
      slot.run.seconds = t.seconds;
      slot.run.reached = t.result.reached;
      slot.run.edges = t.result.edges_in_component;
      if (opts.validate) {
        const auto v0 = Clock::now();
        const bfs::ValidationReport report =
            bfs::validate_bfs(g, roots[i], t.result);
        slot.validate_seconds = elapsed_seconds(v0);
        slot.run.valid = report.ok;
      }
      if (slot.run.valid && t.seconds > 0.0) {
        slot.run.teps =
            static_cast<double>(t.result.edges_in_component) / t.seconds;
      }
    }
  };

  if (opts.batch_mode == BatchMode::kParallelRoots) {
    // Threads fill disjoint slots; exceptions are ferried out (OpenMP
    // regions must not leak them) and rethrown once, after the join.
    std::exception_ptr first_error;
    std::mutex error_mu;
    const auto count = static_cast<std::int64_t>(num_chunks);
#ifdef _OPENMP
    // omp-lint: allow(shared-write) first_error is assigned under
    //           error_mu; eval_chunk writes only chunk-disjoint slots
#pragma omp parallel for schedule(dynamic, 1)
#endif
    for (std::int64_t c = 0; c < count; ++c) {
      try {
        eval_chunk(static_cast<std::size_t>(c));
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (first_error) std::rethrow_exception(first_error);
  } else {
    for (std::size_t c = 0; c < num_chunks; ++c) eval_chunk(c);
  }

  // Deterministic merge, in root order, on the calling thread — the
  // only place the metrics registry and the TEPS list are touched.
  BenchmarkResult out;
  out.runs.reserve(total);
  std::vector<double> teps;
  for (const Slot& slot : slots) {
    if (opts.metrics != nullptr) {
      opts.metrics->record_seconds("runner.engine_seconds",
                                   slot.engine_seconds);
      opts.metrics->add("runner.roots");
      opts.metrics->add("runner.vertices_reached", slot.run.reached);
      if (opts.validate) {
        opts.metrics->record_seconds("runner.validate_seconds",
                                     slot.validate_seconds);
      }
    }
    if (!slot.run.valid) {
      ++out.validation_failures;
      if (opts.metrics != nullptr) {
        opts.metrics->add("runner.validation_failures");
      }
    }
    if (slot.run.valid && slot.run.seconds > 0.0) {
      teps.push_back(slot.run.teps);
    }
    out.runs.push_back(slot.run);
  }
  if (opts.metrics != nullptr && opts.batch_mode == BatchMode::kMsBfs) {
    for (const double w : batch_wall) {
      opts.metrics->add("runner.batches");
      opts.metrics->record_seconds("runner.batch_seconds", w);
    }
  }
  if (teps.empty()) {
    throw std::runtime_error("run_benchmark: no valid timed runs to aggregate");
  }
  out.stats = compute_teps_stats(teps);
  return out;
}

BenchmarkResult run_benchmark(const graph::CsrGraph& g,
                              const BfsEngine& engine,
                              const RunnerOptions& opts) {
  if (opts.batch_mode == BatchMode::kMsBfs) {
    throw std::invalid_argument(
        "run_benchmark: batch mode 'msbfs' needs a BatchBfsEngine "
        "(e.g. EngineRegistry::make_batch_engine(\"msbfs\", ...))");
  }
  return run_benchmark(g, one_root_at_a_time(engine), opts);
}

}  // namespace bfsx::graph500
