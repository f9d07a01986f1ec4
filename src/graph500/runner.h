// The Graph 500 kernel-2 protocol: sample roots, run BFS per root,
// validate each result, report TEPS statistics.
//
// Roots can be dispatched three ways (RunnerOptions::batch_mode):
// one at a time (`serial`, the reference protocol), across OpenMP
// workers (`parallel_roots` — independent single-source traversals,
// ideally serial kernels drawing states from a bfs::StatePool), or in
// bit-parallel batches (`msbfs` — up to 64 roots per kernel pass).
// Whatever the completion order, aggregation is deterministic: per-root
// records land in preallocated root-index slots and are merged into the
// TEPS statistics and the metrics registry in root order, so
// OMP_NUM_THREADS=1 and =4 produce identical BenchmarkResults for
// engines with deterministic per-root seconds.
#pragma once

#include <functional>
#include <string_view>
#include <vector>

#include "bfs/state.h"
#include "bfs/validate.h"
#include "graph500/teps.h"
#include "obs/registry.h"

namespace bfsx::graph500 {

/// A BFS run plus the time it took. Engines backed by the simulator
/// report *modelled* seconds; wall-clock engines report real seconds.
struct TimedBfs {
  bfs::BfsResult result;
  double seconds = 0.0;
};

/// Any BFS implementation: (graph, root) -> timed result. The runner is
/// deliberately engine-agnostic so the paper's eight variants (CPUTD,
/// GPUCB, CPUTD+GPUCB, ...) all flow through the same protocol.
using BfsEngine =
    std::function<TimedBfs(const graph::CsrGraph&, graph::vid_t)>;

/// A batched BFS implementation: one timed result per requested root,
/// in request order. The msbfs engine amortises one kernel pass over
/// the whole batch; per-root `seconds` is the pass wall time divided
/// evenly across the batch (the per-root marginal cost is not
/// observable inside a bit-parallel pass).
using BatchBfsEngine = std::function<std::vector<TimedBfs>(
    const graph::CsrGraph&, const std::vector<graph::vid_t>&)>;

/// Serves each batch by calling `engine` once per root, in batch order:
/// how run_benchmark and EngineRegistry::make_batch_engine run a
/// per-root engine through the batch protocol.
[[nodiscard]] BatchBfsEngine one_root_at_a_time(BfsEngine engine);

/// How run_benchmark dispatches its roots.
enum class BatchMode {
  kSerial,         ///< one root at a time (reference protocol)
  kParallelRoots,  ///< roots spread across OpenMP workers
  kMsBfs,          ///< bit-parallel batches of up to 64 roots
};

[[nodiscard]] constexpr const char* to_string(BatchMode m) noexcept {
  switch (m) {
    case BatchMode::kSerial: return "serial";
    case BatchMode::kParallelRoots: return "parallel_roots";
    case BatchMode::kMsBfs: return "msbfs";
  }
  return "?";
}

/// Parses a `--batch=` value; throws std::invalid_argument listing the
/// valid spellings on anything else.
[[nodiscard]] BatchMode parse_batch_mode(std::string_view text);

struct RootRun {
  graph::vid_t root = 0;
  double seconds = 0.0;
  double teps = 0.0;
  graph::vid_t reached = 0;
  /// Undirected edges in the reached component (the TEPS numerator);
  /// benches sum this for aggregate throughput.
  graph::eid_t edges = 0;
  bool valid = true;
};

struct BenchmarkResult {
  std::vector<RootRun> runs;
  TepsStats stats;
  int validation_failures = 0;

  [[nodiscard]] double mean_seconds() const;
};

struct RunnerOptions {
  /// Number of BFS roots (the official benchmark uses 64). Ignored when
  /// `roots` is non-empty.
  int num_roots = 16;
  std::uint64_t root_seed = 500;
  /// Explicit root list overriding sampling — used by the --reorder CLI
  /// path (roots chosen on the original graph, translated through the
  /// permutation) and by tests. Duplicates are allowed, as in the
  /// official benchmark's sampling.
  std::vector<graph::vid_t> roots;
  /// Run the Graph 500 validator on every traversal.
  bool validate = true;
  BatchMode batch_mode = BatchMode::kSerial;
  /// Roots per msbfs kernel pass (1..64); other modes ignore it.
  int batch_size = 64;
  /// Optional, non-owning metrics registry. The runner accounts its
  /// protocol phases into it: wall timers runner.engine_seconds /
  /// runner.validate_seconds (one observation per root, merged in root
  /// order regardless of completion order), counters runner.roots,
  /// runner.validation_failures, runner.vertices_reached, and — in
  /// msbfs mode — runner.batches plus the runner.batch_seconds timer.
  /// Registry is not thread-safe; the runner only touches it from the
  /// calling thread, after all workers have joined.
  obs::Registry* metrics = nullptr;
};

/// Runs `engine` over the benchmark roots of `g` and aggregates TEPS.
/// TEPS counts undirected edges in the reached component, per the spec.
/// Supports serial and parallel_roots modes; msbfs needs a batch engine
/// (throws std::invalid_argument). Throws std::runtime_error if every
/// sampled run failed validation.
[[nodiscard]] BenchmarkResult run_benchmark(const graph::CsrGraph& g,
                                            const BfsEngine& engine,
                                            const RunnerOptions& opts = {});

/// Batch-engine protocol: all three modes. serial / parallel_roots
/// dispatch batches of one root; msbfs dispatches batches of
/// `opts.batch_size` sequentially (parallelism lives inside the
/// bit-parallel kernel).
[[nodiscard]] BenchmarkResult run_benchmark(const graph::CsrGraph& g,
                                            const BatchBfsEngine& engine,
                                            const RunnerOptions& opts = {});

}  // namespace bfsx::graph500
