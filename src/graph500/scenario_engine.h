// Scenario engines: the Graph 500 protocol over implicit graphs.
//
// `--scenario` hands the runner a graph::ScenarioGraph — a variant of
// implicit views (grid world, n-puzzle) whose neighbours are generated
// on the fly instead of read from CSR arrays. The registry's scenario
// factories run the same wall-clock level loop the native CSR engines
// use (graph500::run_native), instantiated per concrete view by one
// std::visit at whole-run granularity; the hot loops stay free of
// virtual dispatch and variant branching.
//
// run_scenario_benchmark is run_benchmark's kernel-2 protocol (one
// implementation in runner.cc): sampled or explicit roots, per-root
// validation through the templated Graph 500 validator, deterministic
// root-order aggregation, serial or parallel_roots dispatch. msbfs is
// not available — the bit-parallel lane kernel is CSR-specialised
// (DESIGN.md §11).
#pragma once

#include <functional>

#include "graph/scenario.h"
#include "graph500/runner.h"

namespace bfsx::graph500 {

/// A BFS implementation over an implicit graph: (scenario, root) ->
/// timed result. The scenario counterpart of BfsEngine.
using ScenarioBfsEngine =
    std::function<TimedBfs(const graph::ScenarioGraph&, graph::vid_t)>;

/// Runs `engine` over the benchmark roots of the scenario and
/// aggregates TEPS, exactly as run_benchmark does: explicit roots are
/// range-checked, sampled roots come from graph::sample_view_roots
/// (identical RNG stream to CSR sampling), every traversal optionally
/// runs the Graph 500 validator, and aggregation is deterministic in
/// root order. Supports serial and parallel_roots; throws
/// std::invalid_argument for msbfs. Throws std::runtime_error if every
/// run failed validation.
[[nodiscard]] BenchmarkResult run_scenario_benchmark(
    const graph::ScenarioGraph& g, const ScenarioBfsEngine& engine,
    const RunnerOptions& opts = {});

}  // namespace bfsx::graph500
