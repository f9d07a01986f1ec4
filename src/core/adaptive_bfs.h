// Single-architecture combination executor: the paper's CPUCB / GPUCB /
// MICCB — one device, per-level direction chosen by the M/N policy.
#pragma once

#include <utility>
#include <vector>

#include "core/beamer_policy.h"
#include "core/hybrid_policy.h"
#include "core/traversal.h"
#include "obs/sink.h"
#include "sim/device.h"

namespace bfsx::core {

struct CombinationRun {
  bfs::BfsResult result;
  double seconds = 0.0;            // total modelled time
  double transfer_seconds = 0.0;   // interconnect share (cross-arch only)
  /// One event per executed level, with the device it ran on and its
  /// modelled compute_seconds (single-arch runs have one device
  /// throughout; cross-arch runs mix). Handoffs are not levels.
  std::vector<obs::LevelEvent> levels;
  int direction_switches = 0;

  /// TEPS over the reached component at the modelled time.
  [[nodiscard]] double teps() const {
    return seconds > 0
               ? static_cast<double>(result.edges_in_component) / seconds
               : 0.0;
  }
};

/// Runs the combination of Algorithms 1 and 2 on one device, switching
/// by `policy` each level (paper Section II-B / Fig. 4), and returns
/// the full per-level account. `sink` (optional, non-owning) observes
/// the traversal as engine "hybrid".
[[nodiscard]] CombinationRun run_combination(const graph::CsrGraph& g,
                                             graph::vid_t root,
                                             const sim::Device& device,
                                             const HybridPolicy& policy,
                                             obs::TraceSink* sink = nullptr);

/// Pure-direction runs through the same reporting path (the paper's
/// GPUTD/GPUBU/... columns of Table IV). Traced as "td" / "bu".
[[nodiscard]] CombinationRun run_pure(const graph::CsrGraph& g,
                                      graph::vid_t root,
                                      const sim::Device& device,
                                      bfs::Direction direction,
                                      obs::TraceSink* sink = nullptr);

/// The same combination under Beamer's stateful alpha/beta rule
/// (core/beamer_policy.h) — the SC'12 baseline the paper's M/N rule
/// reformulates. Tracks the unexplored-edge count live. Traced as
/// "beamer".
[[nodiscard]] CombinationRun run_combination_beamer(
    const graph::CsrGraph& g, graph::vid_t root, const sim::Device& device,
    const BeamerPolicy& policy, obs::TraceSink* sink = nullptr);

/// Any modelled run through the level loop, reported as a
/// CombinationRun and traced as `engine`.
template <typename Policy, typename Clock>
[[nodiscard]] CombinationRun run_modelled(const graph::CsrGraph& g,
                                          graph::vid_t root,
                                          const char* engine,
                                          Policy&& policy, Clock&& clock,
                                          obs::TraceSink* sink) {
  CombinationRun run;
  Traversal t = run_traversal(g, root, engine, std::forward<Policy>(policy),
                              std::forward<Clock>(clock), sink, nullptr,
                              &run.levels);
  run.result = std::move(t.result);
  run.seconds = t.seconds;
  run.transfer_seconds = t.comm_seconds;
  run.direction_switches = t.direction_switches;
  return run;
}

}  // namespace bfsx::core
