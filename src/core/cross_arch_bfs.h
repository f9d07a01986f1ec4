// Cross-architecture combination executor — the paper's Algorithm 3 and
// headline contribution ("the first to combine top-down and bottom-up
// across different architectures").
//
// Phase 1: the host runs top-down while `handoff_policy` still selects
// top-down (small frontier: the CPU's fat cores and low per-level
// overhead win, Table IV levels 1-2).
// Phase 2: at the first bottom-up trigger, the frontier and visited
// bitmaps cross the interconnect and the accelerator finishes the
// traversal, choosing per level between bottom-up and top-down with
// `accel_policy` — bottom-up through the fat middle, top-down again for
// the tiny last levels (the CPUTD+GPUCB column of Table IV). Control
// never returns to the host: the paper found switching back is
// "meaningless" because the GPU already wins small compute-dense
// levels (Section IV).
#pragma once

#include "core/adaptive_bfs.h"
#include "sim/machine.h"

namespace bfsx::core {

/// Algorithm 3's device and direction rule, with the one bit of state
/// a traversal carries. The host (device 0) runs top-down while
/// `handoff` picks top-down; from its first bottom-up pick on, the
/// accelerator (device 1) runs every level under `accel`, or pure
/// bottom-up when `accel` is null. Make one per traversal.
class HandoffRule {
 public:
  HandoffRule(const HybridPolicy& handoff, const HybridPolicy* accel)
      : handoff_(handoff), accel_(accel) {}

  [[nodiscard]] bfs::Decision decide(const bfs::Frontier& f) {
    if (!on_accel_ && handoff_.decide(f) == bfs::Direction::kTopDown) {
      return {bfs::Direction::kTopDown, 0};
    }
    on_accel_ = true;  // line 11: control never returns to the host
    return {accel_ != nullptr ? accel_->decide(f) : bfs::Direction::kBottomUp,
            1};
  }

 private:
  HybridPolicy handoff_;
  const HybridPolicy* accel_;
  bool on_accel_ = false;
};

/// Runs Algorithm 3 on host + accelerator over a link. `sink`
/// (optional, non-owning) observes the traversal as engine "cross";
/// the host→accelerator frontier shipment is emitted as an explicit
/// handoff event carrying the modelled wire time.
[[nodiscard]] CombinationRun run_cross_arch(
    const graph::CsrGraph& g, graph::vid_t root, const sim::Device& host,
    const sim::Device& accel, const sim::InterconnectSpec& link,
    const HybridPolicy& handoff_policy, const HybridPolicy& accel_policy,
    obs::TraceSink* sink = nullptr);

/// The paper's intermediate variant CPUTD+GPUBU (Table IV, column 7):
/// host top-down for the early levels, then pure bottom-up on the
/// accelerator to the end — no switch-back to top-down. Traced as
/// "cross-bu".
[[nodiscard]] CombinationRun run_cross_arch_bu_only(
    const graph::CsrGraph& g, graph::vid_t root, const sim::Device& host,
    const sim::Device& accel, const sim::InterconnectSpec& link,
    const HybridPolicy& handoff_policy, obs::TraceSink* sink = nullptr);

}  // namespace bfsx::core
