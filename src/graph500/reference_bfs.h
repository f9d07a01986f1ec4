// A stand-in for the Graph 500 reference BFS code (the paper's §V-D
// baseline: "The Graph 500 benchmark also provides parallel
// implementation source codes ... Our CPU implementation achieves
// 4.96-21.0x speedups over theirs").
//
// Functionally it is a plain level-synchronous top-down traversal; its
// modelled time is the host's top-down cost inflated by
// `kReferencePenalty`, representing the reference code's shared-queue
// contention and lack of bitmap/CSR micro-optimisation. The penalty is
// the one free parameter of this baseline and was chosen so that
// "optimised top-down over reference" lands in the low single digits,
// with the rest of the paper's 16-63x coming from the hybrid direction
// switch — matching how the paper decomposes its speedup.
#pragma once

#include "graph500/runner.h"
#include "obs/sink.h"
#include "sim/device.h"

namespace bfsx::graph500 {

/// Modelled slowdown of the reference implementation relative to this
/// repository's optimised top-down kernel on the same hardware.
inline constexpr double kReferencePenalty = 3.0;

/// The reference traversal itself: a plain serial queue BFS, the
/// distance/parent oracle every engine (including the distributed one,
/// src/dist) is checked against in tests.
[[nodiscard]] bfs::BfsResult reference_bfs(const graph::CsrGraph& g,
                                           graph::vid_t root);

/// Builds a BfsEngine that emulates the Graph 500 reference code
/// running on a copy of `device`. `sink` (optional, non-owning, must
/// outlive the engine) observes every traversal as engine "ref", with
/// per-level modelled seconds already penalty-inflated.
[[nodiscard]] BfsEngine make_reference_engine(const sim::Device& device,
                                              obs::TraceSink* sink = nullptr);

/// Builds a BfsEngine for this repo's optimised pure top-down on a copy
/// of `device` (the paper's CPUTD / GPUTD / MICTD rows). Traced as "td".
[[nodiscard]] BfsEngine make_top_down_engine(const sim::Device& device,
                                             obs::TraceSink* sink = nullptr);

/// Ditto for pure bottom-up (CPUBU / GPUBU / MICBU). Traced as "bu".
[[nodiscard]] BfsEngine make_bottom_up_engine(const sim::Device& device,
                                              obs::TraceSink* sink = nullptr);

}  // namespace bfsx::graph500
