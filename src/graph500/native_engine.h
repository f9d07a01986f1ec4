// Wall-clock engines: the same kernels, timed for real.
//
// The simulator (src/sim) answers "what would this cost on the paper's
// hardware"; these engines answer "what does it cost on the machine I
// am running on". They run the same level loop (bfs/traverse.h) with
// core::WallClock, which times each level step with a steady clock,
// so the library is directly usable as a production BFS on a real
// multicore host — including the M/N hybrid, which needs no hardware
// model at all.
//
// All three single-source factories optionally draw their BfsState from
// a bfs::StatePool (non-owning; must outlive the engine): under
// batch_mode=parallel_roots each worker recycles a state instead of
// reallocating per root. They also optionally traverse a
// graph::CompressedCsrView instead of the CSR they are called with
// (--compress): non-owning, it must outlive the engine and be built
// from that same CsrGraph. Same templated kernels, same results, a
// smaller adjacency. The msbfs factory returns a BatchBfsEngine
// wrapping the bit-parallel kernel — its state is the per-batch lane
// masks, sized once per batch, so it takes no pool.
#pragma once

#include <utility>

#include "bfs/state_pool.h"
#include "core/hybrid_policy.h"
#include "core/traversal.h"
#include "graph/compressed_csr.h"
#include "graph500/runner.h"
#include "obs/sink.h"

namespace bfsx::graph500 {

/// One wall-clock traversal of `g` — a CsrGraph or any HybridView —
/// from `root` under `policy`, traced as `engine`: the body of every
/// native engine (over CSR or compressed rows) and of serve's
/// single-source ticks. Its seconds are the sum of the level steps'
/// wall times.
template <typename G, typename Policy>
TimedBfs run_native(const G& g, graph::vid_t root, const char* engine,
                    const Policy& policy, obs::TraceSink* sink,
                    bfs::StatePool* pool) {
  core::Traversal run = core::run_traversal(g, root, engine, policy,
                                            core::WallClock{}, sink, pool);
  return {std::move(run.result), run.seconds};
}

/// Pure top-down, wall-clock timed. `sink` (optional, non-owning, must
/// outlive the engine) observes every traversal as engine "native-td"
/// with real per-level seconds.
[[nodiscard]] BfsEngine make_native_top_down_engine(
    obs::TraceSink* sink = nullptr, bfs::StatePool* pool = nullptr,
    const graph::CompressedCsrView* compressed = nullptr);

/// Pure bottom-up, wall-clock timed. Traced as "native-bu".
[[nodiscard]] BfsEngine make_native_bottom_up_engine(
    obs::TraceSink* sink = nullptr, bfs::StatePool* pool = nullptr,
    const graph::CompressedCsrView* compressed = nullptr);

/// The M/N combination, wall-clock timed. `policy` is evaluated against
/// the real frontier statistics every level, exactly like the simulated
/// executor. Traced as "native-hybrid".
[[nodiscard]] BfsEngine make_native_hybrid_engine(
    core::HybridPolicy policy, obs::TraceSink* sink = nullptr,
    bfs::StatePool* pool = nullptr,
    const graph::CompressedCsrView* compressed = nullptr);

/// Bit-parallel multi-source BFS (bfs::ms_bfs), wall-clock timed per
/// batch. `policy` decides each level's direction on the union
/// frontier. Per-root seconds are the batch wall time divided evenly
/// across the batch. With a sink attached, each batch is traced as one
/// run of engine "msbfs" (root = first of the batch): its levels are
/// timed by core::WallClock and booked by core::LevelLedger, as in
/// run_native, so the level events carry the union-frontier counters.
[[nodiscard]] BatchBfsEngine make_msbfs_batch_engine(
    core::HybridPolicy policy, obs::TraceSink* sink = nullptr);

}  // namespace bfsx::graph500
