#include "graph500/native_engine.h"

#include <algorithm>
#include <chrono>
#include <span>
#include <utility>

#include "bfs/msbfs.h"

namespace bfsx::graph500 {
namespace {

/// The one place a native engine picks its representation: each call
/// traverses `*compressed` when one is given, else the CsrGraph the
/// engine is called with. Either way the same templated kernels run,
/// so the results are identical.
template <typename Policy>
BfsEngine native_engine(const char* name, Policy policy,
                        obs::TraceSink* sink, bfs::StatePool* pool,
                        const graph::CompressedCsrView* compressed) {
  return [name, policy, sink, pool, compressed](const graph::CsrGraph& g,
                                                graph::vid_t root) {
    return compressed != nullptr
               ? run_native(*compressed, root, name, policy, sink, pool)
               : run_native(g, root, name, policy, sink, pool);
  };
}

}  // namespace

BfsEngine make_native_top_down_engine(
    obs::TraceSink* sink, bfs::StatePool* pool,
    const graph::CompressedCsrView* compressed) {
  return native_engine("native-td",
                       bfs::ForcedPolicy{bfs::Direction::kTopDown}, sink,
                       pool, compressed);
}

BfsEngine make_native_bottom_up_engine(
    obs::TraceSink* sink, bfs::StatePool* pool,
    const graph::CompressedCsrView* compressed) {
  return native_engine("native-bu",
                       bfs::ForcedPolicy{bfs::Direction::kBottomUp}, sink,
                       pool, compressed);
}

BfsEngine make_native_hybrid_engine(
    core::HybridPolicy policy, obs::TraceSink* sink, bfs::StatePool* pool,
    const graph::CompressedCsrView* compressed) {
  policy.validate();
  return native_engine("native-hybrid", policy, sink, pool, compressed);
}

BatchBfsEngine make_msbfs_batch_engine(core::HybridPolicy policy,
                                       obs::TraceSink* sink) {
  policy.validate();
  return [policy, sink](const graph::CsrGraph& g,
                        const std::vector<graph::vid_t>& batch) {
    bfs::MsBfsOptions mopts;
    mopts.m = policy.m;
    mopts.n = policy.n;

    obs::RunEvent trace;
    if (sink != nullptr) {
      trace = core::trace_begin_run(sink, "msbfs", g,
                                    batch.empty() ? 0 : batch.front());
    }
    const auto start = std::chrono::steady_clock::now();
    bfs::MsBfsResult ms =
        bfs::ms_bfs(g, std::span<const graph::vid_t>(batch), mopts);
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();

    if (sink != nullptr) {
      // One trace run per batch: level events carry the union-frontier
      // counters the direction decision actually saw and the level's
      // wall time as the kernel measured it.
      for (const bfs::MsUnionLevel& lvl : ms.levels) {
        obs::LevelEvent event;
        event.device = "host";
        event.level = lvl.level;
        event.direction = lvl.direction;
        event.frontier_vertices = lvl.frontier_vertices;
        event.frontier_edges = lvl.frontier_edges;
        event.next_vertices = lvl.next_vertices;
        event.compute_seconds = lvl.seconds;
        sink->on_level(event);
      }
      // Totals for the batch run: the union traversal's footprint.
      bfs::BfsResult batch_totals;
      for (const bfs::BfsResult& r : ms.per_root) {
        batch_totals.reached = std::max(batch_totals.reached, r.reached);
        batch_totals.edges_in_component = std::max(
            batch_totals.edges_in_component, r.edges_in_component);
      }
      core::trace_end_run(sink, std::move(trace), batch_totals, wall, 0.0,
                          ms.depth, ms.direction_switches);
    }

    const double share = wall / static_cast<double>(batch.size());
    std::vector<TimedBfs> out;
    out.reserve(batch.size());
    for (bfs::BfsResult& r : ms.per_root) {
      out.push_back(TimedBfs{std::move(r), share});
    }
    return out;
  };
}

}  // namespace bfsx::graph500
