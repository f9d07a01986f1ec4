// The run wrapper around bfs::traverse (bfs/traverse.h), the
// per-level bookkeeping it shares with the MS-BFS batch engine, and the
// clocks engines price their levels with.
//
// LevelLedger books every level a clock charged: it sums the charges,
// counts levels and direction switches, and emits the level (and
// handoff) trace events. run_traversal wraps it around one
// single-source run: it takes a BfsState from a StatePool or makes a
// fresh one, emits run_begin and run_end, and calls take_result. The
// msbfs batch engine (graph500/native_engine.cc) books the levels of
// an MS-BFS pass with the same ledger. The engines differ only in the
// (policy, clock) pair they pass:
//
//   native-*, msbfs    WallClock                 forced / M/N policy
//   td, bu, hybrid     DeviceClock               forced / M/N / Beamer
//   ref                DeviceClock × kReferencePenalty, top-down
//   cross              host + accelerator DeviceClocks, Algorithm 3's
//                      handoff rule (core/cross_arch_bfs.cc)
//   dist               the BSP cluster's superstep clock (dist/)
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bfs/state_pool.h"
#include "bfs/traverse.h"
#include "graph/types.h"
#include "obs/sink.h"
#include "sim/device.h"

namespace bfsx::core {

/// Builds the identity half of a RunEvent and emits run_begin when a
/// sink is attached. The returned event is reused for run_end once the
/// totals are known. `G` is anything reporting num_vertices()/
/// num_edges() — CsrGraph or any EdgeCountedView (graph/view.h).
template <typename G>
obs::RunEvent trace_begin_run(obs::TraceSink* sink, std::string engine,
                              const G& g, graph::vid_t root) {
  obs::RunEvent e;
  e.engine = std::move(engine);
  e.root = root;
  e.num_vertices = g.num_vertices();
  e.num_edges = g.num_edges();
  if (sink != nullptr) sink->on_run_begin(e);
  return e;
}

/// Fills the totals of `e` from the finished run and emits run_end.
inline void trace_end_run(obs::TraceSink* sink, obs::RunEvent e,
                          const bfs::BfsResult& result, double seconds,
                          double comm_seconds, std::int32_t depth,
                          int direction_switches) {
  if (sink == nullptr) return;
  e.seconds = seconds;
  e.comm_seconds = comm_seconds;
  e.compute_seconds = seconds - comm_seconds;
  e.depth = depth;
  e.reached = result.reached;
  e.edges_in_component = result.edges_in_component;
  e.direction_switches = direction_switches;
  sink->on_run_end(e);
}

/// What a clock charged for one level it ran.
struct Charge {
  bfs::LevelStats stats;
  std::string_view device;  // where the level ran
  double compute_seconds = 0.0;
  /// Fabric time inside the level (dist's allreduce and exchange).
  double comm_seconds = 0.0;
  /// dist: max/mean of the per-device compute (1.0 = even).
  double balance = 1.0;
  /// What moving the frontier onto `device` costs. The run charges it
  /// only on a level whose device differs from the last one's — the
  /// handoff of Algorithm 3 line 11.
  double handoff_seconds = 0.0;
};

/// Wall time on this host: two steady_clock reads around the step of
/// any state — a BfsState or MS-BFS's lane state.
struct WallClock {
  template <typename G, typename State>
  Charge operator()(const G& g, State& state, const bfs::Frontier& f,
                    bfs::Decision d) const {
    const auto start = std::chrono::steady_clock::now();
    Charge c{step_level(g, state, f, d.direction), "host"};
    c.compute_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    return c;
  }
};

/// A simulated device (DESIGN.md §2): the step runs on the host, and
/// its counters are priced by `device`'s cost model, times `penalty`.
struct DeviceClock {
  const sim::Device& device;
  double penalty = 1.0;

  template <typename G>
  Charge operator()(const G& g, bfs::BfsState& state,
                    const bfs::Frontier& f, bfs::Decision d) const {
    Charge c{bfs::step_level(g, state, f, d.direction), device.name()};
    const bfs::LevelStats& s = c.stats;
    c.compute_seconds =
        (s.direction == bfs::Direction::kTopDown
             ? device.top_down_cost(s.frontier_edges)
             : device.bottom_up_cost(f.total_vertices, s.bu_edges_hit,
                                     s.bu_edges_miss)) *
        penalty;
    return c;
  }
};

/// Books the levels of one run, in level order. A level that moved to
/// another device is charged its clock's handoff_seconds first. With a
/// sink, each level is traced as a level event — preceded by a handoff
/// event when it moved — and `levels`, when given, also receives every
/// level event.
struct LevelLedger {
  obs::TraceSink* sink = nullptr;
  std::vector<obs::LevelEvent>* levels = nullptr;
  double charged = 0.0;     // compute and handoffs, in level order
  double handoffs = 0.0;    // the handoff share of `charged`
  double level_comm = 0.0;  // the levels' own comm share
  int device = 0;
  bfs::Direction previous = bfs::Direction::kTopDown;
  std::int32_t depth = 0;
  int direction_switches = 0;

  void book(const bfs::Frontier& f, bfs::Decision d, const Charge& c) {
    if (d.device != device) {
      device = d.device;
      charged += c.handoff_seconds;
      handoffs += c.handoff_seconds;
      if (sink != nullptr) {
        obs::LevelEvent handoff;
        handoff.kind = obs::LevelEvent::Kind::kHandoff;
        handoff.level = f.level;
        handoff.device = std::string(c.device);
        handoff.frontier_vertices = f.vertices;
        handoff.frontier_edges = f.edges;
        handoff.comm_seconds = c.handoff_seconds;
        sink->on_level(handoff);
      }
    }
    charged += c.compute_seconds;
    level_comm += c.comm_seconds;
    if (depth > 0 && c.stats.direction != previous) ++direction_switches;
    previous = c.stats.direction;
    ++depth;
    if (sink == nullptr && levels == nullptr) return;
    obs::LevelEvent e;
    e.level = c.stats.level;
    e.direction = c.stats.direction;
    e.device = std::string(c.device);
    e.frontier_vertices = c.stats.frontier_vertices;
    e.frontier_edges = c.stats.frontier_edges;
    e.bu_edges_hit = c.stats.bu_edges_hit;
    e.bu_edges_miss = c.stats.bu_edges_miss;
    e.next_vertices = c.stats.next_vertices;
    e.compute_seconds = c.compute_seconds;
    e.comm_seconds = c.comm_seconds;
    e.balance = c.balance;
    if (sink != nullptr) sink->on_level(e);
    if (levels != nullptr) levels->push_back(std::move(e));
  }

  /// Every charge: compute and handoffs in level order, the levels'
  /// comm share added last.
  [[nodiscard]] double seconds() const { return charged + level_comm; }
  /// The comm and handoff share of seconds().
  [[nodiscard]] double comm_seconds() const { return handoffs + level_comm; }
};

/// One run's totals.
struct Traversal {
  bfs::BfsResult result;
  double seconds = 0.0;       // every charge: compute, comm, handoffs
  double comm_seconds = 0.0;  // the comm and handoff share
  std::int32_t depth = 0;
  int direction_switches = 0;
};

/// Runs one traversal of `g` from `root` through bfs::traverse with
/// `policy` and `level_clock`, its levels booked by a LevelLedger. The
/// state is leased from `pool` when one is given. With a sink, the run
/// is traced as `engine`: run_begin, the ledger's events and run_end.
template <typename G, typename Policy, typename Clock>
Traversal run_traversal(const G& g, graph::vid_t root, const char* engine,
                        Policy&& policy, Clock&& level_clock,
                        obs::TraceSink* sink = nullptr,
                        bfs::StatePool* pool = nullptr,
                        std::vector<obs::LevelEvent>* levels = nullptr) {
  std::optional<bfs::StatePool::Lease> lease;
  std::optional<bfs::BfsState> local;
  bfs::BfsState& state =
      pool != nullptr ? *lease.emplace(pool->acquire(g.num_vertices(), root))
                      : local.emplace(g.num_vertices(), root);
  obs::RunEvent trace = trace_begin_run(sink, engine, g, root);

  LevelLedger ledger{sink, levels};
  bfs::traverse(g, state, policy,
                [&](const G& view, bfs::BfsState& s, const bfs::Frontier& f,
                    bfs::Decision d) {
                  ledger.book(f, d, level_clock(view, s, f, d));
                });
  Traversal run;
  run.seconds = ledger.seconds();
  run.comm_seconds = ledger.comm_seconds();
  run.depth = ledger.depth;
  run.direction_switches = ledger.direction_switches;
  run.result = std::move(state).take_result(g);
  trace_end_run(sink, std::move(trace), run.result, run.seconds,
                run.comm_seconds, run.depth, run.direction_switches);
  return run;
}

}  // namespace bfsx::core
