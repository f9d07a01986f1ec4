// Observability event types: the unified per-level / per-run records
// every engine family emits through a TraceSink (obs/sink.h).
//
// The paper's contribution rests on per-level work counters — |V|cq,
// |E|cq, bottom-up hit/miss scans — but before this subsystem those
// numbers escaped the engines only through printf and four
// incompatible result structs (TimedBfs, CombinationRun, LevelTrace,
// the dist per-superstep outcomes). LevelEvent is the superset record
// all of them map onto, so one consumer (a JSONL file, a test, a
// dashboard) can observe any engine. The serialized schema is
// versioned (kTraceSchema); see README "Observability" for the field
// table.
#pragma once

#include <cstdint>
#include <string>

#include "graph/types.h"

namespace bfsx::obs {

/// Version tag stamped on every serialized trace line. Bump when a
/// field changes meaning; add-only changes keep the version.
inline constexpr const char* kTraceSchema = "bfsx.trace.v1";

/// One traversal (one root). Emitted twice per run: on_run_begin with
/// the identity fields filled, on_run_end with the totals added.
struct RunEvent {
  std::string engine;            // registry name, e.g. "hybrid", "dist"
  graph::vid_t root = 0;
  graph::vid_t num_vertices = 0;
  graph::eid_t num_edges = 0;    // directed CSR edge count

  // Totals — populated only for on_run_end.
  double seconds = 0.0;          // modelled or wall, engine-dependent
  double compute_seconds = 0.0;  // seconds minus interconnect share
  double comm_seconds = 0.0;     // transfer / fabric share
  std::int32_t depth = 0;        // levels expanded
  graph::vid_t reached = 0;
  graph::eid_t edges_in_component = 0;
  int direction_switches = 0;
};

/// One expanded level — or, for kHandoff, the cross-architecture
/// frontier shipment between two levels (Algorithm 3 line 11), which
/// has no work counters but does cost wire time.
struct LevelEvent {
  enum class Kind { kLevel, kHandoff };

  Kind kind = Kind::kLevel;
  std::int32_t level = 0;        // the level being expanded
  graph::Direction direction = graph::Direction::kTopDown;
  std::string device;            // executing device (handoff: the target)

  // The M/N policy's decision inputs for this level (|V|cq, |E|cq; the
  // graph totals they are tested against live in the RunEvent).
  graph::vid_t frontier_vertices = 0;  // |V|cq
  graph::eid_t frontier_edges = 0;     // |E|cq
  graph::eid_t bu_edges_hit = 0;       // bottom-up scan, successful part
  graph::eid_t bu_edges_miss = 0;      // bottom-up scan, failed part
  graph::vid_t next_vertices = 0;

  double compute_seconds = 0.0;  // modelled or wall
  double comm_seconds = 0.0;     // handoff transfer / dist fabric time
  /// Distributed only: max/mean of per-device compute (1.0 = even).
  double balance = 1.0;
};

[[nodiscard]] constexpr const char* to_string(LevelEvent::Kind k) noexcept {
  return k == LevelEvent::Kind::kLevel ? "level" : "handoff";
}

/// One query-engine lifecycle stage (src/serve). A query is admitted
/// (kEnqueue) or bounced at the door (kReject); a scheduler tick
/// coalesces admitted queries into one dispatch (kDispatch, the only
/// batch-scoped stage — query_id is -1); each query completes
/// (kComplete) with its submit-to-answer latency. Distance queries
/// additionally report whether the landmark cache short-circuited them
/// (kCacheHit — answered without touching the graph) or passed them
/// through to the queue (kCacheMiss).
struct QueryEvent {
  enum class Stage {
    kEnqueue,
    kReject,
    kDispatch,
    kComplete,
    kCacheHit,
    kCacheMiss,
  };

  Stage stage = Stage::kEnqueue;
  std::int64_t query_id = -1;    // engine-assigned; -1 for kDispatch
  /// Stage-dependent detail: the query kind for enqueue/complete, the
  /// rejection reason for kReject, the dispatch path for kDispatch:
  /// "pair" for the tick's point queries (bidirectional search), or the
  /// engine name of its single-source traversals.
  std::string detail;
  std::uint64_t epoch = 0;       // graph epoch the stage observed
  std::int32_t batch_size = 0;   // kDispatch: queries coalesced this tick
  /// kDispatch: always 0, since serve ticks run no MS-BFS. The field
  /// stays only because perfbench's span attribution reads it to tell
  /// MS-BFS passes from other dispatches (perfbench/stats.cc), until
  /// the next benchmark change drops that reading.
  std::int32_t lanes = 0;
  double seconds = 0.0;          // kComplete: submit -> answer latency
};

[[nodiscard]] constexpr const char* to_string(QueryEvent::Stage s) noexcept {
  switch (s) {
    case QueryEvent::Stage::kEnqueue: return "enqueue";
    case QueryEvent::Stage::kReject: return "reject";
    case QueryEvent::Stage::kDispatch: return "dispatch";
    case QueryEvent::Stage::kComplete: return "complete";
    case QueryEvent::Stage::kCacheHit: return "cache_hit";
    case QueryEvent::Stage::kCacheMiss: return "cache_miss";
  }
  return "?";
}

}  // namespace bfsx::obs
