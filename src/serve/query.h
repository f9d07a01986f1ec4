// Query model of the serving subsystem (serve::QueryEngine).
//
// Three query kinds, all answerable from one source-rooted traversal:
// a full BFS (parent + level maps, the library's classic output), a
// point-to-point distance, and a reachability test. Kinds without an
// engine override are *batch-compatible*: the scheduler coalesces them
// into one bit-parallel MS-BFS pass, up to 64 distinct sources per
// tick, because queries sharing an edge walk is the economics that
// makes a BFS server viable (BENCH_msbfs: ~3-6x aggregate TEPS).
// Queries naming an explicit engine are served alone, by a
// single-source traversal.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "bfs/state.h"
#include "graph/types.h"

namespace bfsx::serve {

enum class QueryKind {
  kBfs,           ///< full traversal: parent + level maps
  kDistance,      ///< level of `target` from `source` (-1 if unreached)
  kReachability,  ///< is `target` in `source`'s component?
};

[[nodiscard]] constexpr const char* to_string(QueryKind k) noexcept {
  switch (k) {
    case QueryKind::kBfs: return "bfs";
    case QueryKind::kDistance: return "dist";
    case QueryKind::kReachability: return "reach";
  }
  return "?";
}

struct Query {
  QueryKind kind = QueryKind::kDistance;
  graph::vid_t source = 0;
  /// Distance / reachability only; ignored by kBfs.
  graph::vid_t target = 0;
  /// Optional engine override (a graph500::EngineRegistry name, e.g.
  /// "native-td"). An unregistered name is rejected at admission; a
  /// registered one keeps the query out of MS-BFS lane batching, so it
  /// is served alone by the single-source M/N traversal, and names the
  /// tick's dispatch event. It does not pick the engine that answers:
  /// every engine reaches the same levels and parents.
  std::string engine;
};

/// Why a query was bounced at admission instead of being served.
enum class RejectReason {
  kNone,
  kQueueFull,       ///< bounded admission queue at capacity
  kInvalidVertex,   ///< source/target outside the current epoch's graph
  kUnknownEngine,   ///< engine override names no registered engine
  kShutdown,        ///< engine stopping; queued queries are drained out
};

[[nodiscard]] constexpr const char* to_string(RejectReason r) noexcept {
  switch (r) {
    case RejectReason::kNone: return "none";
    case RejectReason::kQueueFull: return "queue_full";
    case RejectReason::kInvalidVertex: return "invalid_vertex";
    case RejectReason::kUnknownEngine: return "unknown_engine";
    case RejectReason::kShutdown: return "shutdown";
  }
  return "?";
}

struct QueryResult {
  /// False iff rejected; `reject` then names the reason and every
  /// answer field below is meaningless.
  bool ok = false;
  RejectReason reject = RejectReason::kNone;

  QueryKind kind = QueryKind::kDistance;
  graph::vid_t source = 0;
  graph::vid_t target = 0;

  /// kDistance (and kReachability, as a byproduct): BFS level of
  /// `target`, -1 if unreached.
  std::int32_t distance = -1;
  bool reachable = false;
  /// kBfs only: the full parent/level maps. Shared because duplicate
  /// sources inside one batch are answered by the same MS-BFS lane.
  std::shared_ptr<const bfs::BfsResult> traversal;

  /// The graph epoch this answer was computed on. Concurrent streaming
  /// inserts never bleed into an answer: the whole batch pins one
  /// epoch (see serve::GraphEpochs).
  std::uint64_t epoch = 0;
  /// Answered from the landmark cache, without touching the graph.
  bool cache_hit = false;
  /// Distinct MS-BFS lanes of the pass that served it; 0 when served
  /// by a single-source engine or the cache.
  std::int32_t batch_lanes = 0;
  /// Submit-to-answer wall latency as measured by the engine.
  double latency_seconds = 0.0;
};

}  // namespace bfsx::serve
