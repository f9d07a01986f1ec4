// Query traces: a replayable text workload for serve::QueryEngine.
//
// A trace is a line-oriented script, one operation per line:
//
//   bfs <src> [@engine]        full-traversal query
//   dist <src> <dst> [@engine] point-to-point distance query
//   reach <src> <dst> [@engine] reachability query
//   insert <u> <v>             buffer one edge insertion
//   remove <u> <v>             buffer one edge removal
//   publish                    publish buffered writes as a new epoch
//   # ...                      comment (blank lines are skipped)
//
// The optional trailing `@name` token pins an engine override (see
// serve::Query::engine). Traces are the serving subsystem's common
// currency: `bfsx serve --make-trace` generates one, `bfsx serve
// --replay` and bench_serve consume it, and CI replays a generated
// trace as its smoke test.
//
// generate_query_trace skews sources toward a small hot set of
// top-degree vertices — the access pattern of scale-free workloads,
// and the one the landmark cache (same top-degree selection) is built
// to serve.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "graph/csr.h"
#include "serve/query.h"

namespace bfsx::serve {

class QueryEngine;

struct TraceOp {
  enum class Kind { kQuery, kInsert, kRemove, kPublish };
  Kind kind = Kind::kQuery;
  Query query;            ///< kQuery only
  graph::vid_t u = 0;     ///< kInsert / kRemove only
  graph::vid_t v = 0;     ///< kInsert / kRemove only
};

/// Parses a trace; throws std::runtime_error naming the 1-based line
/// on malformed input.
[[nodiscard]] std::vector<TraceOp> load_trace(std::istream& in);
[[nodiscard]] std::vector<TraceOp> load_trace_file(const std::string& path);

/// Writes `ops` in the text format load_trace reads back.
void save_trace(const std::vector<TraceOp>& ops, std::ostream& out);
void save_trace_file(const std::vector<TraceOp>& ops,
                     const std::string& path);

struct TraceGenOptions {
  std::int64_t num_queries = 1000;
  /// Kind mix; the remainder after bfs + reach is distance queries.
  double bfs_fraction = 0.05;
  double reach_fraction = 0.25;
  /// Probability a query's source is drawn from the hot set (the
  /// `hot_set` highest-out-degree vertices) instead of uniformly.
  double hot_fraction = 0.5;
  int hot_set = 16;
  /// Every `insert_every` queries, append one edge insertion between
  /// two existing vertices (0 disables); every `remove_every`, the
  /// removal of an edge the base graph has (so removals actually bite
  /// — removing a random non-edge is a publish-time no-op); every
  /// `publish_every`, a publish op.
  std::int64_t insert_every = 0;
  std::int64_t remove_every = 0;
  std::int64_t publish_every = 0;
  std::uint64_t seed = 42;
};

/// Deterministic workload over `g` (same seed, same trace).
[[nodiscard]] std::vector<TraceOp> generate_query_trace(
    const graph::CsrGraph& g, const TraceGenOptions& opts);

/// One answer recorded by a replay, in query submission order. The
/// bfs_checksum folds a kBfs traversal's level map so two replays can
/// be compared cell-for-cell without keeping every map alive.
struct ReplayAnswer {
  bool ok = false;
  QueryKind kind = QueryKind::kDistance;
  std::int32_t distance = -1;
  bool reachable = false;
  std::uint64_t epoch = 0;
  std::uint64_t bfs_checksum = 0;
};

struct ReplaySummary {
  std::int64_t queries = 0;   ///< query ops submitted
  std::int64_t served = 0;    ///< resolved with an answer
  std::int64_t rejected = 0;
  std::int64_t cache_hits = 0;
  std::int64_t inserts = 0;
  std::int64_t removes = 0;
  std::int64_t publishes = 0;
  /// Per-served-query submit-to-answer latency, submission order.
  std::vector<double> latencies;
  /// Every query's recorded answer, submission order.
  std::vector<ReplayAnswer> answers;
  double wall_seconds = 0.0;
  /// Wall-clock spent inside publish_inserts() calls — the write
  /// path's end-to-end cost (graph publish + landmark re-arm), the
  /// number the churn bench curves.
  double publish_wall_seconds = 0.0;
};

/// FNV-1a digest of every field of `answers`, in order: equal digests
/// mean two replays answered every query identically.
[[nodiscard]] std::uint64_t answer_digest(
    const std::vector<ReplayAnswer>& answers);

/// Replays `ops` against a live engine: queries are submitted as fast
/// as the admission queue accepts (an open-loop client), insert /
/// remove / publish ops are applied inline from the replay thread, and
/// all futures are collected at the end.
ReplaySummary replay_trace(QueryEngine& engine,
                           const std::vector<TraceOp>& ops);

/// Like replay_trace, but waits for each query's answer before issuing
/// the next op, and records every answer. This pins each query to a
/// deterministic epoch (the open-loop client races publishes, so
/// query-to-epoch assignment is nondeterministic there) — it is how
/// bench_serve proves delta-epoch answers bit-equal to full-rebuild
/// answers over an identical trace. Throughput numbers from a lockstep
/// replay measure latency, not capacity.
ReplaySummary replay_trace_lockstep(QueryEngine& engine,
                                    const std::vector<TraceOp>& ops);

}  // namespace bfsx::serve
