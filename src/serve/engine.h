// serve::QueryEngine — a long-lived concurrent BFS query engine.
//
// The repo's kernels answer one traversal; this subsystem turns them
// into a server. A resident graph (epoch-snapshotted, see epochs.h)
// takes streams of BFS / distance / reachability queries:
//
//   submit() ── admission ──> bounded queue ──> scheduler tick ──> answer
//                 │  │                             │
//                 │  └ landmark cache: covered     ├ distance / reachability:
//                 │    distance queries answered   │   one bidirectional search
//                 │    at the door, no traversal   │   each, serial, on the
//                 │                                │   worker's own scratch
//                 └ reject-with-reason when the    └ bfs (and engine overrides):
//                   queue is full (backpressure      one wall-clock M/N
//                   the caller can see)              traversal per distinct
//                                                    source, its state leased
//                                                    from a StatePool
//
// Worker threads (std::thread) drain the queue in ticks of up to
// `batch_max` queries. A tick's only traversal runs on the worker's own
// OpenMP team; several run side by side, one tree per thread, on the
// worker and on helper threads started for the tick, as many threads
// as the team has. Admission, completion, cache hit/miss, and every dispatch
// are reported through obs::TraceSink::on_query; calls are serialised
// by the engine, so any sink works unsynchronised.
//
// Writes: insert_edge / remove_edge buffer, publish_inserts emits the
// next epoch — a DeltaCsr overlay sharing unchanged rows with its base
// when the policy allows (see epochs.h) — and re-arms the landmark
// cache, incrementally when the batch was insert-only (distances only
// decrease, so the old rows relax down; see landmark_cache.h) and from
// scratch when it removed edges. In-flight ticks keep serving the
// epoch they pinned — an answer is always bit-equal to reference_bfs
// on its own epoch's graph, never a blend.
//
// Labelling: the resident graph is built with its vertices relabelled
// by descending degree (graph/reorder.h), so hubs come first in every
// in-row a bottom-up level scans. Every id behind this API is internal
// — epochs, overlays, the landmark cache, pair scratch, pooled states —
// and ids are mapped only here: in for queries, writes and the repair
// log, out for trees. Ids past the initial vertex count map to
// themselves, so vertex-set growth extends the relabelling as the
// identity. Callers see their own ids only; distances do not depend on
// labels, and a tree's parents are the frontier in-neighbours with the
// smallest internal id.
#pragma once

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bfs/pair_distance.h"
#include "bfs/state_pool.h"
#include "core/hybrid_policy.h"
#include "graph/reorder.h"
#include "graph500/engine_registry.h"
#include "obs/registry.h"
#include "obs/sink.h"
#include "serve/epochs.h"
#include "serve/landmark_cache.h"
#include "serve/query.h"

namespace bfsx::serve {

/// The most queries one scheduler tick takes.
inline constexpr int kMaxTickQueries = 64;

struct ServeOptions {
  /// Worker threads draining the admission queue.
  int workers = 2;
  /// Admission-queue bound; a submit beyond it rejects kQueueFull.
  std::size_t queue_capacity = 1024;
  /// Queries one scheduler tick takes from the queue (clamped to
  /// [1, kMaxTickQueries]). A tick answers each query on its own, so
  /// this bounds how long a tick holds its worker, not how much work
  /// its queries share; only bfs queries of one source share a
  /// traversal.
  int batch_max = kMaxTickQueries;
  /// Landmark cache on the admission path (rebuilt per epoch).
  bool cache_enabled = true;
  int num_landmarks = 16;
  /// M/N direction rule of the single-source traversals.
  core::HybridPolicy policy{};
  /// Optional, non-owning; must outlive the engine. Receives on_query
  /// stage events (serialised). Per-level run tracing stays off in the
  /// server — concurrent workers would interleave run brackets.
  obs::TraceSink* sink = nullptr;
  /// Construct with the scheduler paused (tests/benches submit a full
  /// workload first, then resume() — guarantees maximal coalescing).
  bool start_paused = false;
  /// Publish policy (epochs.h): delta overlays vs full rebuilds, and
  /// the patched-row fraction at which an overlay folds back flat.
  bool delta_publish = true;
  double compact_threshold = 0.25;
  /// Incremental landmark re-arm after insert-only publishes; false
  /// rebuilds the cache from scratch every publish (the baseline
  /// bench_serve's repair column compares against).
  bool repair_cache = true;
};

/// Monotonic engine counters; snapshot via QueryEngine::stats().
struct ServeStats {
  std::int64_t submitted = 0;         // admitted into the queue
  std::int64_t rejected_full = 0;
  std::int64_t rejected_invalid = 0;  // bad vertex or unknown engine
  std::int64_t rejected_shutdown = 0;
  std::int64_t served = 0;            // completed with an answer
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;      // cacheable but uncovered
  std::int64_t dispatches = 0;        // scheduler ticks that ran
  std::int64_t pair_queries = 0;      // answered by bidirectional search
  std::int64_t traversals = 0;        // single-source traversals run
  std::int64_t max_batch = 0;         // largest tick
  std::int64_t edges_inserted = 0;
  std::int64_t edges_removed = 0;
  std::int64_t epochs_published = 0;
  std::int64_t delta_publishes = 0;   // epochs published as overlays
  std::int64_t full_publishes = 0;    // epochs folded to a flat CSR
  std::int64_t cache_repairs = 0;     // landmark re-arms done in place
  std::int64_t cache_rebuilds = 0;    // landmark re-arms from scratch
};

class QueryEngine {
 public:
  /// Relabels `edges` by descending degree, builds epoch 0 from them
  /// and starts the worker pool. Throws std::invalid_argument when
  /// `opts.policy` has M or N below 1.
  explicit QueryEngine(graph::EdgeList edges, ServeOptions opts = {});
  ~QueryEngine();  // shutdown(): pending queries reject kShutdown

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Admits `q` or rejects it immediately. Always returns a valid
  /// future: rejected queries resolve at once with ok = false, served
  /// ones when a worker answers. Thread-safe.
  [[nodiscard]] std::future<QueryResult> submit(Query q);

  /// Buffers one edge insertion; invisible until publish_inserts().
  /// Writer side is single-threaded (one control thread), like
  /// GraphEpochs.
  void insert_edge(graph::vid_t u, graph::vid_t v);

  /// Buffers one edge removal; invisible until publish_inserts().
  /// Removing an absent edge is a publish-time no-op. Any removal in a
  /// batch forces the landmark cache to rebuild from scratch (repair
  /// is insert-only).
  void remove_edge(graph::vid_t u, graph::vid_t v);

  /// Publishes buffered writes as the next epoch (delta or flat, per
  /// ServeOptions) and re-arms the landmark cache — repaired in place
  /// for insert-only batches, rebuilt otherwise. Queries already
  /// dispatched keep their pinned epoch. Returns the new epoch id.
  std::uint64_t publish_inserts();

  /// Blocks until the queue is empty and no batch is in flight.
  /// Requires a running (not paused) scheduler.
  void drain();

  /// Pause/resume the scheduler (admission stays open). See
  /// ServeOptions::start_paused.
  void pause();
  void resume();

  /// Stops the scheduler: queued-but-unserved queries resolve with
  /// kShutdown, workers join. Idempotent; the destructor calls it.
  void shutdown();

  /// Epoch and publish health for dashboards: live/retired epoch
  /// counts, pending write-buffer depths, per-kind publish counters,
  /// cumulative repair work, and a log-scale publish-duration
  /// histogram ("serve.publish.le_<bound>" bucket counters plus the
  /// "serve.publish" timer). Counters are written as absolute values
  /// into a caller-owned registry snapshot; the registry is not
  /// thread-safe, so call this from the control thread.
  void export_metrics(obs::Registry& registry) const;

  /// Repair stats of the most recent incremental cache re-arm (zeroes
  /// until one happens).
  [[nodiscard]] RepairStats last_repair() const;

  [[nodiscard]] ServeStats stats() const;
  [[nodiscard]] std::uint64_t current_epoch() const;
  [[nodiscard]] graph::vid_t num_vertices() const;
  /// The resident graph's epochs, in internal ids.
  [[nodiscard]] GraphEpochs& epochs() noexcept { return epochs_; }
  [[nodiscard]] const bfs::StatePool& state_pool() const noexcept {
    return pool_;
  }

 private:
  struct Pending {
    Query query;
    std::promise<QueryResult> promise;
    std::chrono::steady_clock::time_point enqueued;
    std::int64_t id = 0;
  };

  void worker_loop();
  void serve_tick(std::vector<Pending> batch, bfs::PairScratch& scratch);
  void serve_pairs(std::vector<Pending> points, const GraphEpochs::Pin& pin,
                   bfs::PairScratch& scratch);
  void serve_traversals(std::vector<std::vector<Pending>> groups,
                        const GraphEpochs::Pin& pin);
  void finish(Pending pending, QueryResult result);
  void emit(const obs::QueryEvent& e);
  void rebuild_cache();
  void rearm_cache(const std::vector<graph::Edge>& inserted,
                   bool had_removes, std::uint64_t epoch);

  ServeOptions opts_;
  /// External (caller) ids to internal ones and back; built from the
  /// edge list before epoch 0, so declared before epochs_.
  graph::Relabelling ids_;
  GraphEpochs epochs_;
  bfs::StatePool pool_;
  graph500::EngineRegistry registry_;

  mutable std::mutex mu_;  // queue_, stats_, cache_, flags
  std::condition_variable cv_work_;
  std::condition_variable cv_idle_;
  std::deque<Pending> queue_;
  std::shared_ptr<const LandmarkCache> cache_;
  ServeStats stats_;
  RepairStats last_repair_;
  /// Writer-side log of buffered inserts since the last publish, in
  /// internal ids — the seed list for landmark repair. Raw (pre-dedup)
  /// is fine: duplicate seeds relax to no-ops.
  std::vector<graph::Edge> pending_insert_log_;
  bool pending_had_removes_ = false;
  /// Publish-duration histogram: log-scale upper bounds
  /// {1ms, 10ms, 100ms, 1s, 10s, +inf}, counts per bucket.
  std::array<std::int64_t, 6> publish_hist_{};
  double publish_seconds_total_ = 0.0;
  int in_flight_ = 0;
  bool paused_ = false;
  bool stopping_ = false;
  std::int64_t next_id_ = 0;

  std::mutex sink_mu_;  // serialises on_query emission

  std::vector<std::thread> workers_;
};

}  // namespace bfsx::serve
