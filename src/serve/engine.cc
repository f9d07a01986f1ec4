#include "serve/engine.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <system_error>
#include <utility>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "graph500/native_engine.h"

namespace bfsx::serve {
namespace {

using clock = std::chrono::steady_clock;

double seconds_between(clock::time_point from, clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

QueryResult skeleton(const Query& q) {
  QueryResult r;
  r.kind = q.kind;
  r.source = q.source;
  r.target = q.target;
  return r;
}

/// Answers a kBfs query with its source's whole traversal.
void answer_tree(QueryResult& r,
                 std::shared_ptr<const bfs::BfsResult> traversal) {
  r.ok = true;
  r.traversal = std::move(traversal);
  r.reachable = true;
  r.distance = 0;
}

/// Answers a distance or reachability query with its target's level.
void answer_cell(QueryResult& r, std::int32_t distance) {
  r.ok = true;
  r.distance = distance;
  r.reachable = distance >= 0;
}

/// The publish-duration histogram's log-scale upper bounds (seconds);
/// the last bucket is +inf.
constexpr std::array<double, 5> kPublishBounds = {0.001, 0.01, 0.1, 1.0,
                                                  10.0};

std::size_t publish_bucket(double seconds) {
  for (std::size_t i = 0; i < kPublishBounds.size(); ++i) {
    if (seconds <= kPublishBounds[i]) return i;
  }
  return kPublishBounds.size();
}

/// Threads a parallel region opened on this thread would get.
std::size_t team_size() {
#ifdef _OPENMP
  return static_cast<std::size_t>(std::max(1, omp_get_max_threads()));
#else
  return 1;
#endif
}

/// Holds the OpenMP regions this thread opens to one thread while it
/// lives, so a traversal's level loops run on their caller alone.
class OneThreadRegions {
 public:
  OneThreadRegions() {
#ifdef _OPENMP
    saved_ = omp_get_max_threads();
    omp_set_num_threads(1);
#endif
  }
  ~OneThreadRegions() {
#ifdef _OPENMP
    omp_set_num_threads(saved_);
#endif
  }
  OneThreadRegions(const OneThreadRegions&) = delete;
  OneThreadRegions& operator=(const OneThreadRegions&) = delete;

 private:
  int saved_ = 1;
};

}  // namespace

QueryEngine::QueryEngine(graph::EdgeList edges, ServeOptions opts)
    : opts_(std::move(opts)),
      epochs_(std::move(edges),
              EpochOptions{.build = {},
                           .delta_publish = opts_.delta_publish,
                           .compact_threshold = opts_.compact_threshold}),
      registry_(graph500::EngineRegistry::with_builtin_engines()) {
  opts_.policy.validate();
  opts_.workers = std::max(opts_.workers, 1);
  opts_.batch_max = std::clamp(opts_.batch_max, 1, kMaxTickQueries);
  paused_ = opts_.start_paused;
  rebuild_cache();
  workers_.reserve(static_cast<std::size_t>(opts_.workers));
  for (int i = 0; i < opts_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

QueryEngine::~QueryEngine() { shutdown(); }

std::future<QueryResult> QueryEngine::submit(Query q) {
  const auto now = clock::now();
  std::promise<QueryResult> reject_promise;
  std::future<QueryResult> reject_future = reject_promise.get_future();

  const auto reject = [&](RejectReason why) {
    QueryResult r = skeleton(q);
    r.reject = why;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (why == RejectReason::kQueueFull) {
        ++stats_.rejected_full;
      } else if (why == RejectReason::kShutdown) {
        ++stats_.rejected_shutdown;
      } else {
        ++stats_.rejected_invalid;
      }
    }
    obs::QueryEvent e;
    e.stage = obs::QueryEvent::Stage::kReject;
    e.detail = to_string(why);
    emit(e);
    reject_promise.set_value(std::move(r));
    return std::move(reject_future);
  };

  // Admission validation against the newest epoch. Vertex ids only
  // grow across epochs, so an id valid now stays valid for whichever
  // (equal or newer) epoch the batch eventually pins.
  const graph::vid_t n = epochs_.current_num_vertices();
  const bool needs_target = q.kind != QueryKind::kBfs;
  if (q.source < 0 || q.source >= n ||
      (needs_target && (q.target < 0 || q.target >= n))) {
    return reject(RejectReason::kInvalidVertex);
  }
  if (!q.engine.empty() && registry_.find(q.engine) == nullptr) {
    return reject(RejectReason::kUnknownEngine);
  }

  std::int64_t id = 0;
  const QueryKind kind = q.kind;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (stopping_) {
      lock.unlock();
      return reject(RejectReason::kShutdown);
    }
    // Landmark-cache fast path: a covered distance/reachability query
    // is answered at the door, never entering the queue. The epoch tag
    // guards the rebuild window after a publish — a stale cache is a
    // miss, not a wrong answer.
    const bool cacheable = opts_.cache_enabled && q.engine.empty() &&
                           q.kind != QueryKind::kBfs && cache_ != nullptr &&
                           cache_->epoch() == epochs_.current_epoch();
    if (cacheable) {
      if (const auto hit = cache_->distance(q.source, q.target)) {
        ++stats_.cache_hits;
        ++stats_.served;
        const std::uint64_t epoch = cache_->epoch();
        lock.unlock();
        QueryResult r = skeleton(q);
        r.ok = true;
        r.distance = *hit;
        r.reachable = *hit >= 0;
        r.epoch = epoch;
        r.cache_hit = true;
        r.latency_seconds = seconds_between(now, clock::now());
        obs::QueryEvent e;
        e.stage = obs::QueryEvent::Stage::kCacheHit;
        e.detail = to_string(q.kind);
        e.epoch = epoch;
        emit(e);
        e.stage = obs::QueryEvent::Stage::kComplete;
        e.seconds = r.latency_seconds;
        emit(e);
        reject_promise.set_value(std::move(r));
        return reject_future;
      }
      ++stats_.cache_misses;
    }
    if (queue_.size() >= opts_.queue_capacity) {
      lock.unlock();
      return reject(RejectReason::kQueueFull);
    }
    id = next_id_++;
    Pending p;
    p.query = std::move(q);
    p.promise = std::move(reject_promise);
    p.enqueued = now;
    p.id = id;
    queue_.push_back(std::move(p));
    ++stats_.submitted;
  }
  cv_work_.notify_one();
  obs::QueryEvent e;
  e.stage = obs::QueryEvent::Stage::kEnqueue;
  e.query_id = id;
  e.detail = to_string(kind);
  // Stamp the epoch the query was admitted against; the dispatch /
  // complete events carry the (equal or newer) epoch it was answered
  // on, so a trace shows exactly how admission and service interleave
  // with publishes.
  e.epoch = epochs_.current_epoch();
  emit(e);
  return reject_future;
}

void QueryEngine::insert_edge(graph::vid_t u, graph::vid_t v) {
  epochs_.buffer_insert(u, v);
  const std::lock_guard<std::mutex> lock(mu_);
  pending_insert_log_.push_back({u, v});
  ++stats_.edges_inserted;
}

void QueryEngine::remove_edge(graph::vid_t u, graph::vid_t v) {
  epochs_.buffer_remove(u, v);
  const std::lock_guard<std::mutex> lock(mu_);
  pending_had_removes_ = true;
  ++stats_.edges_removed;
}

std::uint64_t QueryEngine::publish_inserts() {
  std::vector<graph::Edge> inserted;
  bool had_removes = false;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    inserted.swap(pending_insert_log_);
    had_removes = pending_had_removes_;
    pending_had_removes_ = false;
  }
  const std::uint64_t epoch = epochs_.publish();
  const PublishInfo info = epochs_.last_publish();
  rearm_cache(inserted, had_removes, epoch);
  const std::lock_guard<std::mutex> lock(mu_);
  ++stats_.epochs_published;
  if (info.delta) {
    ++stats_.delta_publishes;
  } else {
    ++stats_.full_publishes;
  }
  publish_seconds_total_ += info.seconds;
  ++publish_hist_[publish_bucket(info.seconds)];
  return epoch;
}

void QueryEngine::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_idle_.wait(lock, [&] {
    return stopping_ || (queue_.empty() && in_flight_ == 0);
  });
}

void QueryEngine::pause() {
  const std::lock_guard<std::mutex> lock(mu_);
  paused_ = true;
}

void QueryEngine::resume() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
  }
  cv_work_.notify_all();
}

void QueryEngine::shutdown() {
  std::deque<Pending> orphans;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    orphans.swap(queue_);
    stats_.rejected_shutdown += static_cast<std::int64_t>(orphans.size());
  }
  cv_work_.notify_all();
  cv_idle_.notify_all();
  for (Pending& p : orphans) {
    QueryResult r = skeleton(p.query);
    r.reject = RejectReason::kShutdown;
    obs::QueryEvent e;
    e.stage = obs::QueryEvent::Stage::kReject;
    e.query_id = p.id;
    e.detail = to_string(RejectReason::kShutdown);
    emit(e);
    p.promise.set_value(std::move(r));
  }
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
}

ServeStats QueryEngine::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::uint64_t QueryEngine::current_epoch() const {
  return epochs_.current_epoch();
}

graph::vid_t QueryEngine::num_vertices() const {
  return epochs_.current_num_vertices();
}

void QueryEngine::worker_loop() {
  bfs::PairScratch scratch;  // this worker's, reused by every tick
  for (;;) {
    std::vector<Pending> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_work_.wait(lock, [&] {
        return stopping_ || (!paused_ && !queue_.empty());
      });
      if (stopping_) return;  // shutdown() already resolved the queue
      // One scheduler tick: an engine-override query goes out alone;
      // otherwise take up to batch_max queries without one.
      const auto cap = static_cast<std::size_t>(opts_.batch_max);
      if (!queue_.front().query.engine.empty()) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      } else {
        while (!queue_.empty() && batch.size() < cap &&
               queue_.front().query.engine.empty()) {
          batch.push_back(std::move(queue_.front()));
          queue_.pop_front();
        }
      }
      ++in_flight_;
      ++stats_.dispatches;
      stats_.max_batch =
          std::max(stats_.max_batch, static_cast<std::int64_t>(batch.size()));
    }
    serve_tick(std::move(batch), scratch);
    {
      const std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

void QueryEngine::serve_tick(std::vector<Pending> batch,
                             bfs::PairScratch& scratch) {
  // The whole tick answers on one pinned epoch: inserts published
  // while the tick runs target the next epoch and cannot bleed in.
  const GraphEpochs::Pin pin = epochs_.pin();
  std::vector<std::vector<Pending>> trees;
  if (!batch.front().query.engine.empty()) {  // alone in its tick
    trees.push_back(std::move(batch));
    serve_traversals(std::move(trees), pin);
    return;
  }
  // Point queries first: a bidirectional search takes microseconds, a
  // traversal milliseconds. bfs queries of one source share one tree.
  std::vector<Pending> points;
  for (Pending& p : batch) {
    if (p.query.kind != QueryKind::kBfs) {
      points.push_back(std::move(p));
      continue;
    }
    const auto group =
        std::find_if(trees.begin(), trees.end(), [&](const auto& t) {
          return t.front().query.source == p.query.source;
        });
    if (group != trees.end()) {
      group->push_back(std::move(p));
    } else {
      trees.emplace_back().push_back(std::move(p));
    }
  }
  if (!points.empty()) serve_pairs(std::move(points), pin, scratch);
  if (!trees.empty()) serve_traversals(std::move(trees), pin);
}

void QueryEngine::serve_pairs(std::vector<Pending> points,
                              const GraphEpochs::Pin& pin,
                              bfs::PairScratch& scratch) {
  obs::QueryEvent e;
  e.stage = obs::QueryEvent::Stage::kDispatch;
  e.detail = "pair";
  e.epoch = pin.epoch();
  e.batch_size = static_cast<std::int32_t>(points.size());
  e.lanes = 0;
  emit(e);

  std::vector<QueryResult> results;
  results.reserve(points.size());
  try {
    pin.graph().visit([&](const auto& g) {
      for (const Pending& p : points) {
        QueryResult r = skeleton(p.query);
        r.epoch = pin.epoch();
        answer_cell(r, bfs::pair_distance(g, p.query.source, p.query.target,
                                          scratch));
        results.push_back(std::move(r));
      }
    });
  } catch (...) {
    for (Pending& p : points) {
      p.promise.set_exception(std::current_exception());
    }
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stats_.served += static_cast<std::int64_t>(points.size());
    stats_.pair_queries += static_cast<std::int64_t>(points.size());
  }
  for (std::size_t i = 0; i < points.size(); ++i) {
    finish(std::move(points[i]), std::move(results[i]));
  }
}

void QueryEngine::serve_traversals(std::vector<std::vector<Pending>> groups,
                                   const GraphEpochs::Pin& pin) {
  obs::QueryEvent e;
  e.stage = obs::QueryEvent::Stage::kDispatch;
  e.detail = groups.front().front().query.engine.empty()
                 ? "native-hybrid"
                 : groups.front().front().query.engine;
  e.epoch = pin.epoch();
  e.batch_size = 0;
  for (const std::vector<Pending>& group : groups) {
    e.batch_size += static_cast<std::int32_t>(group.size());
  }
  e.lanes = 0;
  emit(e);

  // One traversal per source. A tick's only tree runs on the worker's
  // OpenMP team. Several run side by side on as many threads as the
  // team has: the worker and helper threads started for the tick, each
  // taking the next tree and running it on its own thread alone.
  // They do not share the team: its pooled threads spin about 10 ms
  // between regions, so a team kept busy tick after tick never sleeps
  // and keeps the CPUs it first woke on, even when one woke on its
  // worker's CPU, and serve's throughput then swung from run to run
  // (DESIGN §10). A helper is placed on an idle CPU when it starts.
  //
  // Flat and delta epochs alike run the wall-clock M/N loop; every
  // engine reaches the same levels and parents, so an override changes
  // only the dispatch event's name.
  std::vector<std::shared_ptr<const bfs::BfsResult>> trees(groups.size());
  std::vector<std::exception_ptr> errors(groups.size());
  const auto traverse = [&](std::size_t k) {
    try {
      trees[k] = std::make_shared<const bfs::BfsResult>(
          pin.graph().visit([&](const auto& g) {
            return graph500::run_native(g, groups[k].front().query.source,
                                        "native-hybrid", opts_.policy,
                                        nullptr, &pool_)
                .result;
          }));
    } catch (...) {
      errors[k] = std::current_exception();
    }
  };
  const std::size_t threads = std::min(groups.size(), team_size());
  if (threads == 1) {
    for (std::size_t k = 0; k < groups.size(); ++k) traverse(k);
  } else {
    std::atomic<std::size_t> next{0};
    const auto take_trees = [&] {
      const OneThreadRegions one_thread;
      for (std::size_t k = next++; k < groups.size(); k = next++) {
        traverse(k);
      }
    };
    std::vector<std::thread> helpers;
    for (std::size_t i = 1; i < threads; ++i) {
      try {
        helpers.emplace_back(take_trees);
      } catch (const std::system_error&) {
        break;  // the threads already started take the rest
      }
    }
    take_trees();
    for (std::thread& helper : helpers) helper.join();
  }

  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t k = 0; k < groups.size(); ++k) {
      if (errors[k]) continue;
      stats_.served += static_cast<std::int64_t>(groups[k].size());
      ++stats_.traversals;
    }
  }
  for (std::size_t k = 0; k < groups.size(); ++k) {
    for (Pending& p : groups[k]) {
      if (errors[k]) {
        p.promise.set_exception(errors[k]);
        continue;
      }
      QueryResult r = skeleton(p.query);
      r.epoch = pin.epoch();
      if (r.kind == QueryKind::kBfs) {
        answer_tree(r, trees[k]);
      } else {
        answer_cell(r, trees[k]->level[static_cast<std::size_t>(r.target)]);
      }
      finish(std::move(p), std::move(r));
    }
  }
}

void QueryEngine::finish(Pending pending, QueryResult result) {
  result.latency_seconds = seconds_between(pending.enqueued, clock::now());
  obs::QueryEvent e;
  e.stage = obs::QueryEvent::Stage::kComplete;
  e.query_id = pending.id;
  e.detail = to_string(result.kind);
  e.epoch = result.epoch;
  e.seconds = result.latency_seconds;
  emit(e);
  pending.promise.set_value(std::move(result));
}

void QueryEngine::emit(const obs::QueryEvent& e) {
  if (opts_.sink == nullptr) return;
  const std::lock_guard<std::mutex> lock(sink_mu_);
  opts_.sink->on_query(e);
}

void QueryEngine::rebuild_cache() {
  if (!opts_.cache_enabled) return;
  const GraphEpochs::Pin pin = epochs_.pin();
  auto fresh =
      std::make_shared<const LandmarkCache>(pin.graph().visit([&](const auto& g) {
        return LandmarkCache::build(g, pin.epoch(), opts_.num_landmarks);
      }));
  const std::lock_guard<std::mutex> lock(mu_);
  cache_ = std::move(fresh);
  ++stats_.cache_rebuilds;
}

void QueryEngine::rearm_cache(const std::vector<graph::Edge>& inserted,
                              bool had_removes, std::uint64_t epoch) {
  if (!opts_.cache_enabled) return;
  std::shared_ptr<const LandmarkCache> old;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    old = cache_;
  }
  // Repair is sound only for the exact insert-only step from the
  // cache's epoch to this one: removals can grow distances (repair
  // only shrinks them), and an epoch gap means this batch is not the
  // whole difference. Everything else falls back to a full rebuild.
  const bool repairable = opts_.repair_cache && !had_removes &&
                          old != nullptr && old->epoch() + 1 == epoch &&
                          !old->landmarks().empty();
  if (!repairable) {
    rebuild_cache();
    return;
  }
  const GraphEpochs::Pin pin = epochs_.pin();
  RepairStats rs;
  auto fresh =
      std::make_shared<const LandmarkCache>(pin.graph().visit([&](const auto& g) {
        return old->repaired(g, inserted, epoch, &rs);
      }));
  const std::lock_guard<std::mutex> lock(mu_);
  cache_ = std::move(fresh);
  last_repair_ = rs;
  ++stats_.cache_repairs;
}

RepairStats QueryEngine::last_repair() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return last_repair_;
}

void QueryEngine::export_metrics(obs::Registry& registry) const {
  registry.add("serve.epochs.live",
               static_cast<std::int64_t>(epochs_.live_epochs()));
  registry.add("serve.epochs.retired",
               static_cast<std::int64_t>(epochs_.retired_epochs()));
  registry.add("serve.epochs.pending_inserts",
               static_cast<std::int64_t>(epochs_.pending_inserts()));
  registry.add("serve.epochs.pending_removes",
               static_cast<std::int64_t>(epochs_.pending_removes()));
  const std::lock_guard<std::mutex> lock(mu_);
  registry.add("serve.publish.delta", stats_.delta_publishes);
  registry.add("serve.publish.full", stats_.full_publishes);
  registry.add("serve.cache.repairs", stats_.cache_repairs);
  registry.add("serve.cache.rebuilds", stats_.cache_rebuilds);
  registry.add("serve.cache.repair.seeds",
               static_cast<std::int64_t>(last_repair_.seeds));
  registry.add("serve.cache.repair.relaxed",
               static_cast<std::int64_t>(last_repair_.relaxed));
  registry.record_seconds("serve.publish", publish_seconds_total_);
  constexpr std::array<const char*, 6> kBucketNames = {
      "serve.publish.le_1ms", "serve.publish.le_10ms",
      "serve.publish.le_100ms", "serve.publish.le_1s",
      "serve.publish.le_10s", "serve.publish.le_inf"};
  for (std::size_t i = 0; i < kBucketNames.size(); ++i) {
    registry.add(kBucketNames[i], publish_hist_[i]);
  }
}

}  // namespace bfsx::serve
