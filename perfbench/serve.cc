// Workloads serve_read and serve_churn: serve::QueryEngine under open-
// and closed-loop query traffic, without and with concurrent writes.
//
// A scale-18 R-MAT graph is resident in a default QueryEngine (2
// workers, batch_max 64, 16 landmarks); run.py gives each worker's
// OpenMP team 2 threads. One generator thread replays a
// serve::generate_query_trace stream (bfs 5%, reach 25%, dist 70%, hot
// fraction 0.3) in two phases: an open loop with Poisson arrivals at
// kOpenRate for kOpenShare of the measured seconds, then a closed loop
// with kOutstanding queries in flight for the rest.
//
// The end-to-end throughput and latency come from the closed loop. The
// open loop's latency, measured from each query's due time, is reported
// per layer: coalescing amplifies every change in the host's speed into
// a larger change in queueing, and on a shared 4-core host its spread
// over ten seeds (0.27-0.38 of the median) exceeded any usable bound.
// The closed-loop latency counts only the queries the server traversed.
// Cache hits answer inside submit in microseconds; mixed in, they put
// the median on whichever quantile of the traversal latencies the hit
// share selects, and under churn that share moves with how long each
// rebuild leaves the cache stale.
//
// serve_churn adds a writer thread publishing a write batch every
// kPublishEvery, through both phases. One batch in kRemovesEvery is half
// inserts, half removes (the landmark cache is rebuilt); the others are
// insert-only (the cache is repaired in place).
//
// Output check: a seeded sample of answers on chosen epochs (epoch 0;
// for serve_churn also one epoch after a repaired cache and one after a
// rebuilt one, both delta epochs) is compared with
// graph500::reference_bfs on that epoch's graph, which the benchmark
// rebuilds from the base edge list and the batches it published. The
// sample covers cache hits, traversed dist/reach answers and full bfs
// answers, whose trees also go through bfs::validate_bfs.
#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bench.h"
#include "bfs/validate.h"
#include "graph/builder.h"
#include "graph/prng.h"
#include "graph/rmat.h"
#include "graph500/reference_bfs.h"
#include "obs/sink.h"
#include "serve/engine.h"
#include "serve/trace.h"
#include "stats.h"

namespace perfbench {
namespace {

using bfsx::graph::CsrGraph;
using bfsx::graph::Edge;
using bfsx::graph::EdgeList;
using bfsx::graph::vid_t;
using bfsx::serve::Query;
using bfsx::serve::QueryKind;
using bfsx::serve::QueryResult;

constexpr int kScale = 18;
constexpr int kEdgefactor = 16;
constexpr int kSetupReps = 3;
constexpr double kOpenRate = 400.0;  // queries/s, about half of capacity
/// The open loop feeds only per-layer metrics, so it gets the smaller
/// part of the run; 3000 queries at 30 s still give p99 ten beyond.
constexpr double kOpenShare = 0.25;
constexpr std::size_t kOutstanding = 256;
/// A rebuild (~115 ms on 2 threads) takes two of the four cores from the
/// workers and leaves the cache stale meanwhile; a repair takes ~10 ms.
/// The closed loop then follows how fast the shared host lets each
/// rebuild run: with a rebuild every other publish, one publish every
/// 150 ms or every 300 ms, its latency spread 0.26 and 0.27 over ten
/// seeds. One publish every 300 ms with a rebuild every fourth holds the
/// cores ~10% of the time, and a 30 s run still makes 100 publishes.
constexpr auto kPublishEvery = std::chrono::milliseconds(300);
constexpr int kRemovesEvery = 4;
/// Write ops per publish: 64 of |E| ~ 8e6 directed edges is ~1e-5 of
/// the graph per publish, inside the "low churn" range (<= 0.1% of |E|
/// per publish) for which delta publishing is built. 213 ops/s.
constexpr int kWritesPerPublish = 64;
/// Length of the windows a run takes medians over: open-loop latency by
/// due time, closed-loop throughput and latency by submit time. One
/// write cycle (three repairs, one rebuild), so windows are alike.
constexpr double kWindowSeconds = 1.2;
/// Fewest samples a window needs to count; 100 keeps a window's p95 at
/// p90 or above under the ten-beyond rule.
constexpr std::size_t kWindowMinSamples = 100;

/// When the generator thread entered QueryEngine::submit; the sink
/// reads it for the kEnqueue event submit emits on that same thread.
thread_local double tls_submit_start = -1.0;

/// Stamps every query event with its time and thread. The engine
/// serialises on_query calls; `enabled` and `phase` are set by the
/// generator thread.
class StampingSink final : public bfsx::obs::TraceSink {
 public:
  explicit StampingSink(Clock::time_point origin) : origin_(origin) {}

  void on_query(const bfsx::obs::QueryEvent& e) override {
    if (!enabled.load(std::memory_order_relaxed)) return;
    const double t = seconds_between(origin_, Clock::now());
    const auto p = static_cast<std::size_t>(phase.load(std::memory_order_relaxed));
    if (e.stage == bfsx::obs::QueryEvent::Stage::kEnqueue) {
      enqueued[p][e.query_id] = tls_submit_start >= 0.0 ? tls_submit_start : t;
    }
    const auto [it, fresh] =
        threads_.emplace(std::this_thread::get_id(),
                         static_cast<int>(threads_.size()));
    events[p].push_back({e, t, it->second});
  }

  [[nodiscard]] double now() const {
    return seconds_between(origin_, Clock::now());
  }

  std::atomic<bool> enabled{true};
  std::atomic<int> phase{0};  // 0 open loop, 1 closed loop
  std::vector<StampedEvent> events[2];
  std::unordered_map<std::int64_t, double> enqueued[2];

 private:
  Clock::time_point origin_;
  std::map<std::thread::id, int> threads_;
};

std::uint64_t pair_key(vid_t u, vid_t v) {
  const auto lo = static_cast<std::uint64_t>(static_cast<std::uint32_t>(std::min(u, v)));
  const auto hi = static_cast<std::uint64_t>(static_cast<std::uint32_t>(std::max(u, v)));
  return (lo << 32) | hi;
}

/// One published write batch. Within a batch no undirected pair
/// appears twice, so the order of its ops does not matter.
struct Batch {
  std::vector<Edge> inserts;
  std::vector<Edge> removes;
};

/// Batch k (1-based) is half removes of base-graph edges when k is a
/// multiple of kRemovesEvery, else insert-only.
Batch make_batch(int k, const CsrGraph& base, bfsx::graph::Xoshiro256ss& rng) {
  const auto n = static_cast<std::uint64_t>(base.num_vertices());
  const int removes = k % kRemovesEvery == 0 ? kWritesPerPublish / 2 : 0;
  Batch b;
  std::unordered_set<std::uint64_t> seen;
  while (static_cast<int>(b.removes.size()) < removes) {
    const auto u = static_cast<vid_t>(rng.next_bounded(n));
    const std::span<const vid_t> row = base.out_neighbors(u);
    if (row.empty()) continue;
    const vid_t v = row[rng.next_bounded(row.size())];
    if (u != v && seen.insert(pair_key(u, v)).second) b.removes.push_back({u, v});
  }
  while (static_cast<int>(b.inserts.size() + b.removes.size()) <
         kWritesPerPublish) {
    const auto u = static_cast<vid_t>(rng.next_bounded(n));
    const auto v = static_cast<vid_t>(rng.next_bounded(n));
    if (u != v && seen.insert(pair_key(u, v)).second) b.inserts.push_back({u, v});
  }
  return b;
}

/// The graph of epoch `epoch`: the base edges with the first `epoch`
/// batches applied in order, built the way epoch 0 was.
CsrGraph epoch_graph(const EdgeList& base, const std::vector<Batch>& batches,
                     std::uint64_t epoch) {
  std::unordered_map<std::uint64_t, bool> present;
  for (std::uint64_t k = 0; k < epoch; ++k) {
    for (const Edge& e : batches[k].inserts) present[pair_key(e.src, e.dst)] = true;
    for (const Edge& e : batches[k].removes) present[pair_key(e.src, e.dst)] = false;
  }
  EdgeList el;
  el.num_vertices = base.num_vertices;
  el.edges.reserve(base.edges.size() + present.size());
  for (const Edge& e : base.edges) {
    if (!present.contains(pair_key(e.src, e.dst))) el.edges.push_back(e);
  }
  for (const auto& [key, is_present] : present) {
    if (is_present) {
      el.edges.push_back({static_cast<vid_t>(key >> 32),
                          static_cast<vid_t>(key & 0xFFFFFFFFULL)});
    }
  }
  return bfsx::graph::build_csr(std::move(el));
}

struct PublishRecord {
  std::uint64_t epoch = 0;
  bool insert_only = false;
  double wall_s = 0.0;
  bfsx::serve::PublishInfo info;
  std::size_t relaxed = 0;
  std::size_t live_epochs = 0;
};

/// A query in flight, with when it was due and sent (open loop).
struct InFlight {
  std::size_t index = 0;
  Query query;
  Send send;
  std::future<QueryResult> future;
};

struct Sample {
  Query query;
  QueryResult result;
};

/// Answers and failures as they resolve. Used by one thread at a time.
struct Tally {
  std::int64_t answered = 0;
  std::int64_t failed = 0;
  std::vector<double> latency_ms;   // open loop, from the due time
  std::vector<double> latency_due;  // when each of those was due
  std::vector<double> late_ms;      // open loop only
  std::int64_t closed_hits = 0;     // closed-loop cache hits
  std::vector<double> closed_ms;    // closed loop, traversed: submit to answer
  std::vector<double> closed_sent;  // when each of those was submitted
  std::map<std::uint64_t, std::array<std::vector<Sample>, 3>> samples;
  std::map<std::uint64_t, int> sample_cap;  // per category, by epoch
  std::uint64_t sample_seed = 0;

  void take(InFlight& f, bool open_loop) {
    QueryResult r;
    try {
      r = f.future.get();
    } catch (const std::exception&) {
      ++failed;
      return;
    }
    if (!r.ok) {
      ++failed;
      return;
    }
    ++answered;
    if (open_loop) {
      latency_ms.push_back(latency_from_due(f.send, r.latency_seconds) * 1e3);
      latency_due.push_back(f.send.due);
      late_ms.push_back((f.send.sent - f.send.due) * 1e3);
    } else if (r.cache_hit) {
      ++closed_hits;
    } else {
      closed_ms.push_back(r.latency_seconds * 1e3);
      closed_sent.push_back(f.send.sent);
    }
    const auto cap = sample_cap.find(r.epoch);
    if (cap == sample_cap.end() || derive_seed(sample_seed, f.index) % 4 != 0) {
      return;
    }
    const std::size_t category =
        r.cache_hit ? 0 : (r.kind == QueryKind::kBfs ? 2 : 1);
    auto& bucket = samples[r.epoch][category];
    if (static_cast<int>(bucket.size()) < cap->second) {
      bucket.push_back({f.query, std::move(r)});
    }
  }
};

}  // namespace

Outcome run_serve(const Options& opts, bool churn) {
  Outcome out;
  const double open_s = kOpenShare * opts.seconds;
  const double closed_s = opts.seconds - open_s;
  out.facts["scale"] = std::to_string(kScale);
  out.facts["edgefactor"] = std::to_string(kEdgefactor);
  out.facts["open_loop"] = std::to_string(kOpenRate) + " q/s Poisson for " +
                           std::to_string(open_s) + " s";
  out.facts["closed_loop"] = std::to_string(kOutstanding) +
                             " outstanding for " + std::to_string(closed_s) +
                             " s";
  if (churn) {
    out.facts["writes"] = std::to_string(kWritesPerPublish) +
                          " ops per publish, one publish every " +
                          std::to_string(kPublishEvery.count()) + " ms";
  }

  const auto origin = Clock::now();
  StampingSink sink(origin);
  bfsx::serve::ServeOptions sopts;
  sopts.sink = opts.trace ? &sink : nullptr;
  out.facts["serve_workers"] = std::to_string(sopts.workers);
  out.facts["batch_max"] = std::to_string(sopts.batch_max);
  out.facts["landmarks"] = std::to_string(sopts.num_landmarks);

  // ---- set-up: generate + QueryEngine construction, median of reps ----
  bfsx::graph::RmatParams params;
  params.scale = kScale;
  params.edgefactor = kEdgefactor;
  params.seed = derive_seed(opts.seed, 1);
  std::vector<double> setup_s, gen_s, init_s;
  EdgeList base;
  std::unique_ptr<bfsx::serve::QueryEngine> engine;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    engine.reset();
    const auto t0 = Clock::now();
    EdgeList el = bfsx::graph::generate_rmat(params);
    const auto t1 = Clock::now();
    base = el;
    const auto t2 = Clock::now();
    engine = std::make_unique<bfsx::serve::QueryEngine>(std::move(el), sopts);
    const auto t3 = Clock::now();
    gen_s.push_back(seconds_between(t0, t1));
    init_s.push_back(seconds_between(t2, t3));
    setup_s.push_back(seconds_between(t0, t1) + seconds_between(t2, t3));
  }
  out.values["setup_s"] = median(setup_s);
  out.values["graph.generate_s"] = median(gen_s);
  out.values["serve.init_s"] = median(init_s);

  // The benchmark's own copy of epoch 0: trace generation, the write
  // stream and the reference answers read it.
  const auto b0 = Clock::now();
  bfsx::graph::validate_edge_list(base);
  const auto b1 = Clock::now();
  const CsrGraph base_csr = bfsx::graph::build_csr(base);
  const auto b2 = Clock::now();
  out.values["graph.validate_edges_s"] = seconds_between(b0, b1);
  out.values["graph.build_s"] = seconds_between(b1, b2);
  out.values["graph.csr_bytes"] = csr_bytes(base_csr);
  out.facts["vertices"] = std::to_string(base_csr.num_vertices());
  out.facts["directed_edges"] = std::to_string(base_csr.num_edges());

  const std::vector<double> due =
      poisson_schedule(kOpenRate, open_s, derive_seed(opts.seed, 4));
  bfsx::serve::TraceGenOptions tgen;
  tgen.num_queries = static_cast<std::int64_t>(due.size()) +
                     static_cast<std::int64_t>(2000.0 * closed_s) +
                     static_cast<std::int64_t>(kOutstanding);
  tgen.bfs_fraction = 0.05;
  tgen.reach_fraction = 0.25;
  tgen.hot_fraction = 0.3;
  tgen.seed = derive_seed(opts.seed, 3);
  const std::vector<bfsx::serve::TraceOp> trace =
      bfsx::serve::generate_query_trace(base_csr, tgen);
  const auto query_at = [&](std::size_t i) -> const Query& {
    return trace[i % trace.size()].query;
  };

  // Epochs whose answers are checked: 0, and for churn a rebuilt epoch
  // (4, 8 or 12) and the repaired one after it, early enough to exist.
  Tally tally;
  tally.sample_seed = derive_seed(opts.seed, 6);
  std::uint64_t rebuilt_epoch = 0;
  if (churn) {
    rebuilt_epoch = kRemovesEvery * (1 + derive_seed(opts.seed, 7) % 3);
    tally.sample_cap = {{0, 3}, {rebuilt_epoch, 3}, {rebuilt_epoch + 1, 3}};
  } else {
    tally.sample_cap = {{0, 6}};
  }

  // ---- writer (serve_churn) ----
  std::atomic<bool> stop_writer{false};
  std::exception_ptr writer_error;
  std::vector<Batch> batches;
  std::vector<PublishRecord> publishes;
  const auto writer = [&] {
    try {
      bfsx::graph::Xoshiro256ss rng(derive_seed(opts.seed, 5));
      auto next = Clock::now() + kPublishEvery;
      for (int k = 1;; ++k) {
        std::this_thread::sleep_until(next);
        if (stop_writer.load()) return;
        Batch b = make_batch(k, base_csr, rng);
        for (const Edge& e : b.inserts) engine->insert_edge(e.src, e.dst);
        for (const Edge& e : b.removes) engine->remove_edge(e.src, e.dst);
        PublishRecord rec;
        rec.insert_only = b.removes.empty();
        const auto t0 = Clock::now();
        rec.epoch = engine->publish_inserts();
        rec.wall_s = seconds_between(t0, Clock::now());
        rec.info = engine->epochs().last_publish();
        if (rec.insert_only) rec.relaxed = engine->last_repair().relaxed;
        rec.live_epochs = engine->epochs().live_epochs();
        publishes.push_back(rec);
        batches.push_back(std::move(b));
        next = std::max(next + kPublishEvery, Clock::now());
      }
    } catch (...) {
      writer_error = std::current_exception();
    }
  };
  std::optional<JoiningThread> writer_thread;
  if (churn) writer_thread.emplace(writer);
  // Declared after the thread, so it runs first on every exit path.
  const OnExit stop_writing([&] { stop_writer.store(true); });

  // ---- open loop ----
  // The generator sends on schedule; a collector thread takes the
  // answers in order, so the generator never waits on one.
  std::mutex mu;
  std::condition_variable cv;
  std::deque<InFlight> queue;  // guarded by mu
  bool sent_all = false;       // guarded by mu
  {
    const JoiningThread collector([&] {
      for (;;) {
        InFlight f;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return sent_all || !queue.empty(); });
          if (queue.empty()) return;
          f = std::move(queue.front());
          queue.pop_front();
        }
        tally.take(f, /*open_loop=*/true);
      }
    });
    const OnExit finish_sending([&] {
      {
        const std::lock_guard<std::mutex> lock(mu);
        sent_all = true;
      }
      cv.notify_one();
    });
    run_open_loop(due, Clock::now(), [&](std::size_t i, const Send& send) {
      InFlight f;
      f.index = i;
      f.query = query_at(i);
      f.send = send;
      tls_submit_start = sink.now();
      f.future = engine->submit(f.query);
      {
        const std::lock_guard<std::mutex> lock(mu);
        queue.push_back(std::move(f));
      }
      cv.notify_one();
    });
  }  // finishes sending, then joins the collector
  engine->drain();
  const std::int64_t open_answered = tally.answered;
  out.attempted += static_cast<std::int64_t>(due.size());

  // ---- closed loop ----
  // Throughput is taken per window of kWindowSeconds and reported as
  // the median window. Trace runs switch the sink off and on at each
  // window boundary; the two halves give the tracing overhead.
  sink.phase.store(1);
  std::deque<InFlight> inflight;
  std::size_t next_query = due.size();
  std::vector<double> on_rates, off_rates;
  const auto closed_start = Clock::now();
  const std::int64_t served_start = engine->stats().served;
  auto window_start = closed_start;
  std::int64_t window_served = served_start;
  for (;;) {
    const auto now = Clock::now();
    if (seconds_between(window_start, now) >= kWindowSeconds) {
      const std::int64_t served = engine->stats().served;
      const double rate = static_cast<double>(served - window_served) /
                          seconds_between(window_start, now);
      (sink.enabled.load() ? on_rates : off_rates).push_back(rate);
      if (opts.trace) sink.enabled.store(!sink.enabled.load());
      window_start = now;
      window_served = served;
    }
    if (seconds_between(closed_start, now) >= closed_s) break;
    while (inflight.size() < kOutstanding) {
      InFlight f;
      f.index = next_query;
      f.query = query_at(next_query++);
      const double sent = seconds_between(closed_start, Clock::now());
      f.send = {sent, sent};
      tls_submit_start = sink.now();
      f.future = engine->submit(f.query);
      inflight.push_back(std::move(f));
    }
    tally.take(inflight.front(), /*open_loop=*/false);
    inflight.pop_front();
  }
  const std::int64_t closed_served = engine->stats().served - served_start;
  sink.enabled.store(false);
  for (InFlight& f : inflight) tally.take(f, /*open_loop=*/false);
  out.attempted += static_cast<std::int64_t>(next_query - due.size());

  stop_writer.store(true);
  if (writer_thread) writer_thread->join();
  engine->drain();
  engine->shutdown();
  if (writer_error) std::rethrow_exception(writer_error);
  const bfsx::serve::ServeStats stats = engine->stats();

  // ---- end-to-end ----
  out.values["ops_per_s"] = median(opts.trace ? off_rates : on_rates);
  out.values["lat_ms_p50"] =
      median_of_windows(tally.closed_sent, tally.closed_ms, kWindowSeconds,
                        kWindowMinSamples);
  out.values["lat_ms_p95"] =
      median_of_windows(tally.closed_sent, tally.closed_ms, kWindowSeconds,
                        kWindowMinSamples, 0.95);
  out.facts["open_loop_queries"] = std::to_string(tally.latency_ms.size());
  out.facts["closed_loop_answered"] = std::to_string(closed_served);
  out.facts["closed_loop_cache_hits"] = std::to_string(tally.closed_hits);
  out.facts["open_p50_ms_by_window"] =
      join(window_percentiles(tally.latency_due, tally.latency_ms,
                              kWindowSeconds, kWindowMinSamples, 0.5));
  out.facts["closed_qps_by_window"] = join(on_rates);
  out.facts["closed_p50_ms_by_window"] =
      join(window_percentiles(tally.closed_sent, tally.closed_ms,
                              kWindowSeconds, kWindowMinSamples, 0.5));

  // ---- per-layer ----
  out.values["serve.qps_open"] = static_cast<double>(open_answered) / open_s;
  out.values["serve.open_lat_ms_p50"] =
      median_of_windows(tally.latency_due, tally.latency_ms, kWindowSeconds,
                        kWindowMinSamples);
  out.values["serve.open_lat_ms_p99"] = tail_percentile(tally.latency_ms, 0.99);
  out.values["gen.late_ms_p99"] = tail_percentile(tally.late_ms, 0.99);
  const auto cacheable = stats.cache_hits + stats.cache_misses;
  out.values["serve.cache_hit_ratio"] =
      cacheable > 0 ? static_cast<double>(stats.cache_hits) /
                          static_cast<double>(cacheable)
                    : 0.0;
  out.values["serve.rejected"] =
      static_cast<double>(stats.rejected_full + stats.rejected_invalid);

  std::unordered_set<std::uint64_t> delta_epochs;
  if (churn) {
    std::vector<double> wall_ms, graph_ms, repair_ms, rebuild_ms;
    double relaxed = 0.0, live_max = 0.0;
    for (const PublishRecord& p : publishes) {
      const double wall = p.wall_s * 1e3;
      const double graph = p.info.seconds * 1e3;
      wall_ms.push_back(wall);
      graph_ms.push_back(graph);
      (p.insert_only ? repair_ms : rebuild_ms).push_back(wall - graph);
      relaxed += static_cast<double>(p.relaxed);
      live_max = std::max(live_max, static_cast<double>(p.live_epochs));
      if (p.info.delta) delta_epochs.insert(p.epoch);
    }
    out.values["serve.publish_ms_p50"] = median(wall_ms);
    out.values["serve.publish_ms_p90"] = tail_percentile(wall_ms, 0.90);
    out.values["serve.publish_graph_ms_p50"] = median(graph_ms);
    out.values["serve.rearm_repair_ms_p50"] = median(repair_ms);
    out.values["serve.rearm_rebuild_ms_p50"] = median(rebuild_ms);
    out.values["serve.repair_relaxed"] = relaxed;
    out.values["serve.epochs_live_max"] = live_max;
    if (!publishes.empty()) {
      out.values["serve.patched_fraction"] =
          publishes.back().info.patched_fraction;
    }
    out.facts["publishes"] = std::to_string(publishes.size());
    out.attempted += static_cast<std::int64_t>(publishes.size());
    for (std::size_t k = 0; k < publishes.size(); ++k) {
      if (publishes[k].epoch != k + 1) ++out.failed;  // sole publisher
    }
  }

  if (opts.trace) {
    const Spans open = attribute_spans(sink.events[0], sink.enqueued[0]);
    std::vector<double> wait_ms, pass_ms;
    double lanes = 0.0, msbfs = 0.0, single = 0.0, on_delta = 0.0;
    for (const double w : open.queue_wait) wait_ms.push_back(w * 1e3);
    for (const Pass& p : open.passes) {
      (p.msbfs ? msbfs : single) += 1.0;
      if (delta_epochs.contains(p.epoch)) on_delta += 1.0;
      if (!p.msbfs) continue;
      lanes += p.lanes;
      if (p.first_complete >= 0.0) pass_ms.push_back(p.seconds() * 1e3);
    }
    const double passes = msbfs + single;
    out.values["serve.queue_wait_ms_p50"] = median(wait_ms);
    out.values["serve.queue_wait_ms_p99"] = tail_percentile(wait_ms, 0.99);
    out.values["bfs.msbfs_passes"] = msbfs;
    out.values["bfs.msbfs_lanes_mean"] = msbfs > 0 ? lanes / msbfs : 0.0;
    out.values["bfs.msbfs_pass_ms_p50"] = median(pass_ms);
    out.values["bfs.msbfs_pass_ms_p99"] = tail_percentile(pass_ms, 0.99);
    out.values["serve.single_share"] = passes > 0 ? single / passes : 0.0;
    out.values["serve.delta_dispatch_share"] =
        passes > 0 ? on_delta / passes : 0.0;

    const Spans closed = attribute_spans(sink.events[1], sink.enqueued[1]);
    double batch = 0.0, closed_lanes = 0.0, lane_queries = 0.0;
    for (const Pass& p : closed.passes) {
      batch += p.batch;
      if (!p.msbfs) continue;
      closed_lanes += p.lanes;
      lane_queries += p.batch;
    }
    out.values["serve.batch_mean"] =
        closed.passes.empty()
            ? 0.0
            : batch / static_cast<double>(closed.passes.size());
    out.values["serve.queries_per_lane"] =
        closed_lanes > 0 ? lane_queries / closed_lanes : 0.0;
    if (!on_rates.empty() && !off_rates.empty()) {
      out.values["obs.trace_overhead_pct"] =
          100.0 * (median(off_rates) / median(on_rates) - 1.0);
    }
  }

  // ---- output check: sampled answers against reference_bfs ----
  std::int64_t checked = 0;
  double validate_s = 0.0;
  for (const auto& [epoch, buckets] : tally.samples) {
    if (epoch > batches.size()) continue;
    const CsrGraph rebuilt =
        epoch == 0 ? CsrGraph{} : epoch_graph(base, batches, epoch);
    const CsrGraph& g = epoch == 0 ? base_csr : rebuilt;
    std::map<vid_t, bfsx::bfs::BfsResult> reference;
    for (const auto& bucket : buckets) {
      for (const Sample& s : bucket) {
        const vid_t src = s.query.source;
        auto ref = reference.find(src);
        if (ref == reference.end()) {
          ref = reference.emplace(src, bfsx::graph500::reference_bfs(g, src))
                    .first;
        }
        const bfsx::bfs::BfsResult& want = ref->second;
        bool ok = false;
        if (s.query.kind == QueryKind::kBfs) {
          const auto v0 = Clock::now();
          ok = s.result.traversal != nullptr &&
               bfsx::bfs::same_levels(*s.result.traversal, want) &&
               bfsx::bfs::validate_bfs(g, src, *s.result.traversal).ok;
          validate_s += seconds_between(v0, Clock::now());
        } else {
          const std::int32_t d =
              want.level[static_cast<std::size_t>(s.query.target)];
          ok = s.result.distance == d && s.result.reachable == (d >= 0);
        }
        ++checked;
        if (!ok) ++out.failed;
      }
    }
  }
  out.values["bfs.validate_s"] = validate_s;
  out.facts["checked_answers"] = std::to_string(checked);
  if (churn) out.facts["checked_rebuilt_epoch"] = std::to_string(rebuilt_epoch);

  out.failed += tally.failed;
  out.correct = out.failed == 0 && checked > 0;
  return out;
}

}  // namespace perfbench
