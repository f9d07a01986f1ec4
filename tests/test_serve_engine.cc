// serve::QueryEngine: every served answer — by bidirectional search,
// single-source traversal or the cache, before and after inserts — must
// be bit-equal to graph500::reference_bfs on the pinned epoch's graph
// (levels exactly; parent trees structurally, via validate_bfs).
#include "serve/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <future>
#include <map>
#include <utility>
#include <vector>

#include "bfs/validate.h"
#include "graph/builder.h"
#include "graph/graph_stats.h"
#include "graph/rmat.h"
#include "graph500/native_engine.h"
#include "graph500/reference_bfs.h"
#include "obs/sink.h"
#include "serve/trace.h"

namespace bfsx::serve {
namespace {

graph::EdgeList rmat_edges(int scale, std::uint64_t seed = 7) {
  graph::RmatParams p;
  p.scale = scale;
  p.edgefactor = 8;
  p.seed = seed;
  return graph::generate_rmat(p);
}

/// The oracle graph: built exactly the way the engine builds epoch 0
/// (default BuildOptions: symmetrised, deduplicated).
graph::CsrGraph oracle_graph(const graph::EdgeList& edges) {
  return graph::build_csr(edges);
}

void expect_matches_reference(const graph::CsrGraph& g,
                              const QueryResult& r) {
  ASSERT_TRUE(r.ok) << "rejected: " << to_string(r.reject);
  const bfs::BfsResult ref = graph500::reference_bfs(g, r.source);
  switch (r.kind) {
    case QueryKind::kBfs: {
      ASSERT_NE(r.traversal, nullptr);
      EXPECT_EQ(r.traversal->level, ref.level) << "source " << r.source;
      EXPECT_EQ(r.traversal->reached, ref.reached);
      const bfs::ValidationReport rep =
          bfs::validate_bfs(g, r.source, *r.traversal);
      EXPECT_TRUE(rep.ok) << rep.format();
      break;
    }
    case QueryKind::kDistance:
    case QueryKind::kReachability: {
      const std::int32_t want =
          ref.level[static_cast<std::size_t>(r.target)];
      EXPECT_EQ(r.distance, want)
          << "source " << r.source << " target " << r.target;
      EXPECT_EQ(r.reachable, want >= 0);
      break;
    }
  }
}

TEST(ServeEngine, BatchedAnswersAreBitEqualToReference) {
  graph::EdgeList edges = rmat_edges(9);
  const graph::CsrGraph g = oracle_graph(edges);
  const std::vector<graph::vid_t> roots = graph::sample_roots(g, 12, 500);

  ServeOptions opts;
  opts.workers = 2;
  opts.cache_enabled = false;  // cached answers get their own test
  opts.start_paused = true;    // submit everything, then one resume
  QueryEngine engine(std::move(edges), opts);

  std::vector<std::future<QueryResult>> futures;
  std::int64_t points = 0;
  for (std::size_t i = 0; i < roots.size(); ++i) {
    Query q;
    points += i % 3 != 0;
    switch (i % 3) {
      case 0: q.kind = QueryKind::kBfs; break;
      case 1: q.kind = QueryKind::kDistance; break;
      default: q.kind = QueryKind::kReachability; break;
    }
    q.source = roots[i];
    q.target = roots[(i + 5) % roots.size()];
    futures.push_back(engine.submit(q));
    // Duplicate every third query: repeated roots must share a lane
    // and still answer correctly.
    if (i % 3 == 0) futures.push_back(engine.submit(q));
  }
  engine.resume();

  for (std::future<QueryResult>& f : futures) {
    const QueryResult r = f.get();
    EXPECT_EQ(r.epoch, 0u);
    expect_matches_reference(g, r);
  }
  const ServeStats st = engine.stats();
  EXPECT_EQ(st.pair_queries, points);
  EXPECT_GT(st.max_batch, 1);
  EXPECT_EQ(st.served, static_cast<std::int64_t>(futures.size()));
}

TEST(ServeEngine, DuplicateSourcesShareOneTraversal) {
  graph::EdgeList edges = rmat_edges(8);
  ServeOptions opts;
  opts.workers = 1;  // one tick serves both
  opts.cache_enabled = false;
  opts.start_paused = true;
  QueryEngine engine(std::move(edges), opts);

  Query q;
  q.kind = QueryKind::kBfs;
  q.source = 1;
  std::future<QueryResult> a = engine.submit(q);
  std::future<QueryResult> b = engine.submit(q);
  engine.resume();
  const QueryResult ra = a.get();
  const QueryResult rb = b.get();
  ASSERT_TRUE(ra.ok && rb.ok);
  EXPECT_EQ(engine.stats().traversals, 1);  // two queries, one source
  EXPECT_EQ(ra.traversal, rb.traversal);  // literally the same map
}

// A tick's trees run side by side on the worker and helper threads
// started for the tick, each tree on one thread alone: every source
// gets its own tree, and each tree's parents equal a traversal that had
// the whole OpenMP team.
TEST(ServeEngine, TreesOfOneTickRunSideBySide) {
  graph::EdgeList edges = rmat_edges(9);
  const graph::CsrGraph g = oracle_graph(edges);
  const std::vector<graph::vid_t> roots = graph::sample_roots(g, 6, 41);

  ServeOptions opts;
  opts.workers = 1;  // one tick serves them all
  opts.cache_enabled = false;
  opts.start_paused = true;
  QueryEngine engine(std::move(edges), opts);

  std::vector<std::future<QueryResult>> futures;
  for (const graph::vid_t root : roots) {
    Query q;
    q.kind = QueryKind::kBfs;
    q.source = root;
    futures.push_back(engine.submit(q));
    futures.push_back(engine.submit(q));
  }
  engine.resume();

  std::vector<QueryResult> results;
  for (std::future<QueryResult>& f : futures) results.push_back(f.get());
  for (std::size_t i = 0; i < results.size(); i += 2) {
    const QueryResult& r = results[i];
    expect_matches_reference(g, r);
    ASSERT_NE(r.traversal, nullptr);
    EXPECT_EQ(r.traversal, results[i + 1].traversal);  // one source
    if (i > 0) {
      EXPECT_NE(r.traversal, results[i - 2].traversal);
    }
    const bfs::BfsResult solo =
        graph500::run_native(g, r.source, "native-hybrid", opts.policy,
                             nullptr, nullptr)
            .result;
    EXPECT_EQ(r.traversal->parent, solo.parent) << "source " << r.source;
  }
  EXPECT_EQ(engine.stats().traversals,
            static_cast<std::int64_t>(roots.size()));
  EXPECT_EQ(engine.stats().max_batch,
            static_cast<std::int64_t>(futures.size()));
}

// One tick of trees and point queries side by side: a source read by
// all three kinds, isolated and self targets, and isolated sources.
TEST(ServeEngine, MixedKindsOnSharedAndIsolatedVerticesMatchReference) {
  graph::EdgeList edges = rmat_edges(9, 5);
  const graph::CsrGraph g = oracle_graph(edges);
  std::vector<graph::vid_t> isolated;
  for (graph::vid_t v = 0; v < g.num_vertices(); ++v) {
    if (g.out_degree(v) == 0) isolated.push_back(v);
  }
  ASSERT_GE(isolated.size(), 2u);
  const graph::vid_t shared = graph::sample_roots(g, 1, 31).front();
  const std::vector<graph::vid_t> targets = graph::sample_roots(g, 4, 37);

  ServeOptions opts;
  opts.workers = 1;
  opts.cache_enabled = false;
  opts.start_paused = true;  // everything below lands in one tick
  QueryEngine engine(std::move(edges), opts);

  std::vector<std::future<QueryResult>> futures;
  const auto submit = [&](QueryKind kind, graph::vid_t source,
                          graph::vid_t target) {
    Query q;
    q.kind = kind;
    q.source = source;
    q.target = target;
    futures.push_back(engine.submit(q));
  };
  submit(QueryKind::kBfs, shared, 0);
  for (const graph::vid_t t : targets) {
    submit(QueryKind::kDistance, shared, t);
    submit(QueryKind::kReachability, shared, t);
  }
  submit(QueryKind::kDistance, shared, shared);
  submit(QueryKind::kReachability, shared, isolated[0]);
  submit(QueryKind::kBfs, isolated[0], 0);
  submit(QueryKind::kDistance, isolated[0], isolated[0]);
  submit(QueryKind::kDistance, isolated[0], shared);
  submit(QueryKind::kReachability, isolated[1], targets[0]);
  submit(QueryKind::kDistance, targets[1], isolated[1]);
  engine.resume();

  for (std::future<QueryResult>& f : futures) {
    const QueryResult r = f.get();
    expect_matches_reference(g, r);
  }
  EXPECT_EQ(engine.stats().traversals, 2);  // the two bfs sources
  EXPECT_EQ(engine.stats().pair_queries,
            static_cast<std::int64_t>(futures.size()) - 2);
  EXPECT_EQ(engine.stats().max_batch,
            static_cast<std::int64_t>(futures.size()));
}

TEST(ServeEngine, CachedDistancesAreExact) {
  graph::EdgeList edges = rmat_edges(9, 21);
  const graph::CsrGraph g = oracle_graph(edges);

  ServeOptions opts;
  opts.workers = 1;
  opts.num_landmarks = 8;
  QueryEngine engine(std::move(edges), opts);

  // Sources drawn from the cache's own landmark set: guaranteed hits.
  const std::vector<graph::vid_t> roots = graph::sample_roots(g, 6, 11);
  std::vector<std::future<QueryResult>> futures;
  LandmarkCache reference_cache(g, 0, opts.num_landmarks);
  for (const graph::vid_t hub : reference_cache.landmarks()) {
    for (const graph::vid_t t : roots) {
      Query q;
      q.kind = QueryKind::kDistance;
      q.source = hub;
      q.target = t;
      futures.push_back(engine.submit(q));
    }
  }
  std::int64_t hits = 0;
  for (std::future<QueryResult>& f : futures) {
    const QueryResult r = f.get();
    expect_matches_reference(g, r);
    if (r.cache_hit) ++hits;
  }
  EXPECT_EQ(hits, static_cast<std::int64_t>(futures.size()))
      << "landmark-sourced distance queries must all hit the cache";
  EXPECT_EQ(engine.stats().cache_hits, hits);
}

TEST(ServeEngine, EngineOverrideDispatchesSingleSource) {
  graph::EdgeList edges = rmat_edges(8);
  const graph::CsrGraph g = oracle_graph(edges);
  ServeOptions opts;
  opts.workers = 1;
  opts.cache_enabled = false;
  QueryEngine engine(std::move(edges), opts);

  Query q;
  q.kind = QueryKind::kBfs;
  q.source = 2;
  q.engine = "native-td";
  const QueryResult r = engine.submit(q).get();
  ASSERT_TRUE(r.ok);
  expect_matches_reference(g, r);
  EXPECT_EQ(engine.stats().traversals, 1);
}

TEST(ServeEngine, RejectsCarryReasons) {
  graph::EdgeList edges = rmat_edges(8);
  ServeOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 2;
  opts.cache_enabled = false;
  opts.start_paused = true;  // nothing drains: capacity must trip
  QueryEngine engine(std::move(edges), opts);
  const graph::vid_t n = engine.num_vertices();

  Query bad;
  bad.kind = QueryKind::kDistance;
  bad.source = n;  // one past the end
  bad.target = 0;
  EXPECT_EQ(engine.submit(bad).get().reject, RejectReason::kInvalidVertex);
  bad.source = 0;
  bad.target = -1;
  EXPECT_EQ(engine.submit(bad).get().reject, RejectReason::kInvalidVertex);

  Query unknown;
  unknown.kind = QueryKind::kBfs;
  unknown.source = 0;
  unknown.engine = "no-such-engine";
  EXPECT_EQ(engine.submit(unknown).get().reject,
            RejectReason::kUnknownEngine);

  Query ok;
  ok.kind = QueryKind::kBfs;
  ok.source = 0;
  auto f1 = engine.submit(ok);
  auto f2 = engine.submit(ok);
  EXPECT_EQ(engine.submit(ok).get().reject, RejectReason::kQueueFull);

  const ServeStats st = engine.stats();
  EXPECT_EQ(st.rejected_invalid, 3);  // 2 vertices + 1 unknown engine
  EXPECT_EQ(st.rejected_full, 1);

  // The two admitted queries resolve with kShutdown when the engine
  // stops unresumed.
  engine.shutdown();
  EXPECT_EQ(f1.get().reject, RejectReason::kShutdown);
  EXPECT_EQ(f2.get().reject, RejectReason::kShutdown);
  EXPECT_EQ(engine.stats().rejected_shutdown, 2);
}

TEST(ServeEngine, PostInsertEpochsServeTheNewGraph) {
  // Two disconnected paths: 0-1-2 and 3-4-5.
  graph::EdgeList edges;
  edges.num_vertices = 6;
  edges.edges = {{0, 1}, {1, 2}, {3, 4}, {4, 5}};

  ServeOptions opts;
  opts.workers = 1;
  opts.num_landmarks = 4;
  QueryEngine engine(edges, opts);

  Query q;
  q.kind = QueryKind::kDistance;
  q.source = 0;
  q.target = 5;
  {
    const QueryResult r = engine.submit(q).get();
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.epoch, 0u);
    EXPECT_EQ(r.distance, -1);
    EXPECT_FALSE(r.reachable);
  }

  engine.insert_edge(2, 3);  // bridge the components
  EXPECT_EQ(engine.publish_inserts(), 1u);

  // Oracle over the same post-insert edge list.
  edges.edges.push_back({2, 3});
  const graph::CsrGraph bridged = graph::build_csr(edges);

  {
    const QueryResult r = engine.submit(q).get();
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.epoch, 1u);
    expect_matches_reference(bridged, r);
    EXPECT_EQ(r.distance, 5);  // 0-1-2-3-4-5
  }

  // A full BFS after the publish also answers on the new epoch.
  Query full;
  full.kind = QueryKind::kBfs;
  full.source = 0;
  const QueryResult r = engine.submit(full).get();
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.epoch, 1u);
  expect_matches_reference(bridged, r);
  EXPECT_EQ(engine.stats().epochs_published, 1);
  EXPECT_EQ(engine.stats().edges_inserted, 1);
}

TEST(ServeEngine, DrainWaitsForAllInFlightWork) {
  graph::EdgeList edges = rmat_edges(8);
  ServeOptions opts;
  opts.workers = 2;
  opts.cache_enabled = false;
  QueryEngine engine(std::move(edges), opts);

  std::vector<std::future<QueryResult>> futures;
  for (int i = 0; i < 40; ++i) {
    Query q;
    q.kind = QueryKind::kDistance;
    q.source = i % engine.num_vertices();
    q.target = (i * 7) % engine.num_vertices();
    futures.push_back(engine.submit(q));
  }
  engine.drain();
  const ServeStats st = engine.stats();
  EXPECT_EQ(st.served, 40);
  for (std::future<QueryResult>& f : futures) {
    EXPECT_TRUE(f.get().ok);
  }
}

TEST(ServeEngine, QueryEventsCoverEveryStage) {
  graph::EdgeList edges = rmat_edges(8);
  obs::MemorySink sink;
  ServeOptions opts;
  opts.workers = 1;
  opts.num_landmarks = 8;
  opts.sink = &sink;
  opts.start_paused = true;
  QueryEngine engine(edges, opts);

  const graph::CsrGraph g = oracle_graph(edges);
  const LandmarkCache probe(g, 0, opts.num_landmarks);
  ASSERT_FALSE(probe.landmarks().empty());

  Query hit;
  hit.kind = QueryKind::kDistance;
  hit.source = probe.landmarks().front();
  hit.target = 0;
  (void)engine.submit(hit).get();  // cache hit: resolves while paused

  Query queued;
  queued.kind = QueryKind::kBfs;
  queued.source = 0;
  auto f = engine.submit(queued);
  engine.resume();
  (void)f.get();
  engine.shutdown();

  bool saw_enqueue = false;
  bool saw_dispatch = false;
  bool saw_complete = false;
  bool saw_cache_hit = false;
  for (const obs::QueryEvent& e : sink.queries) {
    switch (e.stage) {
      case obs::QueryEvent::Stage::kEnqueue: saw_enqueue = true; break;
      case obs::QueryEvent::Stage::kDispatch: saw_dispatch = true; break;
      case obs::QueryEvent::Stage::kComplete: saw_complete = true; break;
      case obs::QueryEvent::Stage::kCacheHit: saw_cache_hit = true; break;
      default: break;
    }
  }
  EXPECT_TRUE(saw_enqueue);
  EXPECT_TRUE(saw_dispatch);
  EXPECT_TRUE(saw_complete);
  EXPECT_TRUE(saw_cache_hit);
}

TEST(ServeEngine, DeltaEpochAnswersAreBitEqualToReference) {
  graph::EdgeList edges = rmat_edges(9, 33);
  graph::EdgeList oracle_edges = edges;

  ServeOptions opts;
  opts.workers = 2;
  opts.num_landmarks = 8;
  ASSERT_TRUE(opts.delta_publish);  // the default publish policy
  QueryEngine engine(std::move(edges), opts);

  const std::vector<graph::Edge> batch = {{1, 2}, {3, 500}, {7, 350}};
  for (const graph::Edge& e : batch) {
    engine.insert_edge(e.src, e.dst);
    oracle_edges.edges.push_back(e);
  }
  EXPECT_EQ(engine.publish_inserts(), 1u);
  EXPECT_EQ(engine.stats().delta_publishes, 1);
  EXPECT_EQ(engine.stats().full_publishes, 0);
  // Insert-only publish: the landmark cache was repaired in place
  // (the one rebuild is the constructor's initial arm).
  EXPECT_EQ(engine.stats().cache_repairs, 1);
  EXPECT_EQ(engine.stats().cache_rebuilds, 1);

  const graph::CsrGraph oracle = oracle_graph(oracle_edges);
  for (const graph::vid_t root : graph::sample_roots(oracle, 6, 77)) {
    Query bfs_q;
    bfs_q.kind = QueryKind::kBfs;
    bfs_q.source = root;
    const QueryResult r = engine.submit(bfs_q).get();
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.epoch, 1u);
    expect_matches_reference(oracle, r);

    Query dist_q;
    dist_q.kind = QueryKind::kDistance;
    dist_q.source = root;
    dist_q.target = 500;
    expect_matches_reference(oracle, engine.submit(dist_q).get());
  }
}

TEST(ServeEngine, EngineOverridesDispatchOnDeltaEpochs) {
  graph::EdgeList edges = rmat_edges(8, 5);
  graph::EdgeList oracle_edges = edges;
  ServeOptions opts;
  opts.workers = 1;
  opts.cache_enabled = false;
  QueryEngine engine(std::move(edges), opts);

  engine.insert_edge(0, 9);
  oracle_edges.edges.push_back({0, 9});
  engine.publish_inserts();
  ASSERT_EQ(engine.stats().delta_publishes, 1);

  const graph::CsrGraph oracle = oracle_graph(oracle_edges);
  for (const char* name : {"td", "bu", "hybrid", "native-td", "ref"}) {
    Query q;
    q.kind = QueryKind::kBfs;
    q.source = 3;
    q.engine = name;
    const QueryResult r = engine.submit(q).get();
    ASSERT_TRUE(r.ok) << name;
    EXPECT_EQ(r.epoch, 1u) << name;
    expect_matches_reference(oracle, r);
  }
  EXPECT_EQ(engine.stats().traversals, 5);
}

TEST(ServeEngine, VertexGrowthServesTheGrownGraphEndToEnd) {
  // 0-1-2 path; insert an edge to a vertex past the current count.
  graph::EdgeList edges;
  edges.num_vertices = 3;
  edges.edges = {{0, 1}, {1, 2}};
  ServeOptions opts;
  opts.workers = 1;
  opts.num_landmarks = 4;
  QueryEngine engine(edges, opts);
  ASSERT_EQ(engine.num_vertices(), 3);

  engine.insert_edge(2, 5);
  engine.publish_inserts();
  EXPECT_EQ(engine.num_vertices(), 6);
  EXPECT_EQ(engine.stats().cache_repairs, 1);

  edges.num_vertices = 6;
  edges.edges.push_back({2, 5});
  const graph::CsrGraph grown = graph::build_csr(edges);

  // Queries touching the grown vertex are admitted and exact — both
  // through the batch path and through the repaired landmark cache.
  Query q;
  q.kind = QueryKind::kDistance;
  q.source = 0;
  q.target = 5;
  const QueryResult r = engine.submit(q).get();
  ASSERT_TRUE(r.ok);
  expect_matches_reference(grown, r);
  EXPECT_EQ(r.distance, 3);  // 0-1-2-5

  Query from_new;
  from_new.kind = QueryKind::kBfs;
  from_new.source = 5;
  expect_matches_reference(grown, engine.submit(from_new).get());
}

TEST(ServeEngine, RemovalsServeExactlyAndRebuildTheCache) {
  // Cycle 0-1-2-3-0 plus chord 0-2; remove the chord.
  graph::EdgeList edges;
  edges.num_vertices = 4;
  edges.edges = {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}};
  ServeOptions opts;
  opts.workers = 1;
  opts.num_landmarks = 4;
  QueryEngine engine(edges, opts);

  engine.remove_edge(0, 2);
  engine.publish_inserts();
  EXPECT_EQ(engine.stats().edges_removed, 1);
  // Removals can raise distances: repair is unsound, so the engine
  // must have rebuilt the cache from scratch (on top of the
  // constructor's initial arm).
  EXPECT_EQ(engine.stats().cache_repairs, 0);
  EXPECT_EQ(engine.stats().cache_rebuilds, 2);

  edges.edges.pop_back();
  const graph::CsrGraph pruned = graph::build_csr(edges);
  Query q;
  q.kind = QueryKind::kDistance;
  q.source = 0;
  q.target = 2;
  const QueryResult r = engine.submit(q).get();
  ASSERT_TRUE(r.ok);
  expect_matches_reference(pruned, r);
  EXPECT_EQ(r.distance, 2);  // the chord is gone
}

TEST(ServeEngine, ExportMetricsReflectsEpochHealth) {
  graph::EdgeList edges = rmat_edges(8, 13);
  ServeOptions opts;
  opts.workers = 1;
  QueryEngine engine(std::move(edges), opts);

  engine.insert_edge(0, 5);
  engine.publish_inserts();
  engine.insert_edge(1, 6);  // left pending on purpose
  engine.drain();

  obs::Registry metrics;
  engine.export_metrics(metrics);
  EXPECT_EQ(metrics.counter("serve.epochs.live"), 1);
  EXPECT_EQ(metrics.counter("serve.epochs.retired"), 1);
  EXPECT_EQ(metrics.counter("serve.epochs.pending_inserts"), 1);
  EXPECT_EQ(metrics.counter("serve.epochs.pending_removes"), 0);
  EXPECT_EQ(metrics.counter("serve.publish.delta"), 1);
  EXPECT_EQ(metrics.counter("serve.publish.full"), 0);
  EXPECT_EQ(metrics.counter("serve.cache.repairs"), 1);

  // The publish-duration histogram accounts for every publish exactly
  // once, and the timer carries the accumulated wall-clock.
  std::int64_t histogram_total = 0;
  for (const char* bucket :
       {"serve.publish.le_1ms", "serve.publish.le_10ms",
        "serve.publish.le_100ms", "serve.publish.le_1s",
        "serve.publish.le_10s", "serve.publish.le_inf"}) {
    histogram_total += metrics.counter(bucket);
  }
  EXPECT_EQ(histogram_total, 1);
  EXPECT_GE(metrics.timer("serve.publish").seconds, 0.0);
  EXPECT_EQ(metrics.timer("serve.publish").count, 1);
}

TEST(ServeEngine, EnqueueEventsCarryTheObservedEpoch) {
  graph::EdgeList edges = rmat_edges(8, 3);
  obs::MemorySink sink;
  ServeOptions opts;
  opts.workers = 1;
  opts.cache_enabled = false;
  opts.sink = &sink;
  QueryEngine engine(std::move(edges), opts);

  Query q;
  q.kind = QueryKind::kBfs;
  q.source = 1;
  (void)engine.submit(q).get();
  engine.insert_edge(0, 7);
  engine.publish_inserts();
  (void)engine.submit(q).get();
  engine.shutdown();

  std::vector<std::uint64_t> enqueue_epochs;
  for (const obs::QueryEvent& e : sink.queries) {
    if (e.stage == obs::QueryEvent::Stage::kEnqueue) {
      enqueue_epochs.push_back(e.epoch);
    }
  }
  ASSERT_EQ(enqueue_epochs.size(), 2u);
  EXPECT_EQ(enqueue_epochs[0], 0u);
  EXPECT_EQ(enqueue_epochs[1], 1u);
}

/// Undirected key of an edge, as the symmetric epochs see it.
std::uint64_t pair_key(graph::vid_t u, graph::vid_t v) {
  const auto lo = static_cast<std::uint32_t>(std::min(u, v));
  const auto hi = static_cast<std::uint32_t>(std::max(u, v));
  return (std::uint64_t{lo} << 32) | hi;
}

/// The graph of the epoch after `present`'s writes: the base edges whose
/// pair no write touched, plus every pair the last write left present.
graph::CsrGraph epoch_graph(const graph::EdgeList& base,
                            const std::map<std::uint64_t, bool>& present,
                            graph::vid_t num_vertices) {
  graph::EdgeList el;
  el.num_vertices = num_vertices;
  for (const graph::Edge& e : base.edges) {
    if (!present.contains(pair_key(e.src, e.dst))) el.edges.push_back(e);
  }
  for (const auto& [key, is_present] : present) {
    if (is_present) {
      el.add(static_cast<graph::vid_t>(key >> 32),
             static_cast<graph::vid_t>(key & 0xFFFFFFFFu));
    }
  }
  return graph::build_csr(std::move(el));
}

/// A generated churn trace replayed in lockstep, one query in flight, by
/// 1 and 4 workers (each with its own pair-search scratch, reused across
/// epochs). Inserts, removals and a vertex-growing insert are published
/// mid-trace; every answer must equal reference_bfs on the graph of the
/// epoch it names, rebuilt from the base edges and the published writes.
class LockstepChurn : public testing::TestWithParam<int> {};

TEST_P(LockstepChurn, EveryAnswerMatchesItsEpochsGraph) {
  const graph::EdgeList base = rmat_edges(10, 41);
  const graph::CsrGraph g0 = oracle_graph(base);
  const graph::vid_t n = g0.num_vertices();

  TraceGenOptions gen;
  gen.num_queries = 360;
  gen.insert_every = 6;
  gen.remove_every = 9;
  gen.publish_every = 40;
  gen.seed = 43;
  std::vector<TraceOp> ops = generate_query_trace(g0, gen);
  // Before the third publish, grow the vertex set: n + 2 joins through
  // n + 1 (n arrives isolated); queries on the new ids follow it.
  const auto third = std::find_if(
      ops.begin(), ops.end(), [publishes = 0](const TraceOp& op) mutable {
        return op.kind == TraceOp::Kind::kPublish && ++publishes == 3;
      });
  ASSERT_NE(third, ops.end());
  const graph::vid_t hub = graph::top_out_degree_vertices(g0, 1).front();
  std::vector<TraceOp> growth(5);
  growth[0].kind = growth[1].kind = TraceOp::Kind::kInsert;
  growth[0].u = hub;
  growth[0].v = n + 1;
  growth[1].u = n + 1;
  growth[1].v = n + 2;
  growth[2].kind = TraceOp::Kind::kPublish;
  growth[3].query = {QueryKind::kDistance, hub, n + 2, ""};
  growth[4].query = {QueryKind::kBfs, n + 2, 0, ""};
  const auto at = ops.insert(std::next(third), growth.begin(), growth.end());
  TraceOp isolated;
  isolated.query = {QueryKind::kReachability, n, hub, ""};
  ops.insert(std::next(at, 5), isolated);

  ServeOptions opts;
  opts.workers = GetParam();
  opts.num_landmarks = 8;
  QueryEngine engine(base, opts);

  std::map<std::uint64_t, bool> present;
  std::vector<std::pair<std::uint64_t, bool>> buffered;
  graph::vid_t vertices = n;
  graph::CsrGraph oracle = oracle_graph(base);
  std::uint64_t epoch = 0;
  std::int64_t queries = 0;
  for (const TraceOp& op : ops) {
    switch (op.kind) {
      case TraceOp::Kind::kQuery: {
        const QueryResult r = engine.submit(op.query).get();
        SCOPED_TRACE(testing::Message() << "query " << queries << " epoch "
                                        << epoch);
        EXPECT_EQ(r.epoch, epoch);
        expect_matches_reference(oracle, r);
        ++queries;
        break;
      }
      case TraceOp::Kind::kInsert:
      case TraceOp::Kind::kRemove: {
        const bool insert = op.kind == TraceOp::Kind::kInsert;
        if (insert) {
          engine.insert_edge(op.u, op.v);
          vertices = std::max({vertices, op.u + 1, op.v + 1});
        } else {
          engine.remove_edge(op.u, op.v);
        }
        buffered.emplace_back(pair_key(op.u, op.v), insert);
        break;
      }
      case TraceOp::Kind::kPublish:
        epoch = engine.publish_inserts();
        for (const auto& [key, insert] : buffered) present[key] = insert;
        buffered.clear();
        oracle = epoch_graph(base, present, vertices);
        break;
    }
  }
  const ServeStats st = engine.stats();
  EXPECT_GE(epoch, 9u);
  EXPECT_EQ(engine.num_vertices(), n + 3);
  EXPECT_GT(st.edges_removed, 0);
  EXPECT_GT(st.cache_hits, 0);
  EXPECT_GT(st.pair_queries, 0);
  EXPECT_GT(st.traversals, 0);
  EXPECT_EQ(st.served, queries);
}

INSTANTIATE_TEST_SUITE_P(Workers, LockstepChurn, testing::Values(1, 4));

}  // namespace
}  // namespace bfsx::serve
