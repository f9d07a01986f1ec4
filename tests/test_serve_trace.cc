// serve trace format: parse/print round-trips, line-numbered errors,
// deterministic generation, replay bookkeeping, and the write path
// under churn (delta publishes answer like full rebuilds, for less).
#include "serve/trace.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "graph/builder.h"
#include "graph/rmat.h"
#include "obs/registry.h"
#include "serve/engine.h"

namespace bfsx::serve {
namespace {

std::vector<TraceOp> parse(const std::string& text) {
  std::istringstream in(text);
  return load_trace(in);
}

std::string what_of(const std::string& text) {
  try {
    (void)parse(text);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return {};
}

TEST(ServeTrace, ParsesEveryOpKind) {
  const std::vector<TraceOp> ops = parse(
      "# a comment\n"
      "\n"
      "bfs 3\n"
      "dist 1 5\n"
      "reach 0 2 @native-td\n"
      "insert 4 9\n"
      "publish\n");
  ASSERT_EQ(ops.size(), 5u);
  EXPECT_EQ(ops[0].query.kind, QueryKind::kBfs);
  EXPECT_EQ(ops[0].query.source, 3);
  EXPECT_EQ(ops[1].query.kind, QueryKind::kDistance);
  EXPECT_EQ(ops[1].query.target, 5);
  EXPECT_EQ(ops[2].query.kind, QueryKind::kReachability);
  EXPECT_EQ(ops[2].query.engine, "native-td");
  EXPECT_EQ(ops[3].kind, TraceOp::Kind::kInsert);
  EXPECT_EQ(ops[3].u, 4);
  EXPECT_EQ(ops[3].v, 9);
  EXPECT_EQ(ops[4].kind, TraceOp::Kind::kPublish);
}

TEST(ServeTrace, SaveLoadRoundTrips) {
  const std::vector<TraceOp> ops = parse(
      "bfs 1 @native-hybrid\ndist 2 3\nreach 4 5\ninsert 6 7\npublish\n");
  std::ostringstream out;
  save_trace(ops, out);
  const std::vector<TraceOp> again = parse(out.str());
  ASSERT_EQ(again.size(), ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ(again[i].kind, ops[i].kind) << i;
    EXPECT_EQ(again[i].query.kind, ops[i].query.kind) << i;
    EXPECT_EQ(again[i].query.source, ops[i].query.source) << i;
    EXPECT_EQ(again[i].query.target, ops[i].query.target) << i;
    EXPECT_EQ(again[i].query.engine, ops[i].query.engine) << i;
    EXPECT_EQ(again[i].u, ops[i].u) << i;
    EXPECT_EQ(again[i].v, ops[i].v) << i;
  }
}

TEST(ServeTrace, ErrorsNameTheLine) {
  EXPECT_NE(what_of("bfs 1\nfrobnicate 2\n").find("trace:2"),
            std::string::npos);
  EXPECT_NE(what_of("dist 1\n").find("trace:1"), std::string::npos);
  EXPECT_NE(what_of("bfs -7\n").find("trace:1"), std::string::npos);
  EXPECT_NE(what_of("bfs 1 2\n").find("trace:1"), std::string::npos);
  EXPECT_NE(what_of("bfs twelve\n").find("twelve"), std::string::npos);
  EXPECT_NE(what_of("dist 1 2 extra-token\n").find("@engine"),
            std::string::npos);
  EXPECT_NE(what_of("insert 1 99999999999999\n").find("out of range"),
            std::string::npos);
}

TEST(ServeTrace, GenerationIsDeterministic) {
  graph::RmatParams p;
  p.scale = 8;
  const graph::CsrGraph g = graph::build_csr(graph::generate_rmat(p));
  TraceGenOptions opts;
  opts.num_queries = 200;
  opts.insert_every = 40;
  opts.publish_every = 100;
  const std::vector<TraceOp> a = generate_query_trace(g, opts);
  const std::vector<TraceOp> b = generate_query_trace(g, opts);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.size(), 200u + 5u + 2u);  // queries + inserts + publishes
  std::size_t queries = 0;
  std::size_t inserts = 0;
  std::size_t publishes = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind) << i;
    EXPECT_EQ(a[i].query.source, b[i].query.source) << i;
    EXPECT_EQ(a[i].query.target, b[i].query.target) << i;
    switch (a[i].kind) {
      case TraceOp::Kind::kQuery: ++queries; break;
      case TraceOp::Kind::kInsert: ++inserts; break;
      case TraceOp::Kind::kPublish: ++publishes; break;
      case TraceOp::Kind::kRemove: ADD_FAILURE() << "remove at " << i; break;
    }
    if (a[i].kind == TraceOp::Kind::kQuery) {
      EXPECT_GE(a[i].query.source, 0);
      EXPECT_LT(a[i].query.source, g.num_vertices());
    }
  }
  EXPECT_EQ(queries, 200u);
  EXPECT_EQ(inserts, 5u);
  EXPECT_EQ(publishes, 2u);

  TraceGenOptions reseeded = opts;
  reseeded.seed = opts.seed + 1;
  const std::vector<TraceOp> c = generate_query_trace(g, reseeded);
  bool differs = c.size() != a.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].kind != c[i].kind ||
              a[i].query.source != c[i].query.source ||
              a[i].query.target != c[i].query.target;
  }
  EXPECT_TRUE(differs) << "a different seed produced an identical trace";
}

TEST(ServeTrace, ReplayAccountsForEveryOp) {
  graph::RmatParams p;
  p.scale = 8;
  graph::EdgeList edges = graph::generate_rmat(p);
  const graph::CsrGraph g = graph::build_csr(edges);
  TraceGenOptions gen;
  gen.num_queries = 120;
  gen.insert_every = 30;
  gen.publish_every = 60;
  const std::vector<TraceOp> ops = generate_query_trace(g, gen);

  ServeOptions sopt;
  sopt.workers = 2;
  sopt.queue_capacity = ops.size();
  QueryEngine engine(std::move(edges), sopt);
  const ReplaySummary sum = replay_trace(engine, ops);

  EXPECT_EQ(sum.queries, 120);
  EXPECT_EQ(sum.served + sum.rejected, 120);
  EXPECT_EQ(sum.rejected, 0);  // capacity fits the whole trace
  EXPECT_EQ(sum.inserts, 4);
  EXPECT_EQ(sum.publishes, 2);
  EXPECT_EQ(static_cast<std::int64_t>(sum.latencies.size()), sum.served);
  EXPECT_EQ(sum.answers.size(), 120u);
  EXPECT_GT(sum.wall_seconds, 0.0);
  EXPECT_EQ(engine.current_epoch(), 2u);
}

// An open-loop replay coalesces queries into MS-BFS passes; a lockstep
// replay serves each alone through the single-source engine. Over a
// read-only trace both must answer every query identically.
TEST(ServeTrace, OpenLoopAndLockstepReplaysDigestEqual) {
  graph::RmatParams p;
  p.scale = 10;
  graph::EdgeList edges = graph::generate_rmat(p);
  const graph::CsrGraph g = graph::build_csr(edges);
  TraceGenOptions gen;
  gen.num_queries = 300;
  const std::vector<TraceOp> ops = generate_query_trace(g, gen);

  ServeOptions sopt;
  sopt.workers = 2;
  sopt.queue_capacity = ops.size();
  QueryEngine open_engine(graph::EdgeList(edges), sopt);
  QueryEngine lockstep_engine(std::move(edges), sopt);
  const ReplaySummary open = replay_trace(open_engine, ops);
  const ReplaySummary lockstep = replay_trace_lockstep(lockstep_engine, ops);
  ASSERT_EQ(open.answers.size(), 300u);
  EXPECT_EQ(answer_digest(open.answers), answer_digest(lockstep.answers));

  std::vector<ReplayAnswer> changed = lockstep.answers;
  changed.back().distance += 1;
  EXPECT_NE(answer_digest(changed), answer_digest(lockstep.answers));
}

// One low-churn trace replayed in lockstep under full-rebuild, delta
// and delta+repair publishing. Delta epochs and repaired caches must be
// indistinguishable from full rebuilds except in cost: every recorded
// answer (distance, reachability, BFS level-map checksum, epoch) is
// identical, and at <= 0.1% edge churn per publish a delta graph
// publish is at least 5x cheaper than a rebuild.
TEST(ServeChurn, DeltaPublishesAnswerLikeRebuildsAtAFifthOfTheCost) {
  graph::RmatParams p;
  p.scale = 12;
  p.edgefactor = 16;
  p.seed = 2014;
  const graph::EdgeList edges = graph::generate_rmat(p);
  const graph::CsrGraph g = graph::build_csr(edges);
  TraceGenOptions gen;
  gen.num_queries = 96;
  gen.bfs_fraction = 0.05;
  gen.hot_fraction = 0.9;
  gen.hot_set = 16;
  gen.insert_every = 2;
  gen.publish_every = 12;
  gen.seed = 777;
  const std::vector<TraceOp> ops = generate_query_trace(g, gen);

  std::int64_t writes = 0;
  std::int64_t publishes = 0;
  for (const TraceOp& op : ops) {
    writes += op.kind == TraceOp::Kind::kInsert ||
              op.kind == TraceOp::Kind::kRemove;
    publishes += op.kind == TraceOp::Kind::kPublish;
  }
  ASSERT_GT(publishes, 0);
  const double churn_per_publish = static_cast<double>(writes) /
                                   static_cast<double>(publishes) /
                                   static_cast<double>(g.num_edges());
  EXPECT_LE(churn_per_publish, 0.001);

  struct Config {
    const char* name;
    bool delta;
    bool repair;
  };
  const Config configs[] = {{"full rebuild", false, false},
                            {"delta", true, false},
                            {"delta+repair", true, true}};
  std::vector<std::vector<ReplayAnswer>> answers;
  std::vector<double> publish_ms;
  for (const Config& c : configs) {
    ServeOptions sopt;
    sopt.workers = 2;
    sopt.cache_enabled = true;
    sopt.num_landmarks = 16;
    sopt.queue_capacity = ops.size();
    sopt.delta_publish = c.delta;
    sopt.repair_cache = c.repair;
    QueryEngine engine(graph::EdgeList(edges), sopt);
    const ReplaySummary sum = replay_trace_lockstep(engine, ops);
    obs::Registry metrics;
    engine.export_metrics(metrics);
    engine.shutdown();
    ASSERT_EQ(sum.publishes, publishes) << c.name;
    answers.push_back(sum.answers);
    publish_ms.push_back(metrics.timer("serve.publish").seconds * 1e3 /
                         static_cast<double>(publishes));
  }

  const auto fields = [](const ReplayAnswer& a) {
    return std::tuple(a.ok, a.kind, a.distance, a.reachable, a.epoch,
                      a.bfs_checksum);
  };
  ASSERT_EQ(answers[0].size(), 96u);
  for (std::size_t c = 1; c < answers.size(); ++c) {
    ASSERT_EQ(answers[c].size(), answers[0].size()) << configs[c].name;
    for (std::size_t i = 0; i < answers[0].size(); ++i) {
      EXPECT_EQ(fields(answers[c][i]), fields(answers[0][i]))
          << configs[c].name << ", answer " << i;
    }
  }
  EXPECT_GE(publish_ms[0], 5.0 * publish_ms[1])
      << "per-publish ms: full rebuild " << publish_ms[0] << ", delta "
      << publish_ms[1];
}

}  // namespace
}  // namespace bfsx::serve
