// Tests for graph500::EngineRegistry: every engine family constructible
// by name from one place, helpful unknown-name errors, cross-engine
// agreement of the per-level work counters (through a MemorySink
// attached at the single construction point), and every engine on
// high-diameter graphs through each batch mode of the runner.
#include "graph500/engine_registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/graph_stats.h"
#include "graph/rmat.h"
#include "graph500/reference_bfs.h"
#include "obs/sink.h"
#include "walled_grid.h"

namespace bfsx::graph500 {
namespace {

graph::CsrGraph small_graph() {
  graph::RmatParams p;
  p.scale = 8;
  p.edgefactor = 16;
  p.seed = 11;
  return graph::build_csr(graph::generate_rmat(p));
}

TEST(EngineRegistry, EveryBuiltinConstructsAndTraverses) {
  const EngineRegistry registry = EngineRegistry::with_builtin_engines();
  const graph::CsrGraph g = small_graph();
  const graph::vid_t root = graph::sample_roots(g, 1, 5)[0];

  const std::vector<std::string> names = registry.names();
  ASSERT_EQ(names.size(), 10u);
  for (const std::string& name : names) {
    const EngineConfig cfg;  // defaults suffice for every family
    const BfsEngine engine = registry.make_engine(name, cfg);
    const TimedBfs timed = engine(g, root);
    EXPECT_GT(timed.result.reached, 1) << name;
    EXPECT_GT(timed.seconds, 0.0) << name;
    EXPECT_EQ(timed.result.parent[static_cast<std::size_t>(root)], root)
        << name;
  }
}

TEST(EngineRegistry, MakeBatchEngineServesEveryEntry) {
  const EngineRegistry registry = EngineRegistry::with_builtin_engines();
  const graph::CsrGraph g = small_graph();
  const std::vector<graph::vid_t> batch = graph::sample_roots(g, 3, 5);
  // "msbfs" has a native batch factory; "hybrid" goes through the
  // one-root-at-a-time wrapper. Both must honour batch order.
  for (const char* name : {"msbfs", "hybrid"}) {
    const BatchBfsEngine engine =
        registry.make_batch_engine(name, EngineConfig{});
    const std::vector<TimedBfs> timed = engine(g, batch);
    ASSERT_EQ(timed.size(), batch.size()) << name;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_GT(timed[i].result.reached, 1) << name;
      EXPECT_EQ(timed[i]
                    .result.parent[static_cast<std::size_t>(batch[i])],
                batch[i])
          << name;
    }
  }
}

TEST(EngineRegistry, EntriesCarryDescriptionsAndDescribeListsThem) {
  const EngineRegistry registry = EngineRegistry::with_builtin_engines();
  const std::string usage = registry.describe();
  for (const auto& entry : registry.entries()) {
    EXPECT_FALSE(entry.description.empty()) << entry.name;
    EXPECT_NE(usage.find(entry.name), std::string::npos);
    EXPECT_NE(usage.find(entry.description), std::string::npos);
  }
}

TEST(EngineRegistry, UnknownNameListsEveryValidEngine) {
  const EngineRegistry registry = EngineRegistry::with_builtin_engines();
  try {
    (void)registry.make_engine("nosuch", EngineConfig{});
    FAIL() << "expected UnknownEngineError";
  } catch (const UnknownEngineError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'nosuch'"), std::string::npos);
    EXPECT_NE(what.find("valid engines:"), std::string::npos);
    for (const std::string& name : registry.names()) {
      EXPECT_NE(what.find(name), std::string::npos) << name;
    }
  }
}

TEST(EngineRegistry, TypoGetsDidYouMeanSuggestion) {
  const EngineRegistry registry = EngineRegistry::with_builtin_engines();
  try {
    (void)registry.make_engine("hybird", EngineConfig{});
    FAIL() << "expected UnknownEngineError";
  } catch (const UnknownEngineError& e) {
    EXPECT_NE(std::string(e.what()).find("did you mean 'hybrid'?"),
              std::string::npos)
        << e.what();
  }
}

TEST(EngineRegistry, RejectsDuplicateAndMalformedRegistrations) {
  EngineRegistry registry;
  const auto factory = [](const EngineConfig&) -> BfsEngine {
    return nullptr;
  };
  registry.register_engine({"x", "an engine", factory});
  EXPECT_THROW(registry.register_engine({"x", "again", factory}),
               std::invalid_argument);
  EXPECT_THROW(registry.register_engine({"", "no name", factory}),
               std::invalid_argument);
  EXPECT_THROW(registry.register_engine({"y", "no factory", nullptr}),
               std::invalid_argument);
}

/// The per-level work counters (|V|cq, |E|cq, next) are properties of
/// the level sets, which every correct engine shares — so the traces of
/// the native, simulated, cross-architecture, and distributed engines
/// must agree level by level once each has a sink attached through the
/// registry's one construction point.
TEST(EngineRegistry, CrossEngineLevelCountersAgree) {
  const EngineRegistry registry = EngineRegistry::with_builtin_engines();
  const graph::CsrGraph g = small_graph();
  const graph::vid_t root = graph::sample_roots(g, 1, 5)[0];

  const std::vector<std::string> engines = {
      "td",   "bu",        "ref",       "hybrid",       "cross",
      "dist", "native-td", "native-bu", "native-hybrid"};
  std::vector<std::vector<obs::LevelEvent>> traces;
  for (const std::string& name : engines) {
    obs::MemorySink sink;
    EngineConfig cfg;
    cfg.sink = &sink;
    (void)registry.make_engine(name, cfg)(g, root);
    ASSERT_EQ(sink.run_begins.size(), 1u) << name;
    ASSERT_EQ(sink.run_ends.size(), 1u) << name;
    EXPECT_EQ(sink.run_begins[0].root, root) << name;
    traces.push_back(sink.levels_of_run(0));
    ASSERT_FALSE(traces.back().empty()) << name;
  }

  const std::vector<obs::LevelEvent>& golden = traces.front();
  for (std::size_t e = 1; e < traces.size(); ++e) {
    ASSERT_EQ(traces[e].size(), golden.size()) << engines[e];
    for (std::size_t lvl = 0; lvl < golden.size(); ++lvl) {
      EXPECT_EQ(traces[e][lvl].level, golden[lvl].level) << engines[e];
      EXPECT_EQ(traces[e][lvl].frontier_vertices,
                golden[lvl].frontier_vertices)
          << engines[e] << " level " << lvl;
      EXPECT_EQ(traces[e][lvl].frontier_edges, golden[lvl].frontier_edges)
          << engines[e] << " level " << lvl;
      EXPECT_EQ(traces[e][lvl].next_vertices, golden[lvl].next_vertices)
          << engines[e] << " level " << lvl;
    }
  }
}

/// Every engine — simulated, reference, cross-architecture,
/// distributed, wall-clock or MS-BFS (here a batch of one) — runs the
/// one level loop (bfs/traverse.h) under one parent rule, so each must
/// return the same tree: the reference levels, one parent map and one
/// component size, on symmetric and directed graphs, at any team width.
/// Each run_end must also agree with the run's own level events on
/// depth and direction switches.
TEST(EngineRegistry, EverySingleSourceEngineReturnsTheSameTree) {
  const EngineRegistry registry = EngineRegistry::with_builtin_engines();
  const std::vector<std::string> engines = {
      "td",        "bu",        "ref",           "hybrid", "cross",
      "dist",      "native-td", "native-bu",     "native-hybrid",
      "msbfs"};
  graph::RmatParams p;
  p.scale = 12;
  p.seed = 3;
  const std::vector<graph::CsrGraph> graphs = {
      graph::build_csr(graph::generate_rmat(p)),
      graph::build_directed_csr(graph::generate_rmat(p))};

#ifdef _OPENMP
  const int saved_threads = omp_get_max_threads();
#endif
  for (const int threads : {1, 4}) {
#ifdef _OPENMP
    omp_set_num_threads(threads);
#endif
    for (const graph::CsrGraph& g : graphs) {
      for (const graph::vid_t root : graph::sample_roots(g, 4, 7)) {
        const bfs::BfsResult want = reference_bfs(g, root);
        std::vector<graph::vid_t> parent;
        for (const std::string& name : engines) {
          const std::string where =
              name + (g.is_symmetric() ? " symmetric" : " directed") +
              " root " + std::to_string(root) + " threads " +
              std::to_string(threads);
          obs::MemorySink sink;
          EngineConfig cfg;
          cfg.sink = &sink;
          const TimedBfs got = registry.make_engine(name, cfg)(g, root);
          EXPECT_EQ(got.result.level, want.level) << where;
          EXPECT_EQ(got.result.edges_in_component, want.edges_in_component)
              << where;
          if (parent.empty()) {
            parent = got.result.parent;
          } else {
            EXPECT_EQ(got.result.parent, parent) << where;
          }

          ASSERT_EQ(sink.run_ends.size(), 1u) << where;
          const std::vector<obs::LevelEvent> levels = sink.levels_of_run(0);
          int changes = 0;
          for (std::size_t i = 1; i < levels.size(); ++i) {
            changes += levels[i].direction != levels[i - 1].direction ? 1 : 0;
          }
          EXPECT_EQ(sink.run_ends[0].depth,
                    static_cast<std::int32_t>(levels.size()))
              << where;
          EXPECT_EQ(sink.run_ends[0].direction_switches, changes) << where;
        }
      }
    }
  }
#ifdef _OPENMP
  omp_set_num_threads(saved_threads);
#endif
}

/// The cross-architecture engine reports its frontier shipment as an
/// explicit handoff event carrying the wire time.
TEST(EngineRegistry, CrossEngineEmitsHandoffEvent) {
  const EngineRegistry registry = EngineRegistry::with_builtin_engines();
  const graph::CsrGraph g = small_graph();
  const graph::vid_t root = graph::sample_roots(g, 1, 5)[0];

  obs::MemorySink sink;
  EngineConfig cfg;
  cfg.sink = &sink;
  (void)registry.make_engine("cross", cfg)(g, root);

  std::size_t handoffs = 0;
  for (const auto& [run, event] : sink.levels) {
    if (event.kind != obs::LevelEvent::Kind::kHandoff) continue;
    ++handoffs;
    EXPECT_GE(event.comm_seconds, 0.0);
    EXPECT_GT(event.frontier_vertices, 0);
  }
  EXPECT_EQ(handoffs, 1u);
}

/// The dist engine's superstep events carry the BSP-only columns.
TEST(EngineRegistry, DistEngineReportsCommAndBalance) {
  const EngineRegistry registry = EngineRegistry::with_builtin_engines();
  const graph::CsrGraph g = small_graph();
  const graph::vid_t root = graph::sample_roots(g, 1, 5)[0];

  obs::MemorySink sink;
  EngineConfig cfg;
  cfg.sink = &sink;  // null cluster: the factory builds a 2-device one
  (void)registry.make_engine("dist", cfg)(g, root);

  const std::vector<obs::LevelEvent> levels = sink.levels_of_run(0);
  ASSERT_FALSE(levels.empty());
  for (const obs::LevelEvent& lvl : levels) {
    EXPECT_GT(lvl.comm_seconds, 0.0);  // every superstep pays the fabric
    EXPECT_GE(lvl.balance, 1.0);
    EXPECT_EQ(lvl.device, "cluster[2]");
  }
}

/// Every registered engine, in its batched form (so msbfs runs beside
/// the per-root engines), on graphs whose traversals take many levels:
/// a walled grid, whose walls are isolated ids, and a path, one vertex
/// per level.
class BuiltinEngine : public ::testing::TestWithParam<std::string> {};

/// Runs the named engine over `roots` in one batch; each tree must have
/// the reference levels and component and pass the Graph 500 checks.
void expect_reference_trees(const std::string& name, const graph::CsrGraph& g,
                            const std::vector<graph::vid_t>& roots) {
  const BatchBfsEngine engine =
      EngineRegistry::with_builtin_engines().make_batch_engine(
          name, EngineConfig{});
  const std::vector<TimedBfs> got = engine(g, roots);
  ASSERT_EQ(got.size(), roots.size()) << name;
  for (std::size_t i = 0; i < roots.size(); ++i) {
    const std::string where = name + " root " + std::to_string(roots[i]);
    const bfs::BfsResult want = reference_bfs(g, roots[i]);
    EXPECT_EQ(got[i].result.level, want.level) << where;
    EXPECT_EQ(got[i].result.reached, want.reached) << where;
    EXPECT_EQ(got[i].result.edges_in_component, want.edges_in_component)
        << where;
    EXPECT_TRUE(bfs::validate_bfs(g, roots[i], got[i].result).ok) << where;
  }
}

TEST_P(BuiltinEngine, MatchesTheReferenceOnAWalledGrid) {
  const graph::CsrGraph g = test::walled_grid(48, 40, 0.3, 23);
  ASSERT_GT(test::count_isolated(g), 0);
  expect_reference_trees(GetParam(), g, graph::sample_roots(g, 3, 5));
}

TEST_P(BuiltinEngine, MatchesTheReferenceOnAPath) {
  constexpr graph::vid_t kLength = 1200;
  const graph::CsrGraph g = graph::build_csr(graph::make_path(kLength));
  const std::vector<graph::vid_t> roots = {0, kLength / 2, kLength - 1};
  expect_reference_trees(GetParam(), g, roots);
  EXPECT_EQ(reference_bfs(g, 0).level.back(), kLength - 1);
}

/// The runner's three dispatch modes run the same roots, so they must
/// report the same runs, each validated, whichever engine serves them.
TEST_P(BuiltinEngine, EveryBatchModeValidatesTheSameRunsOnAWalledGrid) {
  const graph::CsrGraph g = test::walled_grid(32, 32, 0.15, 5);
  const BatchBfsEngine engine =
      EngineRegistry::with_builtin_engines().make_batch_engine(
          GetParam(), EngineConfig{});
  RunnerOptions opts;
  opts.num_roots = 8;
  const BenchmarkResult serial = run_benchmark(g, engine, opts);
  ASSERT_EQ(serial.runs.size(), 8u);
  EXPECT_EQ(serial.validation_failures, 0);
  for (const BatchMode mode : {BatchMode::kParallelRoots, BatchMode::kMsBfs}) {
    opts.batch_mode = mode;
    const BenchmarkResult other = run_benchmark(g, engine, opts);
    EXPECT_EQ(other.validation_failures, 0) << to_string(mode);
    ASSERT_EQ(other.runs.size(), serial.runs.size()) << to_string(mode);
    for (std::size_t i = 0; i < serial.runs.size(); ++i) {
      EXPECT_EQ(other.runs[i].root, serial.runs[i].root) << to_string(mode);
      EXPECT_EQ(other.runs[i].reached, serial.runs[i].reached)
          << to_string(mode);
      EXPECT_EQ(other.runs[i].edges, serial.runs[i].edges) << to_string(mode);
      EXPECT_TRUE(other.runs[i].valid) << to_string(mode);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Registry, BuiltinEngine,
    ::testing::ValuesIn(EngineRegistry::with_builtin_engines().names()),
    [](const ::testing::TestParamInfo<std::string>& engine) {
      std::string id = engine.param;
      std::replace(id.begin(), id.end(), '-', '_');
      return id;
    });

}  // namespace
}  // namespace bfsx::graph500
