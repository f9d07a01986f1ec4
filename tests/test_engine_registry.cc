// Tests for graph500::EngineRegistry: every engine family constructible
// by name from one place, helpful unknown-name errors, and — through a
// MemorySink attached at the single construction point — cross-engine
// agreement of the per-level work counters.
#include "graph500/engine_registry.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "graph/builder.h"
#include "graph/graph_stats.h"
#include "graph/rmat.h"
#include "graph500/reference_bfs.h"
#include "obs/sink.h"

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

TEST(EngineRegistry, ScenarioFactoriesCoverTheNativeFamily) {
  const EngineRegistry registry = EngineRegistry::with_builtin_engines();
  EXPECT_EQ(registry.scenario_names(),
            (std::vector<std::string>{"native-td", "native-bu",
                                      "native-hybrid"}));
}

TEST(EngineRegistry, ScenarioUnsupportedEngineNamesTheCapableOnes) {
  const EngineRegistry registry = EngineRegistry::with_builtin_engines();
  for (const char* name : {"msbfs", "hybrid", "dist"}) {
    try {
      (void)registry.make_scenario_engine(name, EngineConfig{});
      FAIL() << "expected UnknownEngineError for " << name;
    } catch (const UnknownEngineError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("does not support --scenario"), std::string::npos)
          << what;
      EXPECT_NE(what.find("native-hybrid"), std::string::npos) << what;
    }
  }
  // Unknown names keep the usual did-you-mean treatment.
  EXPECT_THROW((void)registry.make_scenario_engine("nosuch", EngineConfig{}),
               UnknownEngineError);
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

/// Every single-source engine — simulated, reference, cross-
/// architecture, distributed or wall-clock — runs the one level loop
/// (bfs/traverse.h), so each must return the same tree: the reference
/// levels, one parent map and one component size, on symmetric and
/// directed graphs, at any team width. Each run_end must also agree
/// with the run's own level events on depth and direction switches.
TEST(EngineRegistry, EverySingleSourceEngineReturnsTheSameTree) {
  const EngineRegistry registry = EngineRegistry::with_builtin_engines();
  const std::vector<std::string> engines = {
      "td",   "bu",        "ref",       "hybrid",       "cross",
      "dist", "native-td", "native-bu", "native-hybrid"};
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

}  // namespace
}  // namespace bfsx::graph500
