// Golden-file tests for the trace writers (obs/writers.h): every JSONL
// line must parse as a flat JSON object carrying the versioned schema,
// and the per-level counters must agree with the independently built
// core::LevelTrace for the same graph and root.
#include "obs/writers.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/adaptive_bfs.h"
#include "core/level_trace.h"
#include "graph/builder.h"
#include "graph/graph_stats.h"
#include "graph/rmat.h"
#include "sim/arch_config.h"

namespace bfsx::obs {
namespace {

graph::CsrGraph small_graph() {
  graph::RmatParams p;
  p.scale = 8;
  p.edgefactor = 16;
  p.seed = 7;
  return graph::build_csr(graph::generate_rmat(p));
}

sim::Device cpu_device() {
  return sim::Device{sim::parse_arch_spec("base=cpu,name=cpu")};
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// Minimal field extraction from the flat one-line objects the writer
/// emits (values contain no braces or commas-in-strings to confuse it).
std::string json_field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return {};
  std::size_t begin = at + needle.size();
  std::size_t end = line.find_first_of(",}", begin);
  std::string value = line.substr(begin, end - begin);
  if (value.size() >= 2 && value.front() == '"' && value.back() == '"') {
    value = value.substr(1, value.size() - 2);
  }
  return value;
}

std::int64_t json_int(const std::string& line, const std::string& key) {
  const std::string value = json_field(line, key);
  EXPECT_FALSE(value.empty()) << "missing field " << key << " in " << line;
  return value.empty() ? -1 : std::stoll(value);
}

/// Structural well-formedness a real parser would enforce: one flat
/// object per line, keys and string values quoted, braces balanced.
void expect_parses_as_flat_object(const std::string& line) {
  ASSERT_FALSE(line.empty());
  EXPECT_EQ(line.front(), '{') << line;
  EXPECT_EQ(line.back(), '}') << line;
  EXPECT_EQ(line.find('{', 1), std::string::npos) << "nested: " << line;
  EXPECT_EQ(std::count(line.begin(), line.end(), '"') % 2, 0) << line;
}

TEST(TraceSink, JsonlGoldenAgainstLevelTrace) {
  const graph::CsrGraph g = small_graph();
  const graph::vid_t root = graph::sample_roots(g, 1, 3)[0];
  const core::LevelTrace golden = core::build_level_trace(g, root);

  std::ostringstream out;
  JsonlWriter sink(out);
  const core::CombinationRun run = core::run_combination(
      g, root, cpu_device(), core::HybridPolicy{14.0, 24.0}, &sink);

  const std::vector<std::string> lines = split_lines(out.str());
  ASSERT_EQ(lines.size(), run.levels.size() + 2);  // begin + levels + end

  for (const std::string& line : lines) {
    expect_parses_as_flat_object(line);
    EXPECT_EQ(json_field(line, "schema"), "bfsx.trace.v1") << line;
    EXPECT_FALSE(json_field(line, "event").empty()) << line;
    EXPECT_EQ(json_int(line, "run"), 0) << line;
  }

  EXPECT_EQ(json_field(lines.front(), "event"), "run_begin");
  EXPECT_EQ(json_field(lines.front(), "engine"), "hybrid");
  EXPECT_EQ(json_int(lines.front(), "root"), root);
  EXPECT_EQ(json_int(lines.front(), "vertices"), g.num_vertices());
  EXPECT_EQ(json_int(lines.front(), "edges"), g.num_edges());

  ASSERT_EQ(golden.levels.size(), run.levels.size());
  for (std::size_t i = 0; i < run.levels.size(); ++i) {
    const std::string& line = lines[i + 1];
    const core::TraceLevel& want = golden.levels[i];
    EXPECT_EQ(json_field(line, "event"), "level") << line;
    EXPECT_EQ(json_int(line, "level"), want.level);
    EXPECT_EQ(json_field(line, "device"), "cpu");
    EXPECT_EQ(json_int(line, "frontier_vertices"), want.frontier_vertices);
    EXPECT_EQ(json_int(line, "frontier_edges"), want.frontier_edges);
    EXPECT_EQ(json_int(line, "next_vertices"), want.next_vertices);
    const std::string dir = json_field(line, "direction");
    if (dir == "BU") {
      EXPECT_EQ(json_int(line, "bu_edges_hit"), want.bu_edges_hit);
      EXPECT_EQ(json_int(line, "bu_edges_miss"), want.bu_edges_miss);
    } else {
      EXPECT_EQ(dir, "TD") << line;
      EXPECT_EQ(json_int(line, "bu_edges_hit"), 0);
    }
  }

  const std::string& end = lines.back();
  EXPECT_EQ(json_field(end, "event"), "run_end");
  EXPECT_EQ(json_int(end, "reached"), run.result.reached);
  EXPECT_EQ(json_int(end, "depth"),
            static_cast<std::int64_t>(run.levels.size()));
  EXPECT_EQ(json_int(end, "direction_switches"), run.direction_switches);
  EXPECT_FALSE(json_field(end, "seconds").empty());
}

TEST(TraceSink, JsonlSeparatesConsecutiveRuns) {
  const graph::CsrGraph g = small_graph();
  const std::vector<graph::vid_t> roots = graph::sample_roots(g, 2, 3);

  std::ostringstream out;
  JsonlWriter sink(out);
  const sim::Device cpu = cpu_device();
  for (const graph::vid_t root : roots) {
    (void)core::run_combination(g, root, cpu, core::HybridPolicy{14.0, 24.0},
                                &sink);
  }
  const std::vector<std::string> lines = split_lines(out.str());
  std::int64_t max_run = -1;
  for (const std::string& line : lines) {
    max_run = std::max(max_run, json_int(line, "run"));
  }
  EXPECT_EQ(max_run, 1);  // two runs: indices 0 and 1
}

TEST(TraceSink, CsvRowsHaveHeaderColumnCount) {
  const graph::CsrGraph g = small_graph();
  const graph::vid_t root = graph::sample_roots(g, 1, 3)[0];

  std::ostringstream out;
  CsvWriter sink(out);
  const core::CombinationRun run = core::run_combination(
      g, root, cpu_device(), core::HybridPolicy{14.0, 24.0}, &sink);

  const std::vector<std::string> lines = split_lines(out.str());
  ASSERT_EQ(lines.size(), run.levels.size() + 3);  // header, begin, lv, end
  const auto columns = [](const std::string& line) {
    return std::count(line.begin(), line.end(), ',') + 1;
  };
  EXPECT_NE(lines.front().find("schema,event,run"), std::string::npos);
  EXPECT_NE(lines.front().find("frontier_edges"), std::string::npos);
  for (const std::string& line : lines) {
    EXPECT_EQ(columns(line), columns(lines.front())) << line;
  }
  // Data rows all carry the schema tag in column one.
  for (std::size_t i = 1; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i].rfind("bfsx.trace.v1,", 0), 0u) << lines[i];
  }
}

TEST(TraceSink, FileConstructorRejectsUnwritablePath) {
  EXPECT_THROW(JsonlWriter("/nonexistent-dir/trace.jsonl"),
               std::runtime_error);
}

}  // namespace
}  // namespace bfsx::obs
