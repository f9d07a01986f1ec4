// Unit tests for candidate grids, sweeps and the exhaustive pick.
#include "core/tuner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "graph/builder.h"
#include "graph/graph_stats.h"
#include "graph/rmat.h"

namespace bfsx::core {
namespace {

LevelTrace rmat_trace() {
  graph::RmatParams p;
  p.scale = 12;
  const graph::CsrGraph g = graph::build_csr(graph::generate_rmat(p));
  return build_level_trace(g, graph::sample_roots(g, 1, 3)[0]);
}

TEST(Candidates, LogSpacedCoversRangeMonotonically) {
  const auto v = SwitchCandidates::log_spaced(1.0, 300.0, 10);
  ASSERT_EQ(v.size(), 10u);
  EXPECT_DOUBLE_EQ(v.front(), 1.0);
  EXPECT_NEAR(v.back(), 300.0, 1e-9);
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
}

TEST(Candidates, LogSpacedRejectsBadRanges) {
  EXPECT_THROW(SwitchCandidates::log_spaced(0.0, 10.0, 5),
               std::invalid_argument);
  EXPECT_THROW(SwitchCandidates::log_spaced(10.0, 1.0, 5),
               std::invalid_argument);
  EXPECT_THROW(SwitchCandidates::log_spaced(1.0, 10.0, 0),
               std::invalid_argument);
}

TEST(Candidates, PaperGridHasAThousandCases) {
  const SwitchCandidates c = SwitchCandidates::paper_grid();
  EXPECT_EQ(c.size(), 1000u);  // the Fig. 8 setup
}

TEST(Candidates, AtEnumeratesFullCross) {
  SwitchCandidates c;
  c.m_values = {1, 2};
  c.n_values = {10, 20, 30};
  ASSERT_EQ(c.size(), 6u);
  EXPECT_EQ(c.at(0).m, 1);
  EXPECT_EQ(c.at(0).n, 10);
  EXPECT_EQ(c.at(5).m, 2);
  EXPECT_EQ(c.at(5).n, 30);
}

TEST(Candidates, CoarseGridIsTenBySix) {
  const SwitchCandidates c = SwitchCandidates::coarse_grid();
  ASSERT_EQ(c.m_values.size(), 10u);
  ASSERT_EQ(c.n_values.size(), 6u);
  EXPECT_EQ(c.size(), 60u);
  EXPECT_DOUBLE_EQ(c.m_values.front(), 1.0);
  EXPECT_NEAR(c.m_values.back(), 300.0, 1e-9);
  EXPECT_NEAR(c.n_values.back(), 300.0, 1e-9);
}

TEST(Candidates, LogSpacedCollapsesADegenerateRange) {
  EXPECT_EQ(SwitchCandidates::log_spaced(7.0, 300.0, 1),
            std::vector<double>{7.0});
  // lo == hi: every point coincides and deduplicates to one.
  EXPECT_EQ(SwitchCandidates::log_spaced(5.0, 5.0, 4),
            std::vector<double>{5.0});
}

TEST(Sweep, PricesEveryCandidateAndFindsExtremes) {
  const LevelTrace t = rmat_trace();
  const sim::ArchSpec cpu = sim::make_sandy_bridge_cpu();
  const SwitchCandidates c = SwitchCandidates::coarse_grid();
  const CandidateSweep sweep = sweep_single(t, cpu, c);
  ASSERT_EQ(sweep.seconds.size(), c.size());
  for (std::size_t i = 0; i < sweep.seconds.size(); ++i) {
    EXPECT_GE(sweep.seconds[i], sweep.best_seconds());
    EXPECT_LE(sweep.seconds[i], sweep.worst_seconds());
  }
  EXPECT_GE(sweep.mean_seconds, sweep.best_seconds());
  EXPECT_LE(sweep.mean_seconds, sweep.worst_seconds());
}

TEST(Sweep, BestBeatsWorstStrictlyOnRealTrace) {
  // On a scale-free graph the switching point genuinely matters. Scale
  // 13: at scale 12 the best/worst ratio sits right at the 0.5
  // threshold (0.48-0.53 across seeds), so the margin there was a
  // coin-flip on the generator's stream layout; one scale up it is a
  // robust ~0.32 for every seed tried.
  graph::RmatParams p;
  p.scale = 13;
  const graph::CsrGraph g = graph::build_csr(graph::generate_rmat(p));
  const LevelTrace t = build_level_trace(g, graph::sample_roots(g, 1, 3)[0]);
  const sim::ArchSpec gpu = sim::make_kepler_gpu();
  const CandidateSweep sweep =
      sweep_single(t, gpu, SwitchCandidates::paper_grid());
  EXPECT_LT(sweep.best_seconds(), 0.5 * sweep.worst_seconds());
}

TEST(Sweep, SweepEntriesMatchDirectReplay) {
  const LevelTrace t = rmat_trace();
  const sim::ArchSpec cpu = sim::make_sandy_bridge_cpu();
  const SwitchCandidates c = SwitchCandidates::coarse_grid();
  const CandidateSweep sweep = sweep_single(t, cpu, c);
  for (std::size_t i = 0; i < c.size(); i += 7) {
    EXPECT_DOUBLE_EQ(sweep.seconds[i], replay_single(t, cpu, c.at(i)));
  }
}

TEST(Sweep, CrossSweepRespectsInnerPolicy) {
  const LevelTrace t = rmat_trace();
  const sim::ArchSpec cpu = sim::make_sandy_bridge_cpu();
  const sim::ArchSpec gpu = sim::make_kepler_gpu();
  const sim::InterconnectSpec link;
  const SwitchCandidates c = SwitchCandidates::coarse_grid();
  const CandidateSweep sweep =
      sweep_cross(t, cpu, gpu, link, c, HybridPolicy{14, 24});
  for (std::size_t i = 0; i < c.size(); i += 11) {
    EXPECT_DOUBLE_EQ(sweep.seconds[i],
                     replay_cross(t, cpu, gpu, link, c.at(i), {14, 24}));
  }
}

TEST(PickBest, ReturnsTheMinimum) {
  const LevelTrace t = rmat_trace();
  const sim::ArchSpec cpu = sim::make_sandy_bridge_cpu();
  const SwitchCandidates c = SwitchCandidates::coarse_grid();
  const CandidateSweep sweep = sweep_single(t, cpu, c);
  const TunedPolicy best = pick_best(sweep, c);
  EXPECT_DOUBLE_EQ(best.seconds, sweep.best_seconds());
  EXPECT_DOUBLE_EQ(replay_single(t, cpu, best.policy), best.seconds);
}

TEST(Sweep, MeanIsTheAverageOfEveryCandidate) {
  const LevelTrace t = rmat_trace();
  const SwitchCandidates c = SwitchCandidates::coarse_grid();
  const CandidateSweep sweep = sweep_single(t, sim::make_kepler_gpu(), c);
  double sum = 0.0;
  for (double s : sweep.seconds) sum += s;
  EXPECT_DOUBLE_EQ(sweep.mean_seconds, sum / static_cast<double>(c.size()));
}

TEST(Sweep, TiesResolveToTheFirstCandidate) {
  // The grid is sorted, so a tie labels the smallest knob: two equal
  // candidates price the same and the first one must win, as best and
  // as worst.
  const LevelTrace t = rmat_trace();
  SwitchCandidates c;
  c.m_values = {12.0, 12.0};
  c.n_values = {20.0};
  const CandidateSweep sweep = sweep_single(t, sim::make_sandy_bridge_cpu(), c);
  ASSERT_EQ(sweep.seconds[0], sweep.seconds[1]);
  EXPECT_EQ(sweep.best_index, 0u);
  EXPECT_EQ(sweep.worst_index, 0u);
}

TEST(Sweep, EmptyGridThrows) {
  const LevelTrace t = rmat_trace();
  EXPECT_THROW(sweep_single(t, sim::make_sandy_bridge_cpu(), {}),
               std::invalid_argument);
  EXPECT_THROW(sweep_cross(t, sim::make_sandy_bridge_cpu(),
                           sim::make_kepler_gpu(), sim::InterconnectSpec{},
                           {}, HybridPolicy{14, 24}),
               std::invalid_argument);
}

}  // namespace
}  // namespace bfsx::core
