// Unit tests for the online successive-refinement tuner.
#include "core/online_tuner.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "graph/builder.h"
#include "graph/graph_stats.h"
#include "graph/rmat.h"

namespace bfsx::core {
namespace {

TEST(OnlineTuner, FindsMinimumOfSmoothSurface) {
  // Cost is minimised at (M, N) = (40, 15); a few probe rounds must get
  // close in log space.
  auto oracle = [](const HybridPolicy& p) {
    const double dm = std::log(p.m / 40.0);
    const double dn = std::log(p.n / 15.0);
    return 1.0 + dm * dm + dn * dn;
  };
  OnlineTunerOptions opts;
  opts.probes_per_round = 16;
  opts.rounds = 4;
  OnlineTuner tuner(opts);
  const TunedPolicy best = tuner.tune(oracle);
  EXPECT_EQ(tuner.probes_used(), 64);
  EXPECT_LT(best.seconds, 1.35);  // within the central basin
  EXPECT_GT(best.policy.m, 10.0);
  EXPECT_LT(best.policy.m, 160.0);
}

TEST(OnlineTuner, IsDeterministicUnderSeed) {
  auto oracle = [](const HybridPolicy& p) { return p.m + p.n; };
  OnlineTuner a;
  OnlineTuner b;
  const TunedPolicy ra = a.tune(oracle);
  const TunedPolicy rb = b.tune(oracle);
  EXPECT_EQ(ra.policy, rb.policy);
  EXPECT_DOUBLE_EQ(ra.seconds, rb.seconds);
}

TEST(OnlineTuner, ProbesStayInValidRange) {
  OnlineTuner tuner;
  while (!tuner.done()) {
    const HybridPolicy p = tuner.next_probe();
    EXPECT_GE(p.m, 1.0);
    EXPECT_LE(p.m, 300.0);
    EXPECT_GE(p.n, 1.0);
    EXPECT_LE(p.n, 300.0);
    EXPECT_NO_THROW(p.validate());
    tuner.record(p, p.m);  // arbitrary deterministic cost
  }
  EXPECT_NO_THROW((void)tuner.best());
}

TEST(OnlineTuner, IncrementalInterfaceGuards) {
  OnlineTuner tuner;
  EXPECT_THROW((void)tuner.best(), std::logic_error);
  while (!tuner.done()) tuner.record(tuner.next_probe(), 1.0);
  EXPECT_THROW((void)tuner.next_probe(), std::logic_error);
  EXPECT_THROW(tuner.record({10, 10}, 1.0), std::logic_error);
}

TEST(OnlineTuner, RejectsBadOptionsAndCosts) {
  OnlineTunerOptions bad;
  bad.probes_per_round = 1;
  EXPECT_THROW(OnlineTuner{bad}, std::invalid_argument);
  OnlineTuner tuner;
  const HybridPolicy p = tuner.next_probe();
  EXPECT_THROW(tuner.record(p, std::nan("")), std::invalid_argument);
  EXPECT_THROW(tuner.record(p, -1.0), std::invalid_argument);
}

TEST(OnlineTuner, ApproachesExhaustiveOnRealTrace) {
  graph::RmatParams gp;
  gp.scale = 12;
  const graph::CsrGraph g = graph::build_csr(graph::generate_rmat(gp));
  const LevelTrace trace =
      build_level_trace(g, graph::sample_roots(g, 1, 3)[0]);
  const sim::ArchSpec gpu = sim::make_kepler_gpu();
  const CandidateSweep sweep =
      sweep_single(trace, gpu, SwitchCandidates::paper_grid());

  OnlineTunerOptions opts;
  opts.probes_per_round = 12;
  opts.rounds = 4;
  OnlineTuner tuner(opts);
  const TunedPolicy found = tuner.tune([&](const HybridPolicy& p) {
    return replay_single(trace, gpu, p);
  });
  // 48 probes should land within 25% of the 1,000-candidate oracle.
  EXPECT_LE(found.seconds, sweep.best_seconds() * 1.25);
}

}  // namespace
}  // namespace bfsx::core
