// Checks perfbench's own arithmetic on hand-built inputs: the ten-beyond
// tail rule, harmonic-mean TEPS against graph500::compute_teps_stats,
// open-loop latency behind a stalling server, and the attribution of
// queue waits and pass times to dispatches from two workers.
//
// Run: perfbench_selftest (exit code 0 when every check passes).
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>
#include <vector>

#include "graph500/teps.h"
#include "stats.h"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b, double tol = 1e-9) {
  return std::fabs(a - b) <= tol;
}

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void test_tail_rule() {
  using perfbench::tail_percentile;
  // 64 searches: the 54th smallest has exactly ten beyond it (p84).
  check(near(tail_percentile(one_to(64), 0.99), 54.0), "64 samples -> p84");
  // p99 needs 1000 samples; then exactly ten lie beyond it.
  check(near(tail_percentile(one_to(1000), 0.99), 990.0), "1000 -> p99");
  check(near(tail_percentile(one_to(2000), 0.99), 1980.0), "2000 -> p99");
  check(near(tail_percentile(one_to(999), 0.99), 989.0), "999 -> ten beyond");
  // A low percentile already has ten beyond it and is not moved.
  check(near(tail_percentile(one_to(64), 0.5), 32.0), "p50 untouched");
  check(near(tail_percentile(one_to(10), 0.99), 10.0), "<= ten -> max");
  check(near(tail_percentile({}, 0.99), 0.0), "empty -> 0");
  check(near(perfbench::median(one_to(5)), 3.0), "median of 5");
  // Windows [0,1): {1,2,3} -> 2; [1,2): {10,20,30} -> 20; [2,3): {5}
  // too small; [3,4): {7,8,9} -> 8. Median of {2, 20, 8} is 8.
  const std::vector<double> t = {0.1, 0.5, 0.9, 1.0, 1.5, 1.9,
                                 2.5, 3.0, 3.1, 3.2};
  const std::vector<double> v = {1, 2, 3, 10, 20, 30, 5, 7, 8, 9};
  check(near(perfbench::median_of_windows(t, v, 1.0, 3), 8.0),
        "median of window medians");
  // Window p95 keeps ten samples beyond it: [0,1) holds 1..100 -> 90
  // (capped), [1,2) holds 101..300 -> 290, [2,3) holds 1..200 -> 190.
  std::vector<double> wt, wv;
  const auto fill = [&](double start, int lo, int hi) {
    for (int i = lo; i <= hi; ++i) {
      wt.push_back(start + 0.001 * (i - lo));
      wv.push_back(i);
    }
  };
  fill(0.0, 1, 100);
  fill(1.0, 101, 300);
  fill(2.0, 1, 200);
  const std::vector<double> p95 =
      perfbench::window_percentiles(wt, wv, 1.0, 50, 0.95);
  check(p95 == std::vector<double>({90.0, 290.0, 190.0}), "window p95s");
  check(near(perfbench::median_of_windows(wt, wv, 1.0, 50, 0.95), 190.0),
        "median of window p95s");
}

void test_teps() {
  const std::vector<std::int64_t> edges = {100, 300, 600};
  const std::vector<double> seconds = {1.0, 1.0, 2.0};
  // Rates 100, 300, 300: harmonic mean 3 / (1/100 + 2/300) = 180.
  const double h = perfbench::teps_hmean(edges, seconds);
  check(near(h, 180.0, 1e-9), "harmonic mean by hand");
  const std::vector<double> rates = {100.0, 300.0, 300.0};
  check(near(h, bfsx::graph500::compute_teps_stats(rates).harmonic_mean),
        "harmonic mean matches compute_teps_stats");
}

void test_open_loop_stall() {
  using namespace std::chrono_literals;
  const std::vector<double> due = {0.0, 0.01, 0.02, 0.03};
  std::vector<perfbench::Send> sends;
  std::vector<double> served;
  perfbench::run_open_loop(
      due, perfbench::Clock::now(),
      [&](std::size_t i, const perfbench::Send& send) {
        sends.push_back(send);
        // The stub server holds request 1 for 50 ms before answering.
        if (i == 1) std::this_thread::sleep_for(50ms);
        served.push_back(i == 1 ? 0.05 : 0.0);
      });
  check(sends.size() == 4, "every request sent");
  if (sends.size() != 4) return;
  // Requests 2 and 3 went out only after the stall ended (>= 60 ms).
  check(sends[2].sent - sends[2].due >= 0.039, "request 2 sent late");
  check(sends[3].sent - sends[3].due >= 0.029, "request 3 sent late");
  // Their latency counts from when they were due, not when sent.
  check(perfbench::latency_from_due(sends[2], served[2]) >= 0.039,
        "latency of a delayed request includes the stall");
  check(perfbench::latency_from_due(sends[1], served[1]) >= 0.05,
        "stalled request's own latency");
  check(sends[2].sent >= sends[1].sent + 0.049, "sends stay in order");
}

void test_span_attribution() {
  using Stage = bfsx::obs::QueryEvent::Stage;
  const auto ev = [](Stage stage, std::int64_t id, double t, int thread,
                     int batch = 0, int lanes = 0, std::uint64_t epoch = 0) {
    perfbench::StampedEvent s;
    s.event.stage = stage;
    s.event.query_id = id;
    s.event.batch_size = batch;
    s.event.lanes = lanes;
    s.event.epoch = epoch;
    s.t = t;
    s.thread = thread;
    return s;
  };
  // Thread 0 submits; threads 1 and 2 are workers.
  const std::unordered_map<std::int64_t, double> enqueued = {
      {0, 0.0}, {1, 0.1}, {2, 0.2}, {4, 0.9}};
  const std::vector<perfbench::StampedEvent> events = {
      ev(Stage::kDispatch, -1, 0.5, 1, 2, 2, 0),  // worker 1: ids 0, 1
      ev(Stage::kDispatch, -1, 0.6, 2, 1, 0, 1),  // worker 2: id 2 alone
      ev(Stage::kComplete, 2, 0.8, 2),
      ev(Stage::kCacheHit, -1, 0.81, 0),
      ev(Stage::kComplete, 3, 0.81, 0),  // cache hit: never queued
      ev(Stage::kComplete, 0, 0.9, 1),
      ev(Stage::kComplete, 1, 0.95, 1),
      ev(Stage::kDispatch, -1, 1.0, 1, 1, 0, 1),  // worker 1: id 4
      ev(Stage::kComplete, 4, 1.2, 1),
  };
  const perfbench::Spans spans = perfbench::attribute_spans(events, enqueued);
  check(spans.passes.size() == 3, "three passes");
  if (spans.passes.size() != 3) return;
  check(spans.passes[0].msbfs && spans.passes[0].lanes == 2, "pass 0 msbfs");
  check(near(spans.passes[0].seconds(), 0.4), "pass 0 time to first answer");
  check(!spans.passes[1].msbfs && near(spans.passes[1].seconds(), 0.2),
        "pass 1 single, 0.2 s");
  check(near(spans.passes[2].seconds(), 0.2), "pass 2 on the reused worker");
  check(spans.passes[1].epoch == 1, "pass epoch");
  const std::vector<double> want = {0.4, 0.5, 0.4, 0.1};  // ids 2, 0, 1, 4
  check(spans.queue_wait.size() == want.size(), "four queued queries");
  for (std::size_t i = 0; i < want.size() && i < spans.queue_wait.size(); ++i) {
    check(near(spans.queue_wait[i], want[i]), "queue wait per query");
  }
}

void test_poisson() {
  const auto a = perfbench::poisson_schedule(1000.0, 10.0, 7);
  const auto b = perfbench::poisson_schedule(1000.0, 10.0, 7);
  check(a == b, "same seed, same schedule");
  check(a.size() > 9500 && a.size() < 10500, "rate close to 1000/s");
  bool ordered = true;
  for (std::size_t i = 1; i < a.size(); ++i) ordered &= a[i] > a[i - 1];
  check(ordered && !a.empty() && a.back() < 10.0, "increasing, in range");
  check(a != perfbench::poisson_schedule(1000.0, 10.0, 8), "seed matters");
}

}  // namespace

int main() {
  test_tail_rule();
  test_teps();
  test_open_loop_stall();
  test_span_attribution();
  test_poisson();
  if (failures == 0) std::printf("perfbench_selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
