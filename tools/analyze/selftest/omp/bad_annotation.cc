// Fixture: omp-lint suppressions. One without a reason and one naming
// an unknown rule are violations themselves; one with a reason
// suppresses only the rule it names.
#include <cstddef>

namespace bfsx {

int pick_workers(int n);

double sloppy(const double* data, std::size_t n) {
  double total = 0.0;
  // omp-lint: allow(shared-write)
  // EXPECT(bad-annotation)
#pragma omp parallel for
  for (std::size_t i = 0; i < n; ++i) {
    total += data[i];
  }
  return total;
}

void unknown_rule(int* y, int n) {
  // omp-lint: allow(made-up-rule) because reasons.
  // EXPECT(bad-annotation)
#pragma omp parallel for
  for (int i = 0; i < n; ++i) {
    y[i] = i;
  }
}

double justified(const double* data, std::size_t n) {
  double total = 0.0;
  // omp-lint: allow(shared-write) totals are per-thread slices merged
  // after the region; the pass cannot see the slicing.
#pragma omp parallel for schedule(static)
  for (std::size_t i = 0; i < n; ++i) {
    total += data[i];
  }
  return total;
}

int narrow_allow(int n) {
  int hits = 0;
  const int workers = pick_workers(n);
  // omp-lint: allow(missing-workers) thread count is pinned by caller.
  // EXPECT(shared-write)
#pragma omp parallel for
  for (int i = 0; i < n; ++i) {
    ++hits;
  }
  return hits;
}

}  // namespace bfsx
