// Fixture: a function that computes a `workers` override, then opens a
// parallel region without num_threads(workers) — next to one that
// passes it and one with no override.
#include <cstddef>

namespace bfsx {

int pick_workers(std::size_t n);

void scaled_fill(double* out, std::size_t n) {
  const int workers = pick_workers(n);
  (void)workers;
// EXPECT(missing-workers)
#pragma omp parallel for
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = 0.0;
  }
}

void pinned_fill(double* out, std::size_t n) {
  const int workers = pick_workers(n);
#pragma omp parallel for schedule(static) num_threads(workers)
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = 0.0;
  }
}

// The override of the function above does not carry over to this one.
void plain_fill(double* out, std::size_t n) {
#pragma omp parallel for schedule(static)
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = 1.0;
  }
}

}  // namespace bfsx
