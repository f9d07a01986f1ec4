// Fixture: a nowait loop whose written variable is read again before
// the region's barrier — next to one read only after the region.
#include <cstddef>

namespace bfsx {

double hasty(const double* data, double* out, std::size_t n) {
  double last = 0.0;
#pragma omp parallel
  {
// EXPECT(nowait-read: last)
// omp-lint: allow(shared-write) fixture isolates the nowait-read rule;
// the write itself is the planted hazard, not the subject
#pragma omp for nowait
    for (std::size_t i = 0; i < n; ++i) {
      last = data[i];
    }
#pragma omp single
    out[0] = last;
  }
  return last;
}

double patient(const double* data, std::size_t n) {
  double total = 0.0;
#pragma omp parallel reduction(+ : total)
  {
#pragma omp for nowait
    for (std::size_t i = 0; i < n; ++i) {
      total += data[i];
    }
  }
  return total;
}

}  // namespace bfsx
