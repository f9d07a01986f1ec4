// Fixture: how the pass reads source. A directive between a pragma and
// its loop does not hide the loop; continuation lines, literals,
// comments and comparisons are read for what they are.
#include <cstddef>

namespace bfsx {

void log(const char* message);

int counted_under_ifdef(int n) {
  int hits = 0;
// EXPECT(shared-write)
#pragma omp parallel for
#ifdef BFSX_NEVER_DEFINED
#endif
  for (int i = 0; i < n; ++i) {
    ++hits;
  }
  return hits;
}

long continued_race(int n) {
  long total = 0;
// EXPECT(shared-write)
#pragma omp parallel for \
    schedule(static)
  for (int i = 0; i < n; ++i) {
    total += i;
  }
  return total;
}

long continued_reduction(int n) {
  long total = 0;
#pragma omp parallel for schedule(static) \
    reduction(+ : total)
  for (int i = 0; i < n; ++i) {
    total += i;
  }
  return total;
}

void quoted_writes(int* y, int n) {
#pragma omp parallel for
  for (int i = 0; i < n; ++i) {
    log("total += broken");  // total += also broken here
    y[i] = i;
  }
}

void compared(int* y, int n, int bound) {
#pragma omp parallel for
  for (int i = 0; i < n; ++i) {
    if (bound <= i || bound >= i || bound == i || bound != i) {
      y[i] = i;
    }
  }
}

}  // namespace bfsx
