// The OpenMP team width, for tests that must also build without OpenMP.
// There every kernel runs serially, so setting a width does nothing and
// a case that only sets one still runs, on one thread.
#pragma once

#ifdef _OPENMP
#include <omp.h>
#endif

namespace bfsx::test {

/// The team width the next parallel region gets; 1 without OpenMP.
inline int max_threads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

/// Sets the team width later parallel regions get; a no-op without
/// OpenMP.
inline void set_threads(int threads) {
#ifdef _OPENMP
  omp_set_num_threads(threads);
#else
  (void)threads;
#endif
}

/// Restores the team width a test changes.
class ThreadCountGuard {
 public:
  ThreadCountGuard() : saved_(max_threads()) {}
  ~ThreadCountGuard() { set_threads(saved_); }
  ThreadCountGuard(const ThreadCountGuard&) = delete;
  ThreadCountGuard& operator=(const ThreadCountGuard&) = delete;

 private:
  int saved_;
};

}  // namespace bfsx::test
