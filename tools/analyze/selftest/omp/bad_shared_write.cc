// Fixture: worksharing loops that write shared state with no reduction,
// no atomic and no index derived from the loop — next to the shapes
// that stay silent.
#include <omp.h>

#include <cstddef>
#include <vector>

namespace bfsx {

double racy_sum(const double* data, std::size_t n) {
  double total = 0.0;
// EXPECT(shared-write: total)
#pragma omp parallel for
  for (std::size_t i = 0; i < n; ++i) {
    total += data[i];
  }
  return total;
}

int racy_count(int n) {
  int hits = 0;
// EXPECT(shared-write: hits)
#pragma omp parallel for
  for (int i = 0; i < n; ++i) {
    ++hits;
  }
  return hits;
}

void racy_store(std::vector<int>& y, int n, int k) {
// EXPECT(shared-write: y[k])
#pragma omp parallel for
  for (int v = 0; v < n; ++v) {
    y[k] = v;
  }
}

// A capture list declares nothing: a store indexed only by a captured
// outer variable is still loop-independent.
template <typename V>
void racy_capture(const V& g, std::vector<int>& y, int n, int k) {
// EXPECT(shared-write: y[k])
#pragma omp parallel for
  for (int i = 0; i < n; ++i) {
    g.visit([&y, k](int unused) {
      y[k] = 1;
    });
  }
}

double reduced_sum(const double* data, std::size_t n) {
  double total = 0.0;
#pragma omp parallel for reduction(+ : total)
  for (std::size_t i = 0; i < n; ++i) {
    total += data[i];
  }
  return total;
}

// A bare `omp for` inherits the reduction of the region it binds to.
double region_reduced_sum(const double* data, std::size_t n) {
  double total = 0.0;
#pragma omp parallel reduction(+ : total)
  {
#pragma omp for schedule(dynamic, 64) nowait
    for (std::size_t i = 0; i < n; ++i) {
      total += data[i];
    }
  }
  return total;
}

// Names declared in the body belong to one iteration.
void body_locals(const std::size_t* hist, int n) {
#pragma omp parallel for
  for (int i = 0; i < n; ++i) {
    int acc = 0;
    acc += i;
    std::size_t row = hist[i];
    row += 1;
  }
}

// Stores indexed by the loop variable, or by a value the body derives
// from it (the builder's per-thread cursor scatter).
void indexed_stores(std::vector<int>& y, const std::size_t* cursor, int n) {
#pragma omp parallel for schedule(static)
  for (int v = 0; v < n; ++v) {
    y[static_cast<std::size_t>(v)] = v * 2;
  }
#pragma omp parallel for
  for (int v = 0; v < n; ++v) {
    const std::size_t slot = cursor[v];
    y[slot] = v;
  }
}

// A callback parameter is the per-edge value of a GraphView traversal,
// as a range-for variable would be.
template <typename V, typename State>
void callback_stores(const V& g, State& state, const int* queue, int n) {
#pragma omp parallel for
  for (int i = 0; i < n; ++i) {
    const int u = queue[i];
    g.for_each_out_neighbor(u, [&state, u](int v) {
      state.parent[static_cast<std::size_t>(v)] = u;
    });
  }
}

double atomic_sum(const double* data, std::size_t n) {
  double total = 0.0;
#pragma omp parallel for
  for (std::size_t i = 0; i < n; ++i) {
#pragma omp atomic
    total += data[i];
  }
  return total;
}

// Plain parallel blocks keep their own writes disjoint; only
// worksharing loops are scanned.
void per_thread_slots(std::vector<int>& y) {
#pragma omp parallel
  {
    y[static_cast<std::size_t>(omp_get_thread_num())] = 1;
  }
}

}  // namespace bfsx
