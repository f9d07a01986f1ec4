// Fixture: a determinism-critical loop (// det:) scheduled dynamic,
// next to the static one and an unannotated dynamic one.
#include <cstddef>

namespace bfsx {

void stamp_order(std::size_t* order, std::size_t n) {
  std::size_t cursor = 0;
  // det: visit order is part of the replay contract
  // EXPECT(det-dynamic)
#pragma omp parallel for schedule(dynamic)
  for (std::size_t i = 0; i < n; ++i) {
#pragma omp critical
    order[i] = cursor++;
  }
}

void stamp_static(std::size_t* order, std::size_t n) {
  // det: visit order is part of the replay contract
#pragma omp parallel for schedule(static)
  for (std::size_t i = 0; i < n; ++i) {
    order[i] = i;
  }
}

// An index-deterministic body may take any schedule.
void fill_dynamic(std::size_t* out, std::size_t n) {
#pragma omp parallel for schedule(dynamic)
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = 2 * i;
  }
}

}  // namespace bfsx
