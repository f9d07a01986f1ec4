#include "graph/reorder.h"

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <utility>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "graph/builder.h"

namespace bfsx::graph {
namespace {

/// Threads the edge passes below fan out to. They chunk work by thread
/// id, so inside an enclosing parallel region, where a nested team has
/// one thread, they run serial.
int worker_count() {
#ifdef _OPENMP
  return omp_in_parallel() ? 1 : std::max(1, omp_get_max_threads());
#else
  return 1;
#endif
}

/// Per vertex, its endpoints over the edges that are not self-loops,
/// both ends. Per-thread histograms over contiguous edge chunks, merged
/// per vertex, so the counts never depend on the thread count. An
/// out-of-range endpoint defers to validate_edge_list, which throws
/// naming the offending edges.
std::vector<eid_t> endpoint_counts(const EdgeList& el) {
  const vid_t n = el.num_vertices;
  if (n < 0) validate_edge_list(el);
  const auto nu = static_cast<std::size_t>(n);
  const std::size_t m = el.edges.size();
  const Edge* e = el.edges.data();
  const int workers = worker_count();
  std::vector<std::vector<eid_t>> hist(static_cast<std::size_t>(workers));
  bool out_of_range = false;

#ifdef _OPENMP
#pragma omp parallel num_threads(workers) reduction(|| : out_of_range)
#endif
  {
#ifdef _OPENMP
    const int t = omp_get_thread_num();
#else
    const int t = 0;
#endif
    auto& mine = hist[static_cast<std::size_t>(t)];
    mine.assign(nu, 0);
    const std::size_t lo = m * static_cast<std::size_t>(t) /
                           static_cast<std::size_t>(workers);
    const std::size_t hi = m * static_cast<std::size_t>(t + 1) /
                           static_cast<std::size_t>(workers);
    for (std::size_t i = lo; i < hi; ++i) {
      const vid_t u = e[i].src;
      const vid_t v = e[i].dst;
      if (u < 0 || u >= n || v < 0 || v >= n) {
        out_of_range = true;
        continue;
      }
      if (u == v) continue;
      ++mine[static_cast<std::size_t>(u)];
      ++mine[static_cast<std::size_t>(v)];
    }
  }
  if (out_of_range) validate_edge_list(el);

  std::vector<eid_t>& counts = hist.front();
#ifdef _OPENMP
#pragma omp parallel for schedule(static) num_threads(workers)
#endif
  for (std::size_t v = 0; v < nu; ++v) {
    for (std::size_t t = 1; t < hist.size(); ++t) counts[v] += hist[t][v];
  }
  return std::move(counts);
}

}  // namespace

void validate_permutation(const Permutation& perm, vid_t n) {
  if (perm.size() != static_cast<std::size_t>(n)) {
    throw std::invalid_argument("permutation: wrong size");
  }
  std::vector<bool> seen(static_cast<std::size_t>(n), false);
  for (vid_t target : perm) {
    if (target < 0 || target >= n || seen[static_cast<std::size_t>(target)]) {
      throw std::invalid_argument("permutation: not a bijection");
    }
    seen[static_cast<std::size_t>(target)] = true;
  }
}

Permutation degree_order(const EdgeList& el) {
  const std::vector<eid_t> counts = endpoint_counts(el);
  // Counting sort over the counts, largest first: bucket c starts after
  // every vertex with a larger count, and vertices enter their bucket
  // in ascending old id, so ties go to the smaller id. O(V + max count).
  const eid_t max_count =
      counts.empty() ? 0 : *std::max_element(counts.begin(), counts.end());
  std::vector<vid_t> start(static_cast<std::size_t>(max_count) + 1, 0);
  for (const eid_t c : counts) ++start[static_cast<std::size_t>(c)];
  vid_t next = 0;
  for (std::size_t c = start.size(); c-- > 0;) {
    const vid_t size = start[c];
    start[c] = next;
    next += size;
  }
  Permutation perm(counts.size());
  for (std::size_t v = 0; v < counts.size(); ++v) {
    perm[v] = start[static_cast<std::size_t>(counts[v])]++;
  }
  return perm;
}

EdgeList apply_permutation(const EdgeList& el, const Permutation& perm) {
  validate_permutation(perm, el.num_vertices);
  EdgeList out;
  out.num_vertices = el.num_vertices;
  out.edges.reserve(el.edges.size());
  for (const Edge& e : el.edges) {
    out.add(perm[static_cast<std::size_t>(e.src)],
            perm[static_cast<std::size_t>(e.dst)]);
  }
  return out;
}

Permutation invert_permutation(const Permutation& perm) {
  Permutation inv(perm.size());
  const auto n = static_cast<std::int64_t>(perm.size());
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
#endif
  for (std::int64_t old_id = 0; old_id < n; ++old_id) {
    inv[static_cast<std::size_t>(perm[static_cast<std::size_t>(old_id)])] =
        static_cast<vid_t>(old_id);
  }
  return inv;
}

Relabelling::Relabelling(Permutation to_internal)
    : to_internal_(std::move(to_internal)),
      to_external_(invert_permutation(to_internal_)) {}

Relabelling relabel_by_degree(EdgeList& el) {
  Permutation perm = degree_order(el);
  const vid_t* const to = perm.data();
  Edge* const e = el.edges.data();
  const auto m = static_cast<std::int64_t>(el.edges.size());
#ifdef _OPENMP
#pragma omp parallel for schedule(static) num_threads(worker_count())
#endif
  for (std::int64_t i = 0; i < m; ++i) {
    e[i] = {to[e[i].src], to[e[i].dst]};
  }
  return Relabelling(std::move(perm));
}

}  // namespace bfsx::graph
