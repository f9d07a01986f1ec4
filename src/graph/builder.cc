#include "graph/builder.h"

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <utility>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "check/contract.h"
#include "check/report.h"

namespace bfsx::graph {
namespace {

/// Below this many edges the parallel machinery (per-thread histograms,
/// chunk prefix sums) costs more than it saves; fall back to one worker.
constexpr std::size_t kParallelEdgeThreshold = std::size_t{1} << 14;

int worker_count(std::size_t edges) {
#ifdef _OPENMP
  if (edges < kParallelEdgeThreshold) return 1;
  // The fan-out below chunks work by thread id and assumes the team
  // really has `workers` threads. Inside an enclosing parallel region
  // a nested team gets 1 thread (nesting is off), so chunks past the
  // first would be silently skipped — run serial there instead.
  if (omp_in_parallel()) return 1;
  return std::max(1, omp_get_max_threads());
#else
  (void)edges;
  return 1;
#endif
}

/// [begin, end) of worker t's contiguous chunk over `total` items. The
/// chunk layout is only a work partition: every result below is placed
/// by global item index, so output never depends on the worker count.
constexpr std::size_t chunk_begin(std::size_t total, int t, int workers) {
  return total * static_cast<std::size_t>(t) / static_cast<std::size_t>(workers);
}

struct CsrArrays {
  EidArray offsets;
  VidArray targets;
};

/// Counting-sort the (src → dst) pairs into CSR arrays, then optionally
/// sort/dedup each adjacency row. Parallel three-phase build: per-thread
/// degree histograms over contiguous edge chunks, one merged prefix sum,
/// then a blocked scatter where worker t starts each row at the count
/// contributed by chunks 0..t-1 — edge i always lands at the position
/// the serial loop would give it, so offsets and targets are
/// bit-identical for every thread count.
CsrArrays pack(vid_t n, const std::vector<Edge>& edges, bool by_src,
               const BuildOptions& opts) {
  const auto nu = static_cast<std::size_t>(n);
  const std::size_t m = edges.size();
  const Edge* e = edges.data();
  const int workers = worker_count(m);

  EidArray offsets(nu + 1, 0);
  // Allocated unwritten (DefaultInitAllocator, graph/uninit_vector.h):
  // the blocked scatter below performs the only write to every element.
  VidArray targets(m);
  // hist[t][v]: first the number of key-v edges in chunk t, then (after
  // the merge) the number of key-v edges in chunks before t — worker
  // t's starting cursor within row v.
  std::vector<std::vector<eid_t>> hist(static_cast<std::size_t>(workers));

#ifdef _OPENMP
#pragma omp parallel num_threads(workers)
#endif
  {
#ifdef _OPENMP
    const int t = omp_get_thread_num();
#else
    const int t = 0;
#endif
    auto& mine = hist[static_cast<std::size_t>(t)];
    mine.assign(nu, 0);
    const std::size_t lo = chunk_begin(m, t, workers);
    const std::size_t hi = chunk_begin(m, t + 1, workers);
    for (std::size_t i = lo; i < hi; ++i) {
      const vid_t key = by_src ? e[i].src : e[i].dst;
      ++mine[static_cast<std::size_t>(key)];
    }
  }

#ifdef _OPENMP
#pragma omp parallel for schedule(static) num_threads(workers)
#endif
  for (std::size_t v = 0; v < nu; ++v) {
    eid_t run = 0;
    for (auto& h : hist) {
      const eid_t mine = h[v];
      h[v] = run;
      run += mine;
    }
    offsets[v + 1] = run;
  }
  for (std::size_t v = 1; v <= nu; ++v) offsets[v] += offsets[v - 1];

#ifdef _OPENMP
#pragma omp parallel num_threads(workers)
#endif
  {
#ifdef _OPENMP
    const int t = omp_get_thread_num();
#else
    const int t = 0;
#endif
    auto& cursor = hist[static_cast<std::size_t>(t)];
    const std::size_t lo = chunk_begin(m, t, workers);
    const std::size_t hi = chunk_begin(m, t + 1, workers);
    for (std::size_t i = lo; i < hi; ++i) {
      const auto key = static_cast<std::size_t>(by_src ? e[i].src : e[i].dst);
      const vid_t val = by_src ? e[i].dst : e[i].src;
      targets[static_cast<std::size_t>(offsets[key] + cursor[key]++)] = val;
    }
  }

  if (opts.sort_neighbors || opts.deduplicate) {
    EidArray new_offsets(nu + 1, 0);
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic, 256) num_threads(workers)
#endif
    for (std::size_t v = 0; v < nu; ++v) {
      auto* first = targets.data() + offsets[v];
      auto* last = targets.data() + offsets[v + 1];
      std::sort(first, last);
      auto* end = opts.deduplicate ? std::unique(first, last) : last;
      new_offsets[v + 1] = end - first;
    }
    for (std::size_t v = 1; v <= nu; ++v) new_offsets[v] += new_offsets[v - 1];
    const auto total = static_cast<std::size_t>(new_offsets[nu]);
    if (total != m) {
      // Dedup removed something: compact rows into a fresh array (rows
      // move left by varying amounts, so in-place compaction would
      // serialise; a parallel copy into disjoint destinations does not).
      // Unwritten until the parallel row copy below.
      VidArray packed(total);
#ifdef _OPENMP
#pragma omp parallel for schedule(static) num_threads(workers)
#endif
      for (std::size_t v = 0; v < nu; ++v) {
        const auto len =
            static_cast<std::size_t>(new_offsets[v + 1] - new_offsets[v]);
        std::copy_n(targets.data() + offsets[v], len,
                    packed.data() + new_offsets[v]);
      }
      targets = std::move(packed);
    }
    offsets = std::move(new_offsets);
  }
  return {std::move(offsets), std::move(targets)};
}

/// Order-preserving parallel filter dropping (v, v) edges: per-chunk
/// survivor counts, a prefix sum over chunks, then a compacting copy
/// into the exact slots the serial erase_if would produce.
void remove_self_loops_parallel(std::vector<Edge>& edges) {
  const std::size_t m = edges.size();
  const int workers = worker_count(m);
  if (workers == 1) {
    std::erase_if(edges, [](const Edge& ed) { return ed.src == ed.dst; });
    return;
  }
  std::vector<std::size_t> kept(static_cast<std::size_t>(workers) + 1, 0);
  const Edge* e = edges.data();
#ifdef _OPENMP
#pragma omp parallel num_threads(workers)
#endif
  {
#ifdef _OPENMP
    const int t = omp_get_thread_num();
#else
    const int t = 0;
#endif
    const std::size_t lo = chunk_begin(m, t, workers);
    const std::size_t hi = chunk_begin(m, t + 1, workers);
    std::size_t count = 0;
    for (std::size_t i = lo; i < hi; ++i) count += (e[i].src != e[i].dst);
    kept[static_cast<std::size_t>(t) + 1] = count;
  }
  for (int t = 0; t < workers; ++t) {
    kept[static_cast<std::size_t>(t) + 1] += kept[static_cast<std::size_t>(t)];
  }
  std::vector<Edge> out(kept[static_cast<std::size_t>(workers)]);
#ifdef _OPENMP
#pragma omp parallel num_threads(workers)
#endif
  {
#ifdef _OPENMP
    const int t = omp_get_thread_num();
#else
    const int t = 0;
#endif
    const std::size_t lo = chunk_begin(m, t, workers);
    const std::size_t hi = chunk_begin(m, t + 1, workers);
    std::size_t w = kept[static_cast<std::size_t>(t)];
    for (std::size_t i = lo; i < hi; ++i) {
      if (e[i].src != e[i].dst) out[w++] = e[i];
    }
  }
  edges = std::move(out);
}

std::vector<Edge> preprocess(EdgeList&& el, bool symmetrize,
                             const BuildOptions& opts) {
  std::vector<Edge> edges = std::move(el.edges);
  if (opts.remove_self_loops) {
    remove_self_loops_parallel(edges);
  }
  if (symmetrize) {
    const std::size_t orig = edges.size();
    edges.resize(orig * 2);
    Edge* e = edges.data();
    const int workers = worker_count(orig);
    // det: mirror i lands at orig + i for any schedule or worker count.
#ifdef _OPENMP
#pragma omp parallel for schedule(static) num_threads(workers)
#endif
    for (std::size_t i = 0; i < orig; ++i) {
      e[orig + i] = {e[i].dst, e[i].src};
    }
  }
  return edges;
}

}  // namespace

void validate_edge_list(const EdgeList& el) {
  if (el.num_vertices < 0) {
    throw std::invalid_argument("EdgeList: negative vertex count");
  }
  const vid_t n = el.num_vertices;
  const Edge* e = el.edges.data();
  const std::size_t m = el.edges.size();
  bool bad = false;
#ifdef _OPENMP
#pragma omp parallel for schedule(static) reduction(|| : bad) \
    if (m >= kParallelEdgeThreshold)
#endif
  for (std::size_t i = 0; i < m; ++i) {
    bad = bad || e[i].src < 0 || e[i].src >= n || e[i].dst < 0 || e[i].dst >= n;
  }
  if (!bad) return;
  // Error path: rescan serially and collect up to K numbered offenders
  // so fuzz diagnostics show the corruption pattern (a single bad edge
  // reads very differently from a whole corrupt block). The rescan
  // costs one extra pass but only when the input is already rejected.
  check::CheckReport report;
  for (std::size_t i = 0; i < m && report.wants_more(); ++i) {
    if (e[i].src < 0 || e[i].src >= n || e[i].dst < 0 || e[i].dst >= n) {
      report.failf() << "edge[" << i << "] = (" << e[i].src << ", " << e[i].dst
                     << "): endpoint out of range [0, " << n << ")";
    }
  }
  throw std::out_of_range("EdgeList: edge endpoint out of range; " +
                          report.to_string());
}

CsrGraph build_csr(EdgeList el, const BuildOptions& opts) {
  validate_edge_list(el);
  const vid_t n = el.num_vertices;
  std::vector<Edge> edges = preprocess(std::move(el), opts.symmetrize, opts);
  if (!opts.symmetrize) {
    // Caller explicitly opted out of symmetrisation but requested the
    // shared-adjacency constructor; that is only sound if the input is
    // already symmetric, which we cannot cheaply verify — build both
    // directions instead.
    auto out = pack(n, edges, /*by_src=*/true, opts);
    auto in = pack(n, edges, /*by_src=*/false, opts);
    CsrGraph g(std::move(out.offsets), std::move(out.targets),
               std::move(in.offsets), std::move(in.targets));
    BFSX_PARANOID(g.assert_invariants(opts.sort_neighbors));
    return g;
  }
  auto arrays = pack(n, edges, /*by_src=*/true, opts);
  CsrGraph g(std::move(arrays.offsets), std::move(arrays.targets));
  BFSX_PARANOID(g.assert_invariants(opts.sort_neighbors));
  return g;
}

CsrGraph build_directed_csr(EdgeList el, const BuildOptions& opts) {
  validate_edge_list(el);
  const vid_t n = el.num_vertices;
  std::vector<Edge> edges = preprocess(std::move(el), /*symmetrize=*/false, opts);
  auto out = pack(n, edges, /*by_src=*/true, opts);
  auto in = pack(n, edges, /*by_src=*/false, opts);
  CsrGraph g(std::move(out.offsets), std::move(out.targets),
             std::move(in.offsets), std::move(in.targets));
  BFSX_PARANOID(g.assert_invariants(opts.sort_neighbors));
  return g;
}

}  // namespace bfsx::graph
