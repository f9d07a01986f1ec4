#include "graph/builder.h"

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "check/contract.h"
#include "check/report.h"

namespace bfsx::graph {
namespace {

/// Below this many entries the parallel machinery (per-worker
/// histograms and their merge) costs more than it saves; fall back to
/// one worker.
constexpr std::size_t kParallelEdgeThreshold = std::size_t{1} << 14;

int worker_count(std::size_t entries) {
#ifdef _OPENMP
  if (entries < kParallelEdgeThreshold) return 1;
  // Inside an enclosing parallel region a nested team gets 1 thread
  // (nesting is off), which would run every worker's share in turn and
  // pay for all their histograms: run serial there instead.
  if (omp_in_parallel()) return 1;
  return std::max(1, omp_get_max_threads());
#else
  (void)entries;
  return 1;
#endif
}

/// Runs body(t) for every worker t in [0, workers) on one team; a team
/// smaller than asked for runs the missing workers' shares in turn.
template <typename Body>
void fan_out(int workers, const Body& body) {
#ifdef _OPENMP
#pragma omp parallel num_threads(workers) if (workers > 1)
  for (int t = omp_get_thread_num(); t < workers; t += omp_get_num_threads()) {
    body(t);
  }
#else
  for (int t = 0; t < workers; ++t) body(t);
#endif
}

/// [begin, end) of worker t's contiguous chunk over `total` items.
constexpr std::size_t chunk_begin(std::size_t total, int t, int workers) {
  return total * static_cast<std::size_t>(t) / static_cast<std::size_t>(workers);
}

struct CsrArrays {
  EidArray offsets;
  VidArray targets;
};

/// Counting sort of (row, value) entries into CSR arrays, shared by the
/// edge scatter and the transpose. `entries(t, emit)` calls emit(row,
/// value) for every entry of worker t's share, in the same order both
/// times it runs: once to count, once to place. The shares are
/// consecutive pieces of one serial order, and worker t starts each row
/// after the entries of workers 0..t-1, so the arrays are the serial
/// loop's for every worker count.
template <typename Entries>
CsrArrays bucket(std::size_t rows, int workers, const Entries& entries) {
  // cursor[t][r]: first the number of row-r entries in worker t's
  // share, then (after the merge) where the first of them goes.
  std::vector<std::vector<eid_t>> cursor(static_cast<std::size_t>(workers));
  fan_out(workers, [&](int t) {
    std::vector<eid_t>& count = cursor[static_cast<std::size_t>(t)];
    count.assign(rows, 0);
    entries(t, [&count](std::size_t row, vid_t) { ++count[row]; });
  });
  EidArray offsets(rows + 1);
  offsets[0] = 0;
  fan_out(workers, [&](int t) {
    const std::size_t hi = chunk_begin(rows, t + 1, workers);
    for (std::size_t r = chunk_begin(rows, t, workers); r < hi; ++r) {
      eid_t run = 0;
      for (std::vector<eid_t>& c : cursor) {
        const eid_t mine = c[r];
        c[r] = run;
        run += mine;
      }
      offsets[r + 1] = run;
    }
  });
  for (std::size_t r = 0; r < rows; ++r) offsets[r + 1] += offsets[r];

  // Allocated unwritten (DefaultInitAllocator, graph/uninit_vector.h):
  // the placing pass performs the only write to every element.
  VidArray targets(static_cast<std::size_t>(offsets[rows]));
  fan_out(workers, [&](int t) {
    std::vector<eid_t>& at = cursor[static_cast<std::size_t>(t)];
    entries(t, [&](std::size_t row, vid_t value) {
      targets[static_cast<std::size_t>(offsets[row] + at[row]++)] = value;
    });
  });
  return {std::move(offsets), std::move(targets)};
}

/// Every kept edge (u, v) puts v into row u, and for a symmetric build
/// u into row v; rows come out in edge-list order. The list, taken by
/// value, is released by the end of the calling statement.
CsrArrays scatter(vid_t n, std::vector<Edge> edges, bool symmetrize,
                  bool remove_self_loops) {
  const Edge* e = edges.data();
  const std::size_t m = edges.size();
  const int workers = worker_count(m);
  return bucket(static_cast<std::size_t>(n), workers, [&](int t, auto&& emit) {
    const std::size_t hi = chunk_begin(m, t + 1, workers);
    for (std::size_t i = chunk_begin(m, t, workers); i < hi; ++i) {
      const Edge ed = e[i];
      if (remove_self_loops && ed.src == ed.dst) continue;
      emit(static_cast<std::size_t>(ed.src), ed.dst);
      if (symmetrize) emit(static_cast<std::size_t>(ed.dst), ed.src);
    }
  });
}

/// Row boundaries that give each worker about the same number of
/// entries; a row bigger than a share is one worker's whole range.
std::vector<std::size_t> balanced_rows(const EidArray& offsets, int workers) {
  const std::size_t n = offsets.size() - 1;
  const auto total = static_cast<std::size_t>(offsets[n]);
  std::vector<std::size_t> split(static_cast<std::size_t>(workers) + 1, n);
  for (int t = 0; t < workers; ++t) {
    const auto share = static_cast<eid_t>(chunk_begin(total, t, workers));
    split[static_cast<std::size_t>(t)] = static_cast<std::size_t>(
        std::lower_bound(offsets.begin(), offsets.end(), share) -
        offsets.begin());
  }
  return split;
}

/// For x ascending, appends x to row y for every y in row x. Every row of
/// the result is sorted, because x arrives in ascending order; a
/// symmetric entry set is its own transpose.
CsrArrays transpose(const CsrArrays& a) {
  const std::size_t n = a.offsets.size() - 1;
  const int workers = worker_count(a.targets.size());
  const std::vector<std::size_t> split = balanced_rows(a.offsets, workers);
  return bucket(n, workers, [&](int t, auto&& emit) {
    const auto ti = static_cast<std::size_t>(t);
    for (std::size_t x = split[ti]; x < split[ti + 1]; ++x) {
      const auto hi = static_cast<std::size_t>(a.offsets[x + 1]);
      for (auto j = static_cast<std::size_t>(a.offsets[x]); j < hi; ++j) {
        emit(static_cast<std::size_t>(a.targets[j]), static_cast<vid_t>(x));
      }
    }
  });
}

/// Drops repeats from every sorted row, then packs the rows into a
/// fresh array (rows move left by varying amounts, so an
/// in-place compaction would serialise; a parallel copy into disjoint
/// destinations does not).
void dedup_rows(CsrArrays& a) {
  const std::size_t n = a.offsets.size() - 1;
  const int workers = worker_count(a.targets.size());
  const std::vector<std::size_t> split = balanced_rows(a.offsets, workers);
  EidArray kept(n + 1);
  kept[0] = 0;
  fan_out(workers, [&](int t) {
    const auto ti = static_cast<std::size_t>(t);
    for (std::size_t x = split[ti]; x < split[ti + 1]; ++x) {
      vid_t* first = a.targets.data() + a.offsets[x];
      vid_t* last = a.targets.data() + a.offsets[x + 1];
      kept[x + 1] = std::unique(first, last) - first;
    }
  });
  for (std::size_t x = 0; x < n; ++x) kept[x + 1] += kept[x];
  if (kept[n] != a.offsets[n]) {
    // Unwritten until the parallel row copy below.
    VidArray packed(static_cast<std::size_t>(kept[n]));
    fan_out(workers, [&](int t) {
      const auto ti = static_cast<std::size_t>(t);
      for (std::size_t x = split[ti]; x < split[ti + 1]; ++x) {
        std::copy_n(a.targets.data() + a.offsets[x], kept[x + 1] - kept[x],
                    packed.data() + kept[x]);
      }
    });
    a.targets = std::move(packed);
  }
  a.offsets = std::move(kept);
}

/// Scatter, transpose, dedup: sorted, duplicate-free rows with no
/// comparison sort. A directed build's transpose gives its in-rows, and
/// a second transpose of the deduplicated in-rows gives the out-rows.
CsrGraph build(EdgeList el, bool symmetrize, bool remove_self_loops) {
  validate_edge_list(el);
  CsrArrays scattered = scatter(el.num_vertices, std::move(el.edges),
                                symmetrize, remove_self_loops);
  CsrArrays in = transpose(scattered);
  scattered = {};
  dedup_rows(in);
  if (symmetrize) {
    CsrGraph g(std::move(in.offsets), std::move(in.targets));
    BFSX_PARANOID(g.assert_invariants());
    return g;
  }
  CsrArrays out = transpose(in);
  CsrGraph g(std::move(out.offsets), std::move(out.targets),
             std::move(in.offsets), std::move(in.targets));
  BFSX_PARANOID(g.assert_invariants());
  return g;
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
  return build(std::move(el), opts.symmetrize, opts.remove_self_loops);
}

CsrGraph build_directed_csr(EdgeList el, const BuildOptions& opts) {
  return build(std::move(el), /*symmetrize=*/false, opts.remove_self_loops);
}

}  // namespace bfsx::graph
