// GraphView: the compile-time traversal interface the BFS kernels are
// written against.
//
// The paper's direction-switching machinery only ever needs four things
// from a graph: how many vertices there are, a vertex's out-degree (the
// |E|cq accumulator), out-neighbour enumeration (top-down expansion),
// and — for bottom-up — in-neighbour enumeration with early exit (an
// unvisited vertex scans its predecessors and stops at the first
// frontier hit, Algorithm 2 line 12). Everything else (CSR arrays,
// sortedness, binary-searchable rows) is representation detail. This
// header names that contract as C++20 concepts so the same templated
// kernels run over the three stored representations the system
// measures: flat CSR through the zero-overhead `CsrGraphView` adapter
// below, varint-compressed rows (`CompressedCsrView`,
// graph/compressed_csr.h) and serve's delta-CSR epochs (`DeltaCsr`,
// graph/delta_csr.h).
//
// Dispatch is entirely compile-time: kernels are instantiated once per
// view type, so the hot loops carry no virtual calls and no function
// pointers. DESIGN.md §11 describes the concept and its capability
// tiers.
#pragma once

#include <concepts>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/csr.h"
#include "graph/prng.h"
#include "graph/types.h"

namespace bfsx::graph {

namespace detail {

/// Archetype out-neighbour consumer used by the concept checks below
/// (lambdas would work in C++20 requires-expressions, but a named
/// functor keeps the diagnostics readable).
struct NeighborSink {
  void operator()(vid_t) const noexcept {}
};

/// Archetype in-neighbour scanner: returns true to continue the scan,
/// false to stop (the bottom-up "found a parent" break).
struct ScanSink {
  bool operator()(vid_t) const noexcept { return true; }
};

}  // namespace detail

/// The minimal surface every traversal kernel needs. `is_symmetric()`
/// is part of the base tier because result extraction (the TEPS
/// numerator) must know whether directed edge counts should be halved.
///
/// `for_each_out_neighbor(v, f)` calls `f(w)` for every out-neighbour w
/// of v, in a deterministic order fixed by the view (ascending for
/// CsrGraphView, CompressedCsrView and DeltaCsr, which store sorted
/// rows).
template <typename V>
concept GraphView = requires(const V& g, vid_t v, detail::NeighborSink out) {
  { g.num_vertices() } -> std::convertible_to<vid_t>;
  { g.is_symmetric() } -> std::convertible_to<bool>;
  { g.out_degree(v) } -> std::convertible_to<eid_t>;
  g.for_each_out_neighbor(v, out);
};

/// Capability: transpose (in-neighbour) access, required by the
/// bottom-up kernel. `for_each_in_neighbor(v, f)` calls `f(u)` for each
/// in-neighbour u of v in the view's deterministic order and stops as
/// soon as `f` returns false — that early exit is the hit-prefix walk
/// that makes bottom-up cheap on late levels. A symmetric graph's
/// in-rows are its out-rows; a directed one needs a stored transpose,
/// which is why CSR keeps separate in-arrays for directed graphs.
template <typename V>
concept TransposeView =
    GraphView<V> && requires(const V& g, vid_t v, detail::ScanSink scan) {
      g.for_each_in_neighbor(v, scan);
    };

/// Whether `v` has an in-neighbour: the first step of its in-row scan.
/// A vertex without one can never be discovered bottom-up.
template <TransposeView V>
[[nodiscard]] bool has_in_edge(const V& g, vid_t v) {
  bool any = false;
  g.for_each_in_neighbor(v, [&any](vid_t) {
    any = true;
    return false;
  });
  return any;
}

/// Capability: exact directed edge count, required by the paper's M/N
/// switching heuristic (|E|cq < |E|/M) and by hybrid/adaptive drivers.
template <typename V>
concept EdgeCountedView = GraphView<V> && requires(const V& g) {
  { g.num_edges() } -> std::convertible_to<eid_t>;
};

/// Capability: O(log degree) membership test, used by the Graph 500
/// validator's tree-edge check. `CsrGraphView` and `DeltaCsr` model
/// it; `CompressedCsrView` does not (a probe would decode the whole
/// row), so the validator falls back to a linear scan of the row.
template <typename V>
concept EdgeQueryView = GraphView<V> && requires(const V& g, vid_t u, vid_t v) {
  { g.has_edge(u, v) } -> std::convertible_to<bool>;
};

/// Everything the direction-switching drivers need: expansion in both
/// directions plus the M/N inputs.
template <typename V>
concept HybridView = TransposeView<V> && EdgeCountedView<V>;

/// Capability: contiguous out-rows. `out_row(v)` returns v's
/// out-neighbours as one span, in the order for_each_out_neighbor
/// enumerates them. The top-down kernels (bfs/frontier.h's
/// expand_piece) index into such rows, so a hub's row can be split
/// across threads; views that decode or generate neighbours
/// sequentially do not model this and have their rows walked whole.
template <typename V>
concept RowView = GraphView<V> && requires(const V& g, vid_t v) {
  { g.out_row(v) } -> std::convertible_to<std::span<const vid_t>>;
};

/// Zero-overhead adapter presenting a CsrGraph through the GraphView
/// concepts. Holds a pointer only; every accessor forwards to the
/// inline CSR methods, so kernels instantiated for CsrGraphView compile
/// to the same loops as the historical CsrGraph-typed kernels (the
/// bit-equality this is held to is tested in test_graph_view; the
/// CsrGraph overloads forward through this adapter).
class CsrGraphView {
 public:
  explicit CsrGraphView(const CsrGraph& g) noexcept : g_(&g) {}

  [[nodiscard]] vid_t num_vertices() const noexcept {
    return g_->num_vertices();
  }
  [[nodiscard]] eid_t num_edges() const noexcept { return g_->num_edges(); }
  [[nodiscard]] bool is_symmetric() const noexcept {
    return g_->is_symmetric();
  }
  [[nodiscard]] eid_t out_degree(vid_t v) const noexcept {
    return g_->out_degree(v);
  }
  [[nodiscard]] eid_t in_degree(vid_t v) const noexcept {
    return g_->in_degree(v);
  }
  [[nodiscard]] bool has_edge(vid_t u, vid_t v) const noexcept {
    return g_->has_edge(u, v);
  }

  template <typename Fn>
  void for_each_out_neighbor(vid_t v, Fn&& fn) const {
    for (const vid_t w : g_->out_neighbors(v)) fn(w);
  }

  /// RowView: v's out-row, ascending.
  [[nodiscard]] std::span<const vid_t> out_row(vid_t v) const noexcept {
    return g_->out_neighbors(v);
  }

  template <typename Fn>
  void for_each_in_neighbor(vid_t v, Fn&& fn) const {
    for (const vid_t u : g_->in_neighbors(v)) {
      if (!fn(u)) return;
    }
  }

  /// The wrapped storage, for callers that need CSR-only features.
  [[nodiscard]] const CsrGraph& csr() const noexcept { return *g_; }

 private:
  const CsrGraph* g_;
};

static_assert(HybridView<CsrGraphView>);
static_assert(EdgeQueryView<CsrGraphView>);
static_assert(RowView<CsrGraphView>);
// CsrGraph itself deliberately does not model GraphView (it exposes
// spans, not enumerators); kernels keep exact-match CsrGraph overloads
// that forward through the adapter.
static_assert(!GraphView<CsrGraph>);

/// Graph 500 root sampling over any view: uniform draws, degree-0
/// rejections. graph::sample_roots forwards here through CsrGraphView,
/// so the same seed picks the same roots on any view of a graph and on
/// its CsrGraph. The rejection loop is bounded so a pathological
/// (all-isolated) graph still terminates with a clear error.
template <GraphView V>
[[nodiscard]] std::vector<vid_t> sample_view_roots(const V& g, int count,
                                                   std::uint64_t seed) {
  if (count < 0) {
    throw std::invalid_argument("sample_view_roots: count < 0");
  }
  const vid_t n = g.num_vertices();
  Xoshiro256ss rng(seed);
  std::vector<vid_t> roots;
  roots.reserve(static_cast<std::size_t>(count));
  const std::size_t max_attempts = 64 * static_cast<std::size_t>(count) + 1024;
  std::size_t attempts = 0;
  while (roots.size() < static_cast<std::size_t>(count)) {
    if (++attempts > max_attempts) {
      throw std::runtime_error(
          "sample_view_roots: could not find enough non-isolated vertices");
    }
    const auto v =
        static_cast<vid_t>(rng.next_bounded(static_cast<std::uint64_t>(n)));
    if (g.out_degree(v) > 0) roots.push_back(v);
  }
  return roots;
}

}  // namespace bfsx::graph
