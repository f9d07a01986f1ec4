// Delta-CSR: an immutable graph epoch that shares unchanged adjacency
// rows with a frozen base CSR and carries only the patched rows.
//
// The serve layer's epoch publishes (serve/epochs.h) used to pay a full
// O(V+E) edge-list rebuild for every batch of buffered edge writes.
// Under write traffic that rebuild — not traversal — becomes the
// bottleneck: the working set of a publish is the whole graph even when
// the batch touched a dozen rows. A DeltaCsr epoch instead materializes
// the *effective* adjacency row for exactly the vertices a batch
// touched (base row ∪ inserts ∖ removes, sorted and deduplicated, i.e.
// the row the rebuild would have produced) and forwards every other
// row to the shared base, so publish cost is O(rows touched since the
// base was last compacted), not O(V+E).
//
// Removals need no physical tombstones at traversal time: a removed
// edge is simply absent from its patched row. The base CSR retains the
// dead edge's storage until a compaction folds the overlay back into a
// flat CSR (see serve::GraphEpochs' patched-row-fraction policy).
//
// DeltaCsr models the HybridView + EdgeQueryView concept tiers
// (graph/view.h), so every templated kernel — top-down, bottom-up, the
// M/N hybrid drivers, the Graph 500 validator, and the bit-parallel
// MS-BFS — traverses a delta epoch unchanged, and traversals are
// bit-equal to the same kernels over the fully rebuilt CSR
// (test_delta_csr holds it to that).
//
// Deltas never chain: every DeltaCsr overlays a *flat* base, and
// applying a new batch on top of an existing delta copies the live
// patches forward (cost O(cumulative patched rows), still ≪ O(V+E)).
// Lookup therefore stays one table probe regardless of epoch history.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/builder.h"
#include "graph/csr.h"
#include "graph/edge_list.h"
#include "graph/types.h"
#include "graph/view.h"

namespace bfsx::graph {

class DeltaCsr {
 public:
  DeltaCsr() = default;

  /// Applies one batch of edge writes on top of `prev` (or directly on
  /// `base` when `prev` is null; `prev`, when given, must overlay this
  /// same `base`). Ops are raw directed edges, expanded exactly the way
  /// build_csr's options would: `opts.symmetrize` mirrors every insert
  /// and remove, `opts.remove_self_loops` drops (v, v) inserts. Patched
  /// rows keep build_csr's canonical form, sorted and duplicate-free.
  /// Throws std::invalid_argument on a negative endpoint. Inserts may
  /// name vertices past the current count (the vertex set grows);
  /// removes of absent edges are no-ops. A row whose effective
  /// adjacency ends up unchanged is not counted as patched.
  [[nodiscard]] static DeltaCsr apply(std::shared_ptr<const CsrGraph> base,
                                      const DeltaCsr* prev,
                                      std::span<const Edge> inserts,
                                      std::span<const Edge> removes,
                                      const BuildOptions& opts = {});

  // ---- GraphView / TransposeView / EdgeCountedView / EdgeQueryView ----

  [[nodiscard]] vid_t num_vertices() const noexcept { return num_vertices_; }
  [[nodiscard]] eid_t num_edges() const noexcept { return num_edges_; }
  [[nodiscard]] bool is_symmetric() const noexcept { return symmetric_; }

  [[nodiscard]] eid_t out_degree(vid_t v) const noexcept {
    return static_cast<eid_t>(out_row(v).size());
  }
  [[nodiscard]] eid_t in_degree(vid_t v) const noexcept {
    return static_cast<eid_t>(in_row(v).size());
  }

  template <typename Fn>
  void for_each_out_neighbor(vid_t v, Fn&& fn) const {
    for (const vid_t w : out_row(v)) fn(w);
  }

  template <typename Fn>
  void for_each_in_neighbor(vid_t v, Fn&& fn) const {
    for (const vid_t u : in_row(v)) {
      if (!fn(u)) return;
    }
  }

  /// O(log degree(u)) membership probe over the effective adjacency
  /// (patched rows included, removed edges excluded).
  [[nodiscard]] bool has_edge(vid_t u, vid_t v) const noexcept;

  // ---- introspection (compaction policy, tests, benches) ----

  [[nodiscard]] const CsrGraph& base() const noexcept { return *base_; }
  [[nodiscard]] const std::shared_ptr<const CsrGraph>& base_ptr()
      const noexcept {
    return base_;
  }
  /// Out-side rows whose effective adjacency differs from the base
  /// (plus rows for vertices the base does not have).
  [[nodiscard]] vid_t patched_rows() const noexcept {
    return static_cast<vid_t>(out_rows_.size());
  }
  /// patched_rows / num_vertices — the serve layer's compaction signal.
  [[nodiscard]] double patched_fraction() const noexcept {
    return num_vertices_ == 0
               ? 0.0
               : static_cast<double>(out_rows_.size()) /
                     static_cast<double>(num_vertices_);
  }
  [[nodiscard]] bool row_is_patched(vid_t v) const noexcept {
    return v >= 0 && v < num_vertices_ &&
           out_patch_of_[static_cast<std::size_t>(v)] >= 0;
  }

  /// The effective adjacency as a directed edge list — the compaction
  /// input. Feeding it back through build_csr with the options the
  /// epochs were built with yields a flat CSR bit-equal to this
  /// overlay's traversal semantics (symmetrize/dedup are idempotent on
  /// an already-canonical list).
  [[nodiscard]] EdgeList materialize_edges() const;

  /// The effective out-adjacency row of `v`: the patch if `v` was
  /// touched, the base row otherwise (empty for grown vertices never
  /// given edges).
  [[nodiscard]] std::span<const vid_t> out_row(vid_t v) const noexcept {
    const auto i = static_cast<std::size_t>(v);
    if (const std::int32_t p = out_patch_of_[i]; p >= 0) {
      return out_rows_[static_cast<std::size_t>(p)];
    }
    if (v < base_num_vertices_) return base_->out_neighbors(v);
    return {};
  }

  [[nodiscard]] std::span<const vid_t> in_row(vid_t v) const noexcept {
    if (symmetric_) return out_row(v);
    const auto i = static_cast<std::size_t>(v);
    if (const std::int32_t p = in_patch_of_[i]; p >= 0) {
      return in_rows_[static_cast<std::size_t>(p)];
    }
    if (v < base_num_vertices_) return base_->in_neighbors(v);
    return {};
  }

 private:
  std::shared_ptr<const CsrGraph> base_;
  vid_t base_num_vertices_ = 0;
  vid_t num_vertices_ = 0;
  eid_t num_edges_ = 0;
  bool symmetric_ = true;

  /// Per vertex: index into the patch-row arena, or -1 for "read the
  /// base". Sized num_vertices_. The in-side tables stay empty for
  /// symmetric graphs (in_row aliases out_row, like CsrGraph's shared
  /// adjacency).
  std::vector<std::int32_t> out_patch_of_;
  std::vector<std::vector<vid_t>> out_rows_;
  std::vector<std::int32_t> in_patch_of_;
  std::vector<std::vector<vid_t>> in_rows_;
};

static_assert(HybridView<DeltaCsr>);
static_assert(EdgeQueryView<DeltaCsr>);
static_assert(RowView<DeltaCsr>);

}  // namespace bfsx::graph
