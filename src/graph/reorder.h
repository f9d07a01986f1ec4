// Vertex relabelling by descending degree.
//
// The paper's related work (Section VI) credits Chhugani et al. with
// "vertices rearrangement" as a single-node optimisation: relabelling
// vertices so that hot vertices share cache lines improves both
// directions' locality. On a skewed graph, hubs at the smallest ids
// also sit first in every ascending in-row, so a bottom-up scan (which
// stops at its first frontier parent) stops sooner, and the hubs' bits
// of the frontier bitmap share a few cache lines.
//
// The order is computed from the edge list itself, in parallel, before
// the CSR exists: count each vertex's endpoints over the edges that are
// not self-loops, both ends (as build_csr symmetrises them), then order
// by descending count, ties to the smaller old id. Zero-count vertices
// — exactly the ones build_csr leaves without edges — become the last
// ids. Counts include duplicate edges, so deduplicated degrees are only
// nearly descending; that is enough to put hubs first. The caller
// relabels the edge list and builds once; build_csr itself never
// relabels.
//
// BFS is permutation-equivariant, so a traversal on the relabelled
// graph, mapped back through the Relabelling, has the original graph's
// levels. The serve engine keeps its resident graph in this order and
// maps ids only at its API; the CLI's `bfs --reorder degree` runs the
// Graph 500 protocol on it.
#pragma once

#include <vector>

#include "graph/edge_list.h"
#include "graph/types.h"

namespace bfsx::graph {

/// new_id = perm[old_id]. A valid permutation is a bijection on
/// [0, num_vertices).
using Permutation = std::vector<vid_t>;

/// Throws std::invalid_argument unless `perm` is a bijection over
/// [0, n).
void validate_permutation(const Permutation& perm, vid_t n);

/// Descending-degree order of `el`'s vertices: descending count of
/// non-self-loop edge endpoints, ties to the smaller old id. Identical
/// for every OMP_NUM_THREADS. Throws std::out_of_range (via
/// validate_edge_list) on an endpoint outside [0, num_vertices).
[[nodiscard]] Permutation degree_order(const EdgeList& el);

/// Applies a permutation to an edge list (endpoint relabelling) — the
/// serial reference the in-place relabel is tested against.
[[nodiscard]] EdgeList apply_permutation(const EdgeList& el,
                                         const Permutation& perm);

/// The inverse permutation: old_id = inv[new_id].
[[nodiscard]] Permutation invert_permutation(const Permutation& perm);

/// A relabelling held in both directions. External ids are the
/// caller's; internal ids are the relabelled graph's. Ids in
/// [0, size()) map through the permutation; every other id — negative,
/// or at or past size() — passes through unchanged, so a vertex set
/// that grows past size() extends the relabelling as the identity, and
/// an invalid id still reaches the range checks downstream. The
/// default-constructed relabelling is the identity.
class Relabelling {
 public:
  Relabelling() = default;
  /// `to_internal` must be a bijection over [0, to_internal.size()).
  explicit Relabelling(Permutation to_internal);

  [[nodiscard]] vid_t size() const noexcept {
    return static_cast<vid_t>(to_internal_.size());
  }
  [[nodiscard]] vid_t internal(vid_t external) const noexcept {
    return in_range(external)
               ? to_internal_[static_cast<std::size_t>(external)]
               : external;
  }
  [[nodiscard]] vid_t external(vid_t internal) const noexcept {
    return in_range(internal)
               ? to_external_[static_cast<std::size_t>(internal)]
               : internal;
  }

 private:
  [[nodiscard]] bool in_range(vid_t v) const noexcept {
    return v >= 0 && v < size();
  }

  Permutation to_internal_;
  Permutation to_external_;
};

/// Relabels `el` in place by degree_order(el) and returns the
/// relabelling; build_csr(el) afterwards is the degree-ordered graph.
[[nodiscard]] Relabelling relabel_by_degree(EdgeList& el);

}  // namespace bfsx::graph
