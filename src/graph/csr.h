// Compressed Sparse Row graph storage.
//
// The paper stores graphs in CSR ("We use the CSR format to store the
// graph", Section V-A). Top-down needs out-adjacency; bottom-up needs
// in-adjacency (an unvisited vertex scans the vertices that point *to*
// it). For the symmetric graphs Graph 500 produces the two are the same
// array and are shared; for directed graphs both are materialised.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "check/report.h"
#include "graph/types.h"
#include "graph/uninit_vector.h"

namespace bfsx::graph {

/// CSR adjacency array types. UninitVector so sizing the targets array
/// writes nothing and the parallel builder's blocked scatter is the
/// only pass over it; interchangeable with std::vector everywhere
/// except the allocator parameter.
using EidArray = UninitVector<eid_t>;
using VidArray = UninitVector<vid_t>;

class CsrGraph {
 public:
  CsrGraph() = default;

  /// Builds a symmetric graph: `offsets`/`targets` serve as both the
  /// out- and in-adjacency.
  CsrGraph(EidArray offsets, VidArray targets);

  /// Builds a directed graph with distinct out- and in-adjacency.
  CsrGraph(EidArray out_offsets, VidArray out_targets, EidArray in_offsets,
           VidArray in_targets);

  [[nodiscard]] vid_t num_vertices() const noexcept {
    return out_offsets_.empty() ? 0
                                : static_cast<vid_t>(out_offsets_.size() - 1);
  }

  /// Number of *directed* edges stored (for a symmetrised graph this is
  /// twice the undirected edge count).
  [[nodiscard]] eid_t num_edges() const noexcept {
    return out_offsets_.empty() ? 0 : out_offsets_.back();
  }

  [[nodiscard]] bool is_symmetric() const noexcept { return symmetric_; }

  [[nodiscard]] eid_t out_degree(vid_t v) const noexcept {
    const auto u = static_cast<std::size_t>(v);
    return out_offsets_[u + 1] - out_offsets_[u];
  }

  [[nodiscard]] eid_t in_degree(vid_t v) const noexcept {
    const auto u = static_cast<std::size_t>(v);
    return in_offsets()[u + 1] - in_offsets()[u];
  }

  /// Out-neighbours of `v` (successors), sorted ascending.
  [[nodiscard]] std::span<const vid_t> out_neighbors(vid_t v) const noexcept {
    const auto u = static_cast<std::size_t>(v);
    return {out_targets_.data() + out_offsets_[u],
            static_cast<std::size_t>(out_offsets_[u + 1] - out_offsets_[u])};
  }

  /// In-neighbours of `v` (predecessors), sorted ascending.
  [[nodiscard]] std::span<const vid_t> in_neighbors(vid_t v) const noexcept {
    const auto* offs = in_offsets().data();
    const auto* tgts = in_targets().data();
    const auto u = static_cast<std::size_t>(v);
    return {tgts + offs[u], static_cast<std::size_t>(offs[u + 1] - offs[u])};
  }

  /// True iff the directed edge (u, v) exists. O(log degree(u)).
  [[nodiscard]] bool has_edge(vid_t u, vid_t v) const noexcept;

  /// Raw arrays, exposed for kernels that iterate the whole structure.
  [[nodiscard]] const EidArray& out_offsets() const noexcept {
    return out_offsets_;
  }
  [[nodiscard]] const VidArray& out_targets() const noexcept {
    return out_targets_;
  }
  [[nodiscard]] const EidArray& in_offsets() const noexcept {
    return symmetric_ ? out_offsets_ : in_offsets_;
  }
  [[nodiscard]] const VidArray& in_targets() const noexcept {
    return symmetric_ ? out_targets_ : in_targets_;
  }

  /// Approximate resident bytes (used by the cost model for cache terms).
  [[nodiscard]] std::size_t memory_footprint_bytes() const noexcept;

  /// Paranoid structural validator (BFSX_PARANOID tier; O(V + E log d)).
  /// Appends numbered failures to `report`: offset monotonicity and
  /// bounds, target range, per-row sort order, out/in mirror-edge
  /// symmetry for the shared-adjacency representation, and out/in
  /// transpose consistency for directed graphs. build_csr wires this
  /// behind BFSX_PARANOID; tests and the CLI's --paranoid flag call it
  /// directly.
  void check_invariants(check::CheckReport& report) const;

  /// Convenience wrapper: throws check::ContractViolation listing every
  /// retained failure.
  void assert_invariants() const;

 private:
  EidArray out_offsets_;
  VidArray out_targets_;
  EidArray in_offsets_;   // empty when symmetric_
  VidArray in_targets_;  // empty when symmetric_
  bool symmetric_ = true;
};

}  // namespace bfsx::graph
