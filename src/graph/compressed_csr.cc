#include "graph/compressed_csr.h"

#include <stdexcept>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace bfsx::graph {
namespace {

/// Size pass + encode pass over one adjacency side. Two-phase like the
/// parallel CSR builder: per-row byte counts, one prefix sum, then each
/// row encodes at its exact byte offset — output is bit-identical for
/// any thread count, and the parallel encode is the only write to the
/// byte stream.
detail::CompressedAdjacency compress_side(const EidArray& offsets,
                                          const VidArray& targets) {
  detail::CompressedAdjacency adj;
  adj.offsets = offsets;
  const std::size_t n = offsets.empty() ? 0 : offsets.size() - 1;
  adj.byte_offsets.resize(n + 1);
  adj.byte_offsets[0] = 0;

  bool unsorted = false;
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic, 1024) reduction(|| : unsorted)
#endif
  for (std::size_t v = 0; v < n; ++v) {
    const auto lo = static_cast<std::size_t>(offsets[v]);
    const auto hi = static_cast<std::size_t>(offsets[v + 1]);
    std::size_t bytes = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      if (i == lo) {
        bytes += detail::varint_size(static_cast<std::uint32_t>(targets[i]));
      } else if (targets[i] < targets[i - 1]) {
        unsorted = true;
      } else {
        bytes += detail::varint_size(
            static_cast<std::uint32_t>(targets[i] - targets[i - 1]));
      }
    }
    adj.byte_offsets[v + 1] = bytes;  // per-row size; prefix-summed below
  }
  if (unsorted) {
    throw std::invalid_argument(
        "CompressedCsrView: adjacency rows must be sorted ascending, "
        "as build_csr leaves them");
  }
  for (std::size_t v = 0; v < n; ++v) {
    adj.byte_offsets[v + 1] += adj.byte_offsets[v];
  }

  adj.bytes.resize(static_cast<std::size_t>(adj.byte_offsets[n]));
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic, 1024)
#endif
  for (std::size_t v = 0; v < n; ++v) {
    const auto lo = static_cast<std::size_t>(offsets[v]);
    const auto hi = static_cast<std::size_t>(offsets[v + 1]);
    // Row v writes exactly [byte_offsets[v], byte_offsets[v+1]) —
    // disjoint from every other row, so any schedule yields the same
    // stream.
    std::uint8_t* p = adj.bytes.data() + adj.byte_offsets[v];
    for (std::size_t i = lo; i < hi; ++i) {
      const std::uint32_t value = static_cast<std::uint32_t>(
          i == lo ? targets[i] : targets[i] - targets[i - 1]);
      p = detail::varint_encode(p, value);
    }
  }
  return adj;
}

}  // namespace

CompressedCsrView::CompressedCsrView(const CsrGraph& g)
    : num_vertices_(g.num_vertices()), symmetric_(g.is_symmetric()) {
  out_ = compress_side(g.out_offsets(), g.out_targets());
  if (!symmetric_) {
    in_ = compress_side(g.in_offsets(), g.in_targets());
  }
}

}  // namespace bfsx::graph
