// Delta/varint-compressed CSR adjacency, exposed through the GraphView
// concept tiers so the identical templated kernels traverse it.
//
// CSR rows are sorted ascending, so each row is stored as its first
// target followed by successive deltas, every value LEB128-varint
// encoded (7 payload bits per byte, high bit = continuation,
// byte-aligned). R-MAT rows are short and their deltas small — most
// edges shrink from 4 bytes to 1-2 — so the traversal working set
// drops well below the raw targets array and the bottom-up scan
// touches fewer cache lines per candidate. The cost is a sequential
// decode per row: on a 4-vCPU Xeon a scale-18 hybrid traversal ran at
// 1.06x/0.92x/0.98x the flat CSR's speed at 1/2/4 threads. It is a
// footprint option (bfsx bfs --compress), not the default
// representation.
//
// Capability tiers modelled (graph/view.h): HybridView (both-direction
// enumeration + exact edge count, i.e. everything the M/N drivers
// need). It does not model RowView: decoded values only exist
// sequentially, so the top-down kernels walk each of its rows whole.
// has_edge is deliberately not provided — a membership probe would
// decode the whole row, and the validator's linear fallback does
// exactly that anyway.
//
// DESIGN.md §12.1 documents the format; test_compressed_csr holds the
// view to bit-equal traversals against CsrGraphView.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "graph/csr.h"
#include "graph/types.h"
#include "graph/uninit_vector.h"
#include "graph/view.h"

namespace bfsx::graph {

namespace detail {

/// LEB128 length of `value` in bytes (1..5 for 32-bit payloads).
[[nodiscard]] constexpr std::size_t varint_size(std::uint32_t value) noexcept {
  std::size_t size = 1;
  while (value >= 0x80) {
    value >>= 7;
    ++size;
  }
  return size;
}

/// Appends the LEB128 encoding of `value` at `out`; returns the
/// position past the last byte written.
inline std::uint8_t* varint_encode(std::uint8_t* out,
                                   std::uint32_t value) noexcept {
  while (value >= 0x80) {
    *out++ = static_cast<std::uint8_t>(value | 0x80);
    value >>= 7;
  }
  *out++ = static_cast<std::uint8_t>(value);
  return out;
}

/// Decodes one LEB128 value from `in` into `*value`; returns the
/// position past the last byte consumed. Trusts the stream (it is
/// produced by varint_encode in the same process).
inline const std::uint8_t* varint_decode(const std::uint8_t* in,
                                         std::uint32_t* value) noexcept {
  std::uint32_t result = *in & 0x7F;
  int shift = 7;
  while ((*in & 0x80) != 0) {
    ++in;
    result |= static_cast<std::uint32_t>(*in & 0x7F) << shift;
    shift += 7;
  }
  *value = result;
  return in + 1;
}

/// One compressed adjacency side (out- or in-): per-row byte offsets
/// plus the concatenated varint streams. The eid_t row offsets of the
/// source CSR are kept verbatim — O(1) degree and exact edge counts
/// cost 8 bytes/vertex, a rounding error next to the edge payload.
struct CompressedAdjacency {
  EidArray offsets;                   // n + 1, element counts (from CSR)
  UninitVector<std::uint64_t> byte_offsets;  // n + 1, into bytes
  UninitVector<std::uint8_t> bytes;   // delta/varint streams, row-major

  [[nodiscard]] eid_t degree(std::size_t v) const noexcept {
    return offsets[v + 1] - offsets[v];
  }

  /// Decodes row `v`, calling `fn(neighbor)` in ascending order; if
  /// `Fn` returns bool, a false return stops the decode (the bottom-up
  /// early exit).
  template <typename Fn>
  void decode_row(std::size_t v, Fn&& fn) const {
    const eid_t deg = degree(v);
    const std::uint8_t* p = bytes.data() + byte_offsets[v];
    std::uint32_t value = 0;
    for (eid_t i = 0; i < deg; ++i) {
      std::uint32_t delta;
      p = varint_decode(p, &delta);
      value = i == 0 ? delta : value + delta;
      if constexpr (std::is_same_v<decltype(fn(vid_t{})), bool>) {
        if (!fn(static_cast<vid_t>(value))) return;
      } else {
        fn(static_cast<vid_t>(value));
      }
    }
  }
};

}  // namespace detail

/// Read-only compressed snapshot of a CsrGraph's adjacency. Rows must
/// be sorted ascending (the builder's default); the constructor throws
/// std::invalid_argument otherwise. Symmetric graphs share one stream
/// for both directions, exactly like CsrGraph.
class CompressedCsrView {
 public:
  explicit CompressedCsrView(const CsrGraph& g);

  [[nodiscard]] vid_t num_vertices() const noexcept { return num_vertices_; }
  [[nodiscard]] eid_t num_edges() const noexcept {
    return out_.offsets.empty() ? 0 : out_.offsets.back();
  }
  [[nodiscard]] bool is_symmetric() const noexcept { return symmetric_; }

  [[nodiscard]] eid_t out_degree(vid_t v) const noexcept {
    return out_.degree(static_cast<std::size_t>(v));
  }
  [[nodiscard]] eid_t in_degree(vid_t v) const noexcept {
    return in_side().degree(static_cast<std::size_t>(v));
  }

  template <typename Fn>
  void for_each_out_neighbor(vid_t v, Fn&& fn) const {
    out_.decode_row(static_cast<std::size_t>(v), std::forward<Fn>(fn));
  }

  template <typename Fn>
  void for_each_in_neighbor(vid_t v, Fn&& fn) const {
    in_side().decode_row(static_cast<std::size_t>(v), std::forward<Fn>(fn));
  }

  /// Compressed payload bytes (both directions; excludes offsets).
  [[nodiscard]] std::size_t compressed_bytes() const noexcept {
    return out_.bytes.size() + (symmetric_ ? 0 : in_.bytes.size());
  }

  /// Raw bytes the source CSR spends on the same target arrays.
  [[nodiscard]] std::size_t uncompressed_bytes() const noexcept {
    const std::size_t m = static_cast<std::size_t>(num_edges());
    return (symmetric_ ? m : 2 * m) * sizeof(vid_t);
  }

  /// uncompressed / compressed; > 1 means the view shrank the edges.
  [[nodiscard]] double compression_ratio() const noexcept {
    const std::size_t c = compressed_bytes();
    return c == 0 ? 1.0
                  : static_cast<double>(uncompressed_bytes()) /
                        static_cast<double>(c);
  }

 private:
  [[nodiscard]] const detail::CompressedAdjacency& in_side() const noexcept {
    return symmetric_ ? out_ : in_;
  }

  detail::CompressedAdjacency out_;
  detail::CompressedAdjacency in_;  // empty when symmetric_
  vid_t num_vertices_ = 0;
  bool symmetric_ = true;
};

static_assert(HybridView<CompressedCsrView>);
static_assert(!RowView<CompressedCsrView>);

}  // namespace bfsx::graph
