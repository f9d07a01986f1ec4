// Frontier bookkeeping helpers: bitmap-to-queue decoding, the two
// quantities the switching rule tests every level, |V|cq and |E|cq,
// the ordered parallel compaction the bottom-up and MS-BFS kernels use
// to shrink their candidate lists, and the edge-balanced pieces the
// top-down kernels deal a frontier out in.
//
// Every parallel helper here partitions its input into fixed-size
// blocks, never into per-thread chunks, so its output is the serial
// result for any team size — a nested 1-thread team included.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/bitmap.h"
#include "graph/csr.h"
#include "graph/types.h"
#include "graph/view.h"

namespace bfsx::bfs {

/// Rebuilds `queue` (ascending order) from the set bits of `bitmap`.
void bitmap_to_queue(const graph::Bitmap& bitmap,
                     std::vector<graph::vid_t>& queue);

/// |E|cq: the number of out-edges hanging off the frontier — what
/// top-down will traverse this level, and the left operand of the
/// paper's `|E|cq < |E|/M` switch test.
[[nodiscard]] graph::eid_t frontier_out_edges(
    const graph::CsrGraph& g, const std::vector<graph::vid_t>& queue);

/// View overload of the |E|cq tally; same degree sum over any
/// graph::GraphView.
template <graph::GraphView V>
[[nodiscard]] graph::eid_t frontier_out_edges(
    const V& g, const std::vector<graph::vid_t>& queue) {
  graph::eid_t total = 0;
  for (graph::vid_t v : queue) total += g.out_degree(v);
  return total;
}

// ---- ordered blocked compaction ------------------------------------

/// Elements per block of the ordered compactions.
inline constexpr std::size_t kCompactBlock = 1024;

/// Inputs shorter than this compact on the calling thread: waking a
/// team costs more than the pass.
inline constexpr std::size_t kCompactParallelMin = 16 * kCompactBlock;

[[nodiscard]] constexpr std::size_t compact_blocks(std::size_t count) {
  return (count + kCompactBlock - 1) / kCompactBlock;
}

/// What one block of a blocked scan left behind, and (after
/// gather_blocks) where its items go. Block b of a `count`-element
/// staging buffer covers [b * kCompactBlock, min(count, (b + 1) *
/// kCompactBlock)); the scan leaves `front` kept items at the block's
/// start and `back` items of a second stream at its end, each in scan
/// order, with front + back <= the block's length.
struct BlockSpan {
  std::size_t front = 0;
  std::size_t back = 0;
  std::size_t front_at = 0;  ///< output offset of the front items
  std::size_t back_at = 0;   ///< output offset of the back items
};

/// Exclusive prefix sums of the spans' counts into their offsets;
/// returns the {front, back} totals. O(blocks), serial.
inline std::pair<std::size_t, std::size_t> prefix_spans(
    std::vector<BlockSpan>& spans) {
  std::size_t front = 0;
  std::size_t back = 0;
  for (BlockSpan& s : spans) {
    s.front_at = front;
    s.back_at = back;
    front += s.front;
    back += s.back;
  }
  return {front, back};
}

/// The gather half of an ordered blocked compaction. After a scan has
/// filled `spans` (one per block of `staging[0, count)`), writes every
/// block's front items to `front_out` and, when `back_out` is non-null,
/// every block's back items to `*back_out`, both in block order — the
/// concatenation a serial scan would produce — with one prefix sum and
/// one parallel scatter. The outputs are resized to fit and must not
/// alias `staging`.
///
/// An orphaned worksharing construct: call it from every thread of the
/// parallel region that ran the scan (after the scan loop's barrier),
/// or from outside any region to run serially.
template <typename FrontOut, typename BackOut>
void gather_blocks(const graph::vid_t* staging, std::size_t count,
                   std::vector<BlockSpan>& spans, FrontOut& front_out,
                   BackOut* back_out) {
#ifdef _OPENMP
#pragma omp single
#endif
  {
    const auto [front, back] = prefix_spans(spans);
    front_out.resize(front);
    if (back_out != nullptr) back_out->resize(back);
  }
  const auto nblocks = static_cast<std::int64_t>(spans.size());
#ifdef _OPENMP
#pragma omp for schedule(static)
#endif
  for (std::int64_t b = 0; b < nblocks; ++b) {
    const BlockSpan& s = spans[static_cast<std::size_t>(b)];
    const std::size_t lo = static_cast<std::size_t>(b) * kCompactBlock;
    const std::size_t hi = std::min(count, lo + kCompactBlock);
    std::copy_n(staging + lo, s.front, front_out.data() + s.front_at);
    if (back_out != nullptr) {
      std::copy_n(staging + (hi - s.back), s.back,
                  back_out->data() + s.back_at);
    }
  }
}

/// Ordered parallel filter: sets `out` to value(i) for every i in
/// [0, count) whose value passes `keep`, in ascending i. Each block
/// stages its survivors at the start of its own range of `staging` (a
/// buffer of at least `count` elements), so `staging` may be the array
/// `value` reads from — a block only overwrites slots it has already
/// read — but not `out`. Serial below kCompactParallelMin.
template <typename Out, typename Value, typename Keep>
void filter_ordered(std::size_t count, graph::vid_t* staging,
                    std::vector<BlockSpan>& spans, Out& out, Value&& value,
                    Keep&& keep) {
  const std::size_t nblocks = compact_blocks(count);
  spans.resize(nblocks);
  const auto nb = static_cast<std::int64_t>(nblocks);
#ifdef _OPENMP
#pragma omp parallel if (count >= kCompactParallelMin)
#endif
  {
#ifdef _OPENMP
#pragma omp for schedule(static)
#endif
    for (std::int64_t b = 0; b < nb; ++b) {
      const std::size_t lo = static_cast<std::size_t>(b) * kCompactBlock;
      const std::size_t hi = std::min(count, lo + kCompactBlock);
      std::size_t kept = lo;
      for (std::size_t i = lo; i < hi; ++i) {
        const graph::vid_t x = value(i);
        if (keep(x)) staging[kept++] = x;
      }
      spans[static_cast<std::size_t>(b)] = {.front = kept - lo, .back = 0};
    }
    gather_blocks(staging, count, spans, out,
                  static_cast<Out*>(nullptr));
  }
}

// ---- edge-balanced top-down pieces ---------------------------------

/// Out-edges per piece of a top-down level. The frontier's rows, laid
/// end to end, are cut every kPieceEdges edges, and threads take pieces
/// rather than vertices, so a hub row is spread over the team instead
/// of pinning the thread that drew it.
inline constexpr graph::eid_t kPieceEdges = 1024;

[[nodiscard]] constexpr std::int64_t piece_count(graph::eid_t edges) {
  return (edges + kPieceEdges - 1) / kPieceEdges;
}

/// Sets `offsets` to the count + 1 exclusive prefix sums of weight(i),
/// i in [0, count), and returns the total, offsets[count]. Each block
/// of kCompactBlock rows stages its weights and their sum, one prefix
/// sum runs over the blocks, and each block turns its weights into
/// offsets; a single block runs on the calling thread. `spans` is
/// per-block scratch; both buffers are kept by the caller so repeated
/// calls allocate nothing.
template <typename Weight>
graph::eid_t prefix_offsets(std::size_t count, Weight&& weight,
                            std::vector<graph::eid_t>& offsets,
                            std::vector<BlockSpan>& spans) {
  offsets.resize(count + 1);
  spans.resize(compact_blocks(count));
  graph::eid_t* const out = offsets.data();
  const auto nblocks = static_cast<std::int64_t>(spans.size());
#ifdef _OPENMP
#pragma omp parallel if (nblocks > 1)
#endif
  {
#ifdef _OPENMP
#pragma omp for schedule(static)
#endif
    for (std::int64_t b = 0; b < nblocks; ++b) {
      const std::size_t lo = static_cast<std::size_t>(b) * kCompactBlock;
      const std::size_t hi = std::min(count, lo + kCompactBlock);
      graph::eid_t sum = 0;
      for (std::size_t i = lo; i < hi; ++i) {
        const graph::eid_t w = weight(i);
        out[i + 1] = w;
        sum += w;
      }
      spans[static_cast<std::size_t>(b)] = {
          .front = static_cast<std::size_t>(sum), .back = 0};
    }
#ifdef _OPENMP
#pragma omp single
#endif
    prefix_spans(spans);
#ifdef _OPENMP
#pragma omp for schedule(static)
#endif
    for (std::int64_t b = 0; b < nblocks; ++b) {
      const std::size_t lo = static_cast<std::size_t>(b) * kCompactBlock;
      const std::size_t hi = std::min(count, lo + kCompactBlock);
      auto at = static_cast<graph::eid_t>(
          spans[static_cast<std::size_t>(b)].front_at);
      for (std::size_t i = lo; i < hi; ++i) {
        at += out[i + 1];
        out[i + 1] = at;
      }
    }
  }
  out[0] = 0;
  return out[count];
}

/// Calls visit(i, w) for every out-edge (rows[i], w) in piece `piece`
/// of a frontier whose row weights prefix_offsets summed into
/// `offsets` (a row's weight is its out-degree, or 0 to skip the row).
/// Piece p covers positions [p * kPieceEdges, (p + 1) * kPieceEdges)
/// of the weighted rows laid end to end. On a graph::RowView it walks
/// exactly those edges, so a long row is split over several pieces;
/// any other view has each row that starts inside the piece walked
/// whole. Either way every edge of every weighted row falls in exactly
/// one of the piece_count(offsets[rows.size()]) pieces.
template <graph::GraphView V, typename Visit>
void expand_piece(const V& g, std::span<const graph::vid_t> rows,
                  const graph::eid_t* offsets, std::int64_t piece,
                  Visit&& visit) {
  const std::size_t count = rows.size();
  const graph::eid_t begin = piece * kPieceEdges;
  const graph::eid_t end = std::min(offsets[count], begin + kPieceEdges);
  // Split rows start at the row holding edge `begin`; whole rows at
  // the first row starting at or after it.
  std::size_t i = 0;
  if constexpr (graph::RowView<V>) {
    i = static_cast<std::size_t>(
        std::upper_bound(offsets, offsets + count, begin) - offsets - 1);
  } else {
    i = static_cast<std::size_t>(
        std::lower_bound(offsets, offsets + count, begin) - offsets);
  }
  for (; i < count && offsets[i] < end; ++i) {
    if (offsets[i + 1] == offsets[i]) continue;  // empty or skipped row
    const graph::vid_t u = rows[i];
    if constexpr (graph::RowView<V>) {
      const std::span<const graph::vid_t> row = g.out_row(u);
      const auto lo =
          static_cast<std::size_t>(std::max(begin, offsets[i]) - offsets[i]);
      const auto hi =
          static_cast<std::size_t>(std::min(end, offsets[i + 1]) - offsets[i]);
      for (std::size_t j = lo; j < hi; ++j) visit(i, row[j]);
    } else {
      g.for_each_out_neighbor(u, [&visit, i](graph::vid_t w) { visit(i, w); });
    }
  }
}

/// Words per block of the popcount-prefix decode, and the word count
/// below which it runs serially.
inline constexpr std::size_t kDecodeWords = 256;
inline constexpr std::size_t kDecodeParallelWords = 4096;

/// Writes the positions of the set bits of `bitmap` — or, with
/// `complement`, of its clear bits below size() — to `out` in ascending
/// order: per-block popcounts, one prefix sum, then every block decodes
/// straight into its slice of `out`. `spans` is per-block scratch, kept
/// by the caller so repeated calls allocate nothing.
template <typename Out>
void decode_bits(const graph::Bitmap& bitmap, bool complement, Out& out,
                 std::vector<BlockSpan>& spans) {
  const std::uint64_t* words = bitmap.words();
  const std::size_t nwords = bitmap.word_count();
  const std::size_t tail = bitmap.size() & 63;
  // The complement of the last word must not report the padding bits
  // past size() as clear vertices.
  const std::uint64_t last_mask = complement && tail != 0
                                      ? (std::uint64_t{1} << tail) - 1
                                      : ~std::uint64_t{0};
  const auto word_at = [words, nwords, complement,
                        last_mask](std::size_t w) -> std::uint64_t {
    const std::uint64_t x = complement ? ~words[w] : words[w];
    return w + 1 == nwords ? x & last_mask : x;
  };
  spans.resize((nwords + kDecodeWords - 1) / kDecodeWords);
  const auto nblocks = static_cast<std::int64_t>(spans.size());
#ifdef _OPENMP
#pragma omp parallel if (nwords >= kDecodeParallelWords)
#endif
  {
#ifdef _OPENMP
#pragma omp for schedule(static)
#endif
    for (std::int64_t b = 0; b < nblocks; ++b) {
      const std::size_t lo = static_cast<std::size_t>(b) * kDecodeWords;
      const std::size_t hi = std::min(nwords, lo + kDecodeWords);
      std::size_t bits = 0;
      for (std::size_t w = lo; w < hi; ++w) {
        bits += static_cast<std::size_t>(__builtin_popcountll(word_at(w)));
      }
      spans[static_cast<std::size_t>(b)] = {.front = bits, .back = 0};
    }
#ifdef _OPENMP
#pragma omp single
#endif
    out.resize(prefix_spans(spans).first);
#ifdef _OPENMP
#pragma omp for schedule(static)
#endif
    for (std::int64_t b = 0; b < nblocks; ++b) {
      const std::size_t lo = static_cast<std::size_t>(b) * kDecodeWords;
      const std::size_t hi = std::min(nwords, lo + kDecodeWords);
      graph::vid_t* dst =
          out.data() + spans[static_cast<std::size_t>(b)].front_at;
      for (std::size_t w = lo; w < hi; ++w) {
        std::uint64_t word = word_at(w);
        while (word != 0) {
          *dst++ = static_cast<graph::vid_t>(
              (w << 6) + static_cast<std::size_t>(__builtin_ctzll(word)));
          word &= word - 1;
        }
      }
    }
  }
}

}  // namespace bfsx::bfs
