#include "graph/delta_csr.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

#include "check/contract.h"

namespace bfsx::graph {
namespace {

/// Per-row pending writes, gathered before any row is rebuilt.
struct RowOps {
  std::vector<vid_t> adds;
  std::vector<vid_t> dels;
};

using OpsByRow = std::unordered_map<vid_t, RowOps>;

void collect(OpsByRow& rows, vid_t src, vid_t dst, bool remove) {
  RowOps& ops = rows[src];
  (remove ? ops.dels : ops.adds).push_back(dst);
}

/// old ∪ adds ∖ dels, sorted ascending and deduplicated — exactly the
/// row a full build_csr of the updated edge list would produce.
std::vector<vid_t> rebuild_row(std::span<const vid_t> old, RowOps& ops) {
  std::sort(ops.adds.begin(), ops.adds.end());
  ops.adds.erase(std::unique(ops.adds.begin(), ops.adds.end()),
                 ops.adds.end());
  std::sort(ops.dels.begin(), ops.dels.end());

  std::vector<vid_t> merged;
  merged.reserve(old.size() + ops.adds.size());
  std::merge(old.begin(), old.end(), ops.adds.begin(), ops.adds.end(),
             std::back_inserter(merged));
  merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
  if (!ops.dels.empty()) {
    std::vector<vid_t> kept;
    kept.reserve(merged.size());
    std::set_difference(merged.begin(), merged.end(), ops.dels.begin(),
                        ops.dels.end(), std::back_inserter(kept));
    merged = std::move(kept);
  }
  return merged;
}

}  // namespace

DeltaCsr DeltaCsr::apply(std::shared_ptr<const CsrGraph> base,
                         const DeltaCsr* prev, std::span<const Edge> inserts,
                         std::span<const Edge> removes,
                         const BuildOptions& opts) {
  if (base == nullptr) {
    throw std::invalid_argument("DeltaCsr::apply: null base");
  }
  if (prev != nullptr && prev->base_.get() != base.get()) {
    throw std::invalid_argument(
        "DeltaCsr::apply: prev overlays a different base");
  }
  const bool symmetric = opts.symmetrize;
  BFSX_CHECK(base->is_symmetric() == symmetric)
      << "DeltaCsr::apply: base symmetry (" << base->is_symmetric()
      << ") disagrees with build options (" << symmetric << ")";

  DeltaCsr out;
  out.base_ = std::move(base);
  out.base_num_vertices_ = out.base_->num_vertices();
  out.symmetric_ = symmetric;
  out.num_vertices_ =
      prev != nullptr ? prev->num_vertices_ : out.base_num_vertices_;
  out.num_edges_ = prev != nullptr ? prev->num_edges_ : out.base_->num_edges();

  // Expand each op the way build_csr's options would, grouped by the
  // row it lands in. The in-side tables are only kept for directed
  // graphs; symmetric overlays alias in_row to out_row.
  OpsByRow out_ops;
  OpsByRow in_ops;
  const auto one_direction = [&](vid_t u, vid_t v, bool remove) {
    collect(out_ops, u, v, remove);
    if (!symmetric) collect(in_ops, v, u, remove);
  };
  const auto one_op = [&](const Edge& e, bool remove) {
    if (e.src < 0 || e.dst < 0) {
      throw std::invalid_argument("DeltaCsr::apply: negative vertex in op (" +
                                  std::to_string(e.src) + ", " +
                                  std::to_string(e.dst) + ")");
    }
    if (e.src == e.dst && opts.remove_self_loops) return;
    if (!remove) {
      out.num_vertices_ =
          std::max({out.num_vertices_, e.src + 1, e.dst + 1});
    }
    one_direction(e.src, e.dst, remove);
    if (symmetric && e.src != e.dst) one_direction(e.dst, e.src, remove);
  };
  for (const Edge& e : inserts) one_op(e, /*remove=*/false);
  for (const Edge& e : removes) one_op(e, /*remove=*/true);

  const auto n = static_cast<std::size_t>(out.num_vertices_);
  out.out_patch_of_.assign(n, -1);
  if (!symmetric) out.in_patch_of_.assign(n, -1);

  // Carry every live patch of the previous overlay forward; rows this
  // batch touches again are rebuilt below from the carried copy.
  const auto carry = [n](const std::vector<std::int32_t>& prev_of,
                         const std::vector<std::vector<vid_t>>& prev_rows,
                         std::vector<std::int32_t>& of,
                         std::vector<std::vector<vid_t>>& rows) {
    const std::size_t prev_n = prev_of.size();
    for (std::size_t v = 0; v < prev_n && v < n; ++v) {
      const std::int32_t p = prev_of[v];
      if (p < 0) continue;
      of[v] = static_cast<std::int32_t>(rows.size());
      rows.push_back(prev_rows[static_cast<std::size_t>(p)]);
    }
  };
  if (prev != nullptr) {
    carry(prev->out_patch_of_, prev->out_rows_, out.out_patch_of_,
          out.out_rows_);
    if (!symmetric) {
      carry(prev->in_patch_of_, prev->in_rows_, out.in_patch_of_,
            out.in_rows_);
    }
  }

  // Edge totals are counted on the out side only (in-rows mirror the
  // same directed edges for a directed graph's transpose).
  const auto patch_side = [&](OpsByRow& by_row,
                              std::vector<std::int32_t>& of,
                              std::vector<std::vector<vid_t>>& rows,
                              bool out_side) {
    // Deterministic rebuild order (iteration order of the hash map is
    // not): sort the touched vertices. The result is order-independent
    // anyway — rows are sets — but determinism keeps patch indices, and
    // therefore memory layout, reproducible.
    std::vector<vid_t> touched;
    touched.reserve(by_row.size());
    for (const auto& [v, ops] : by_row) touched.push_back(v);
    std::sort(touched.begin(), touched.end());

    for (const vid_t v : touched) {
      // Removes never grow the vertex set, so a remove op can name a
      // row past it — there is nothing to delete from (the edge is
      // absent by construction) and no patch table entry to index.
      if (v >= out.num_vertices_) continue;
      const auto vi = static_cast<std::size_t>(v);
      const std::int32_t p = of[vi];
      const std::span<const vid_t> old =
          p >= 0 ? std::span<const vid_t>(rows[static_cast<std::size_t>(p)])
          : v < out.base_num_vertices_
              ? (out_side ? out.base_->out_neighbors(v)
                          : out.base_->in_neighbors(v))
              : std::span<const vid_t>{};
      std::vector<vid_t> fresh = rebuild_row(old, by_row.at(v));
      if (out_side) {
        out.num_edges_ += static_cast<eid_t>(fresh.size()) -
                          static_cast<eid_t>(old.size());
      }
      if (p >= 0) {
        rows[static_cast<std::size_t>(p)] = std::move(fresh);
      } else if (fresh.size() == old.size() &&
                 std::equal(fresh.begin(), fresh.end(), old.begin())) {
        // No-op batch for this row (duplicate insert, remove of an
        // absent edge): don't burn a patch slot on an identical row.
        continue;
      } else {
        of[vi] = static_cast<std::int32_t>(rows.size());
        rows.push_back(std::move(fresh));
      }
    }
  };
  patch_side(out_ops, out.out_patch_of_, out.out_rows_, /*out_side=*/true);
  if (!symmetric) {
    patch_side(in_ops, out.in_patch_of_, out.in_rows_, /*out_side=*/false);
  }
  return out;
}

bool DeltaCsr::has_edge(vid_t u, vid_t v) const noexcept {
  if (u < 0 || v < 0 || u >= num_vertices_ || v >= num_vertices_) {
    return false;
  }
  const std::span<const vid_t> row = out_row(u);
  return std::binary_search(row.begin(), row.end(), v);
}

EdgeList DeltaCsr::materialize_edges() const {
  EdgeList el;
  el.num_vertices = num_vertices_;
  el.edges.reserve(static_cast<std::size_t>(num_edges_));
  for (vid_t v = 0; v < num_vertices_; ++v) {
    for (const vid_t w : out_row(v)) el.add(v, w);
  }
  return el;
}

}  // namespace bfsx::graph
