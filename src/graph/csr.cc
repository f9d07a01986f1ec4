#include "graph/csr.h"

#include <algorithm>
#include <utility>

#include "check/contract.h"

namespace bfsx::graph {
namespace {

/// Shared structural checks over one adjacency (offsets, targets) pair.
/// `side` labels failures "out" or "in".
void check_adjacency(const char* side, const EidArray& offsets,
                     const VidArray& targets, check::CheckReport& report) {
  if (offsets.empty()) {
    report.failf() << side << "-offsets empty (no vertex sentinel)";
    return;
  }
  if (offsets.front() != 0) {
    report.failf() << side << "-offsets[0] = " << offsets.front()
                   << ", expected 0";
  }
  if (offsets.back() != static_cast<eid_t>(targets.size())) {
    report.failf() << side << "-offsets.back() = " << offsets.back()
                   << " does not match |" << side
                   << "-targets| = " << targets.size();
  }
  const auto n = offsets.size() - 1;
  const auto vn = static_cast<vid_t>(n);
  for (std::size_t v = 0; v < n && report.wants_more(); ++v) {
    if (offsets[v + 1] < offsets[v]) {
      report.failf() << side << "-offsets not monotone at vertex " << v << " ("
                     << offsets[v] << " -> " << offsets[v + 1] << ")";
    }
  }
  for (std::size_t i = 0; i < targets.size() && report.wants_more(); ++i) {
    if (targets[i] < 0 || targets[i] >= vn) {
      report.failf() << side << "-targets[" << i << "] = " << targets[i]
                     << " out of range [0, " << vn << ")";
    }
  }
  for (std::size_t v = 0; v < n && report.wants_more(); ++v) {
    const auto lo = static_cast<std::size_t>(offsets[v]);
    const auto hi = static_cast<std::size_t>(offsets[v + 1]);
    if (hi > targets.size() || offsets[v] < 0) continue;  // reported above
    for (std::size_t i = lo + 1; i < hi; ++i) {
      if (targets[i - 1] > targets[i]) {
        report.failf() << side << "-row of vertex " << v
                       << " not sorted ascending at slot " << i << " ("
                       << targets[i - 1] << " > " << targets[i] << ")";
        break;  // one failure per row is enough to show the pattern
      }
    }
  }
}

/// True iff `v` appears in the sorted (offsets, targets) row of `u`.
bool row_contains(const EidArray& offsets, const VidArray& targets, vid_t u,
                  vid_t v) {
  const auto lo = static_cast<std::size_t>(offsets[static_cast<std::size_t>(u)]);
  const auto hi =
      static_cast<std::size_t>(offsets[static_cast<std::size_t>(u) + 1]);
  return std::binary_search(targets.begin() + static_cast<std::ptrdiff_t>(lo),
                            targets.begin() + static_cast<std::ptrdiff_t>(hi),
                            v);
}

}  // namespace

CsrGraph::CsrGraph(EidArray offsets, VidArray targets)
    : out_offsets_(std::move(offsets)),
      out_targets_(std::move(targets)),
      symmetric_(true) {
  // Promoted from assert(): these guard every subsequent unchecked
  // index into the arrays, so they must hold in release builds too
  // (tier-1 CI runs RelWithDebInfo, where assert compiles out).
  BFSX_CHECK(!out_offsets_.empty())
      << "CSR offsets need at least the terminating sentinel";
  BFSX_CHECK_EQ(out_offsets_.front(), 0);
  BFSX_CHECK_EQ(out_offsets_.back(), static_cast<eid_t>(out_targets_.size()));
}

CsrGraph::CsrGraph(EidArray out_offsets, VidArray out_targets,
                   EidArray in_offsets, VidArray in_targets)
    : out_offsets_(std::move(out_offsets)),
      out_targets_(std::move(out_targets)),
      in_offsets_(std::move(in_offsets)),
      in_targets_(std::move(in_targets)),
      symmetric_(false) {
  BFSX_CHECK(!out_offsets_.empty())
      << "CSR offsets need at least the terminating sentinel";
  BFSX_CHECK_EQ(out_offsets_.front(), 0);
  BFSX_CHECK_EQ(out_offsets_.size(), in_offsets_.size());
  BFSX_CHECK_EQ(out_offsets_.back(), static_cast<eid_t>(out_targets_.size()));
  BFSX_CHECK_EQ(in_offsets_.back(), static_cast<eid_t>(in_targets_.size()));
}

bool CsrGraph::has_edge(vid_t u, vid_t v) const noexcept {
  const auto nbrs = out_neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

std::size_t CsrGraph::memory_footprint_bytes() const noexcept {
  auto bytes = [](const auto& vec) {
    return vec.size() * sizeof(typename std::decay_t<decltype(vec)>::value_type);
  };
  return bytes(out_offsets_) + bytes(out_targets_) + bytes(in_offsets_) +
         bytes(in_targets_);
}

void CsrGraph::check_invariants(check::CheckReport& report) const {
  check_adjacency("out", out_offsets_, out_targets_, report);
  if (!symmetric_) check_adjacency("in", in_offsets_, in_targets_, report);
  // Cross-adjacency checks index freely; bail if the basic structure is
  // already broken.
  if (!report.ok()) return;

  const vid_t n = num_vertices();
  if (symmetric_) {
    // Shared adjacency means "undirected": every (u, v) needs its
    // mirror (v, u) in the same array, or bottom-up (which scans the
    // shared array as in-neighbours) silently diverges from top-down.
    for (vid_t u = 0; u < n && report.wants_more(); ++u) {
      for (vid_t v : out_neighbors(u)) {
        if (!row_contains(out_offsets_, out_targets_, v, u)) {
          report.failf() << "undirected edge (" << u << "," << v
                         << ") has no mirror (" << v << "," << u << ")";
          if (!report.wants_more()) return;
        }
      }
    }
  } else {
    // The in-adjacency must be the exact transpose of the out-adjacency.
    if (in_offsets_.back() != out_offsets_.back()) {
      report.failf() << "directed edge counts disagree (out "
                     << out_offsets_.back() << ", in " << in_offsets_.back()
                     << ")";
      return;
    }
    for (vid_t u = 0; u < n && report.wants_more(); ++u) {
      for (vid_t v : out_neighbors(u)) {
        if (!row_contains(in_offsets_, in_targets_, v, u)) {
          report.failf() << "out-edge (" << u << "," << v
                         << ") missing from the in-adjacency of " << v;
          if (!report.wants_more()) return;
        }
      }
    }
  }
}

void CsrGraph::assert_invariants() const {
  check::CheckReport report;
  check_invariants(report);
  report.throw_if_failed("CsrGraph::check_invariants");
}

}  // namespace bfsx::graph
