// Graph 500-style BFS output validation.
//
// Follows the five checks the Graph 500 specification mandates for
// kernel-2 results, adapted to our parent+level representation:
//   1. the root is its own parent at level 0;
//   2. every reached vertex has a level exactly one greater than its
//      parent's level (tree edges span adjacent levels);
//   3. every tree edge (parent[v], v) exists in the graph;
//   4. every graph edge spans at most one level (|lvl(u)-lvl(v)| <= 1
//      when both ends are reached) — the BFS level map is a valid
//      distance labelling;
//   5. reachability agrees with ground truth: an edge with exactly one
//      reached endpoint would contradict BFS completeness (for the
//      undirected view).
//
// The validator is a template over graph::GraphView, so compressed and
// delta-CSR runs get exactly the same scrutiny as flat CSR runs. Check
// 3 uses the EdgeQueryView capability (O(log degree) membership) when
// the view offers it and otherwise falls back to a linear scan of the
// parent's out-row — the path CompressedCsrView takes, since it has no
// has_edge (a probe would decode the whole row anyway).
#pragma once

#include <string>
#include <vector>

#include "bfs/state.h"
#include "graph/view.h"

namespace bfsx::bfs {

/// Validation outcome. Collects up to `kMaxFailures` numbered failures
/// (vertex/edge context per entry) instead of stopping at the first, so
/// fuzz-test diagnostics show the whole corruption pattern — one
/// flipped bitmap word corrupts 64 consecutive vertices, which is
/// unrecognisable from a single-line error.
struct ValidationReport {
  /// Failure cap; past it failures are counted but not retained.
  static constexpr std::size_t kMaxFailures = 16;

  bool ok = true;
  std::string error;                  // first failure, empty when ok
  std::vector<std::string> failures;  // numbered via format()
  std::size_t total_failures = 0;     // including any past the cap

  explicit operator bool() const noexcept { return ok; }

  /// All retained failures as one numbered, line-per-failure string.
  [[nodiscard]] std::string format() const;
};

namespace detail {

/// Collects numbered failures into a ValidationReport, mirroring
/// check::CheckReport but keeping this module's public struct stable.
class Collector {
 public:
  explicit Collector(ValidationReport& report) : report_(report) {}

  [[nodiscard]] bool wants_more() const noexcept {
    return report_.failures.size() < ValidationReport::kMaxFailures;
  }

  void fail(const std::string& msg) {
    report_.ok = false;
    ++report_.total_failures;
    if (report_.error.empty()) report_.error = msg;
    if (wants_more()) report_.failures.push_back(msg);
  }

 private:
  ValidationReport& report_;
};

[[nodiscard]] std::string vtx(vid_t v);
[[nodiscard]] std::string edge(vid_t u, vid_t v);

/// Check-3 membership test: binary search where the view offers it,
/// linear neighbour scan otherwise.
template <graph::GraphView V>
[[nodiscard]] bool view_has_edge(const V& g, vid_t u, vid_t v) {
  if constexpr (graph::EdgeQueryView<V>) {
    return g.has_edge(u, v);
  } else {
    bool found = false;
    g.for_each_out_neighbor(u, [&found, v](vid_t w) {
      if (w == v) found = true;
    });
    return found;
  }
}

}  // namespace detail

/// Validates `result` as a BFS tree of `g` rooted at `root`.
/// Runs in O(V + E); safe to call on every test traversal. Structural
/// preconditions (root range, map sizes) abort immediately; per-vertex
/// and per-edge checks continue to the failure cap.
template <graph::GraphView V>
[[nodiscard]] ValidationReport validate_bfs(const V& g, vid_t root,
                                            const BfsResult& result) {
  ValidationReport report;
  detail::Collector collect(report);

  // Fatal preconditions: nothing below can index safely without them.
  const vid_t n = g.num_vertices();
  if (root < 0 || root >= n) {
    collect.fail("root out of range");
    return report;
  }
  if (result.parent.size() != static_cast<std::size_t>(n) ||
      result.level.size() != static_cast<std::size_t>(n)) {
    collect.fail("parent/level map size mismatch");
    return report;
  }

  // Check 1: root self-parented at level 0.
  if (result.parent[static_cast<std::size_t>(root)] != root) {
    collect.fail("root is not its own parent");
  }
  if (result.level[static_cast<std::size_t>(root)] != 0) {
    collect.fail("root level is not 0");
  }

  vid_t reached = 0;
  for (vid_t v = 0; v < n && collect.wants_more(); ++v) {
    const vid_t p = result.parent[static_cast<std::size_t>(v)];
    const std::int32_t lv = result.level[static_cast<std::size_t>(v)];
    if ((p == kNoVertex) != (lv < 0)) {
      collect.fail(detail::vtx(v) +
                   ": parent and level disagree about reachability" +
                   " (parent " + std::to_string(p) + ", level " +
                   std::to_string(lv) + ")");
      continue;
    }
    if (p == kNoVertex) continue;
    ++reached;
    if (v == root) continue;
    if (p < 0 || p >= n) {
      collect.fail(detail::vtx(v) + ": parent " + std::to_string(p) +
                   " out of range");
      continue;
    }
    const std::int32_t lp = result.level[static_cast<std::size_t>(p)];
    // Check 2: tree edges span exactly one level.
    if (lp < 0 || lv != lp + 1) {
      collect.fail(detail::vtx(v) + ": level " + std::to_string(lv) +
                   " is not parent " + std::to_string(p) + "'s level " +
                   std::to_string(lp) + " + 1");
    }
    // Check 3: the tree edge must exist (parent -> child in the graph).
    if (!detail::view_has_edge(g, p, v)) {
      collect.fail(detail::vtx(v) + ": tree " + detail::edge(p, v) +
                   " missing from graph");
    }
  }
  // The reached tally is only meaningful if the scan above ran to
  // completion; with the cap hit it would undercount and mislead.
  if (collect.wants_more() && reached != result.reached) {
    collect.fail("reached count " + std::to_string(result.reached) +
                 " does not match parent map (" + std::to_string(reached) +
                 ")");
  }

  // Checks 4 and 5 over every edge.
  const bool symmetric = g.is_symmetric();
  for (vid_t u = 0; u < n && collect.wants_more(); ++u) {
    const std::int32_t lu = result.level[static_cast<std::size_t>(u)];
    bool more = true;
    g.for_each_out_neighbor(
        u, [&collect, &result, &more, lu, symmetric, u](vid_t v) {
          if (!more || !collect.wants_more()) {
            more = false;
            return;
          }
          const std::int32_t lv = result.level[static_cast<std::size_t>(v)];
          if (lu >= 0 && lv >= 0) {
            // An out-edge (u, v) relaxes v, so lv <= lu + 1 always. The
            // reverse bound lu <= lv + 1 needs the mirror edge (v, u) and
            // therefore only holds on symmetric graphs — a directed back
            // edge may legally jump many levels up the tree.
            if (lv - lu > 1 || (symmetric && lu - lv > 1)) {
              collect.fail(detail::edge(u, v) +
                           " spans more than one level (" +
                           std::to_string(lu) + " vs " + std::to_string(lv) +
                           ")");
            }
          } else if (lu >= 0 && lv < 0) {
            // A reached vertex with an unreached out-neighbour means the
            // BFS stopped early (for directed graphs only the out
            // direction is conclusive).
            collect.fail(detail::edge(u, v) +
                         " leaves the traversed region (level " +
                         std::to_string(lu) + " -> unreached)");
          }
        });
  }
  return report;
}

/// CSR entry point: forwards through the zero-overhead adapter (which
/// restores the binary-search tree-edge check).
[[nodiscard]] ValidationReport validate_bfs(const CsrGraph& g, vid_t root,
                                            const BfsResult& result);

/// Convenience equality check used in tests: two BFS runs on the same
/// graph/root must produce identical level maps even when parents
/// differ (parents are tie-broken nondeterministically in parallel
/// runs; levels are unique).
[[nodiscard]] bool same_levels(const BfsResult& a, const BfsResult& b);

}  // namespace bfsx::bfs
