// Whole-graph statistics: degree distribution, connectivity, and the
// summary numbers that feed regression features and experiment logs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "graph/csr.h"
#include "graph/view.h"

namespace bfsx::graph {

struct DegreeStats {
  eid_t min = 0;
  eid_t max = 0;
  double mean = 0.0;
  double stddev = 0.0;
  /// Vertices with out-degree zero. R-MAT graphs have many; Graph 500
  /// requires BFS roots to have at least one edge.
  vid_t isolated = 0;
};

/// Out-degree statistics over all vertices.
[[nodiscard]] DegreeStats compute_degree_stats(const CsrGraph& g);

/// Out-degree histogram in log2 buckets: bucket[i] counts vertices with
/// degree in [2^i, 2^(i+1)); bucket 0 also counts degree-1; a leading
/// entry counts degree-0 vertices. Handy for eyeballing the R-MAT
/// power-law tail.
[[nodiscard]] std::vector<vid_t> degree_histogram_log2(const CsrGraph& g);

struct ComponentStats {
  vid_t num_components = 0;
  vid_t largest_size = 0;
  /// Representative (smallest vertex id) of the largest component —
  /// a safe BFS root that reaches the most vertices.
  vid_t largest_representative = kNoVertex;
};

/// Connected components of the *undirected* view of the graph, found by
/// repeated BFS sweeps. Linear in V + E.
[[nodiscard]] ComponentStats compute_components(const CsrGraph& g);

/// Picks `count` BFS roots with non-zero degree, deterministically under
/// `seed`, emulating the Graph 500 kernel-2 root-sampling rule.
[[nodiscard]] std::vector<vid_t> sample_roots(const CsrGraph& g, int count,
                                              std::uint64_t seed);

/// The (at most) `k` vertices of highest out-degree, ties broken toward
/// the smaller id, zero-degree vertices excluded. Deterministic, so the
/// serve-layer landmark set and the bottom-up hub cache pick identical
/// hubs for the same graph. O(V log k) via partial sort.
[[nodiscard]] std::vector<vid_t> top_out_degree_vertices(const CsrGraph& g,
                                                         std::size_t k);

/// The same hub selection over any GraphView (delta-CSR epochs, grid
/// worlds) — identical degree/tie semantics, so a landmark set chosen
/// on a delta epoch matches one chosen on its flat rebuild. Ties go to
/// the smaller `tie_key(v)`: the id itself by default, or, on a
/// relabelled graph, the id the caller knows the vertex by.
template <GraphView V, typename TieKey = std::identity>
[[nodiscard]] std::vector<vid_t> top_out_degree_vertices(const V& g,
                                                         std::size_t k,
                                                         TieKey tie_key = {}) {
  const vid_t n = g.num_vertices();
  std::vector<vid_t> order(static_cast<std::size_t>(n));
  for (vid_t v = 0; v < n; ++v) order[static_cast<std::size_t>(v)] = v;
  const auto hubbier = [&g, &tie_key](vid_t a, vid_t b) {
    const eid_t da = g.out_degree(a);
    const eid_t db = g.out_degree(b);
    return da != db ? da > db : tie_key(a) < tie_key(b);
  };
  const std::size_t want = std::min(k, static_cast<std::size_t>(n));
  std::partial_sort(order.begin(),
                    order.begin() + static_cast<std::ptrdiff_t>(want),
                    order.end(), hubbier);
  std::vector<vid_t> hubs;
  hubs.reserve(want);
  for (std::size_t i = 0; i < want; ++i) {
    if (g.out_degree(order[i]) == 0) break;  // only isolated ones left
    hubs.push_back(order[i]);
  }
  return hubs;
}

/// One-line human-readable summary ("|V|=65536 |E|=2097152 deg:…").
[[nodiscard]] std::string summarize(const CsrGraph& g);

}  // namespace bfsx::graph
