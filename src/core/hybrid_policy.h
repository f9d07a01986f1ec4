// The M/N switching rule (paper Fig. 4).
//
// "When the number of edges in CQ (|E|cq) is less than |E|/M and the
// number of vertices in CQ (|V|cq) is less than |V|/N, BFS switches to
// top-down. Otherwise, it switches to bottom-up."
#pragma once

#include <stdexcept>

#include "bfs/traverse.h"
#include "graph/types.h"

namespace bfsx::core {

struct HybridPolicy {
  /// Edge-ratio knob: top-down requires |E|cq < |E|/M. Larger M makes
  /// the policy flee to bottom-up earlier.
  double m = 14.0;
  /// Vertex-ratio knob: top-down also requires |V|cq < |V|/N.
  double n = 24.0;

  /// The switch test, evaluated once per level.
  [[nodiscard]] bfs::Direction decide(graph::eid_t frontier_edges,
                                      graph::vid_t frontier_vertices,
                                      graph::eid_t total_edges,
                                      graph::vid_t total_vertices) const {
    const bool td =
        static_cast<double>(frontier_edges) <
            static_cast<double>(total_edges) / m &&
        static_cast<double>(frontier_vertices) <
            static_cast<double>(total_vertices) / n;
    return td ? bfs::Direction::kTopDown : bfs::Direction::kBottomUp;
  }

  /// The same test on the level loop's frontier (bfs/traverse.h).
  [[nodiscard]] bfs::Direction decide(const bfs::Frontier& f) const {
    return decide(f.edges, f.vertices, f.total_edges, f.total_vertices);
  }

  /// Throws std::invalid_argument unless both knobs are >= 1 (M, N < 1
  /// would demand a frontier larger than the whole graph).
  void validate() const {
    if (m < 1.0 || n < 1.0) {
      throw std::invalid_argument("HybridPolicy: M and N must be >= 1");
    }
  }

  friend bool operator==(const HybridPolicy&, const HybridPolicy&) = default;
};

/// Policies that degenerate to a single direction, used to express the
/// paper's pure-TD / pure-BU rows through the same machinery.
[[nodiscard]] constexpr HybridPolicy always_top_down() noexcept {
  // |E|cq < |E| and |V|cq < |V| always hold mid-traversal with M=N=1.
  return {1.0, 1.0};
}
[[nodiscard]] constexpr HybridPolicy always_bottom_up() noexcept {
  // Thresholds below one edge/vertex can never be met.
  return {1e18, 1e18};
}

}  // namespace bfsx::core
