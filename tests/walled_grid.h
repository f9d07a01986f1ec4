// A walled 4-neighbour grid as a CSR graph, for tests that want a long
// diameter and isolated vertices on the stored-graph views.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/prng.h"

namespace bfsx::test {

/// A width × height 4-neighbour grid with walls: make_grid's edges
/// minus every edge that touches a wall, each cell a wall with
/// probability `wall_density` (one draw per cell, in id order). All
/// width × height ids stay, so walls are isolated vertices with empty
/// in-rows, and the long diameter gives many levels.
inline graph::CsrGraph walled_grid(graph::vid_t width, graph::vid_t height,
                                   double wall_density,
                                   std::uint64_t wall_seed) {
  const graph::EdgeList open = graph::make_grid(height, width);
  std::vector<bool> wall(static_cast<std::size_t>(open.num_vertices));
  graph::Xoshiro256ss rng(wall_seed);
  for (std::size_t v = 0; v < wall.size(); ++v) {
    wall[v] = rng.next_double() < wall_density;
  }
  graph::EdgeList walled;
  walled.num_vertices = open.num_vertices;
  for (const graph::Edge& e : open.edges) {
    if (!wall[static_cast<std::size_t>(e.src)] &&
        !wall[static_cast<std::size_t>(e.dst)]) {
      walled.edges.push_back(e);
    }
  }
  return graph::build_csr(std::move(walled));
}

inline graph::vid_t count_isolated(const graph::CsrGraph& g) {
  graph::vid_t isolated = 0;
  for (graph::vid_t v = 0; v < g.num_vertices(); ++v) {
    isolated += g.out_degree(v) == 0;
  }
  return isolated;
}

}  // namespace bfsx::test
