#include "sim/device.h"


namespace bfsx::sim {

LevelOutcome Device::run_top_down_level(const graph::CsrGraph& g,
                                        bfs::BfsState& state) const {
  LevelOutcome out;
  out.direction = bfs::Direction::kTopDown;
  out.level = state.current_level;
  const bfs::TopDownStats s = bfs::top_down_step(g, state);
  out.frontier_vertices = s.frontier_vertices;
  out.frontier_edges = s.frontier_edges;
  out.next_vertices = s.next_vertices;
  out.seconds = top_down_level_seconds(spec_, s.frontier_edges);
  return out;
}

LevelOutcome Device::run_bottom_up_level(const graph::CsrGraph& g,
                                         bfs::BfsState& state) const {
  LevelOutcome out;
  out.direction = bfs::Direction::kBottomUp;
  out.level = state.current_level;
  out.frontier_vertices = static_cast<graph::vid_t>(state.frontier_queue.size());
  out.frontier_edges = state.frontier_out_edges(g);
  const bfs::BottomUpStats s = bfs::bottom_up_step(g, state);
  out.bu_edges_hit = s.edges_scanned_hit;
  out.bu_edges_miss = s.edges_scanned_miss;
  out.next_vertices = s.next_vertices;
  out.seconds = bottom_up_level_seconds(spec_, g.num_vertices(),
                                        s.edges_scanned_hit,
                                        s.edges_scanned_miss);
  return out;
}

}  // namespace bfsx::sim
