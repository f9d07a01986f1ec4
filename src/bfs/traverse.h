// The one BFS level loop. Every single-source traversal in the library
// — wall-clock or modelled, one device or Algorithm 3's two, pure,
// M/N, Beamer or distributed — is this loop with a different policy
// and clock:
//
//   while the frontier is not empty:
//     read |V|cq and the |E|cq the previous step carried;
//     ask the policy for a direction (and, for Algorithm 3, a device);
//     hand the level to the clock, which runs the step and prices it.
//
// A policy is any type with `decide(const Frontier&)` returning a
// Direction or a Decision. It is taken by reference, so a stateful rule
// (Beamer's explored-edge sum, Algorithm 3's on-accelerator flag) keeps
// its state in the object the caller made for this traversal. A clock
// is any callable `clock(g, state, frontier, decision)`; it runs the
// level — usually through step_level — and does whatever accounting it
// stands for: wall time, a device model, a cluster's supersteps, a log.
// Both are template parameters, so the loop makes no type-erased call
// and allocates nothing itself.
#pragma once

#include <cstdint>
#include <stdexcept>

#include "bfs/bottomup.h"
#include "bfs/state.h"
#include "bfs/topdown.h"
#include "graph/view.h"

namespace bfsx::bfs {

/// What a direction rule reads at the start of a level: the current
/// frontier's size against the graph's totals.
struct Frontier {
  std::int32_t level = 0;    // the level about to be expanded
  vid_t vertices = 0;        // |V|cq
  eid_t edges = 0;           // |E|cq
  vid_t total_vertices = 0;  // |V|
  eid_t total_edges = 0;     // |E|, directed
};

/// A policy's choice for one level: the direction and the device that
/// runs it (0 = the host or only device; 1 = Algorithm 3's
/// accelerator).
struct Decision {
  /// Implicit, so a rule that only picks a direction returns one.
  constexpr Decision(Direction d, int dev = 0) noexcept
      : direction(d), device(dev) {}

  Direction direction;
  int device;
};

/// The pure runs: one direction for every level.
struct ForcedPolicy {
  Direction direction = Direction::kTopDown;

  [[nodiscard]] Direction decide(const Frontier& /*f*/) const noexcept {
    return direction;
  }
};

/// Work counters of one executed level, in either direction.
struct LevelStats {
  std::int32_t level = 0;
  Direction direction = Direction::kTopDown;
  vid_t frontier_vertices = 0;  // |V|cq
  eid_t frontier_edges = 0;     // |E|cq
  eid_t bu_edges_hit = 0;       // bottom-up only
  eid_t bu_edges_miss = 0;      // bottom-up only
  vid_t next_vertices = 0;
};

/// Expands one level of `f` in direction `d` and returns its counters.
/// `G` is a CsrGraph or a GraphView. Bottom-up needs in-neighbour
/// access; views without it can only be driven top-down.
template <typename G>
LevelStats step_level(const G& g, BfsState& state, const Frontier& f,
                      Direction d) {
  LevelStats out;
  out.level = f.level;
  out.direction = d;
  out.frontier_vertices = f.vertices;
  out.frontier_edges = f.edges;
  if (d == Direction::kTopDown) {
    out.next_vertices = top_down_step(g, state).next_vertices;
    return out;
  }
  if constexpr (requires(const G& view, BfsState& s) {
                  bottom_up_step(view, s);
                }) {
    const BottomUpStats s = bottom_up_step(g, state);
    out.bu_edges_hit = s.edges_scanned_hit;
    out.bu_edges_miss = s.edges_scanned_miss;
    out.next_vertices = s.next_vertices;
  } else {
    throw std::invalid_argument(
        "step_level: bottom-up needs a view with in-neighbour access");
  }
  return out;
}

/// Runs `state` to completion: one policy decision and one clock call
/// per level.
template <typename G, typename Policy, typename Clock>
void traverse(const G& g, BfsState& state, Policy&& policy,
              Clock&& level_clock) {
  const vid_t total_vertices = g.num_vertices();
  const eid_t total_edges = g.num_edges();
  while (!state.frontier_empty()) {
    const Frontier f{state.current_level,
                     static_cast<vid_t>(state.frontier_queue.size()),
                     state.frontier_out_edges(g), total_vertices,
                     total_edges};
    const Decision d = policy.decide(f);
    level_clock(g, state, f, d);
  }
}

}  // namespace bfsx::bfs
