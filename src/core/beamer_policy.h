// Beamer's original alpha/beta switching heuristic (Beamer, Asanović,
// Patterson, "Direction-Optimizing Breadth-First Search", SC'12 —
// the paper's reference [4] and the rule its M/N variant descends
// from).
//
// Unlike the M/N rule — stateless thresholds on |E|cq and |V|cq against
// graph totals — Beamer's heuristic is *stateful*:
//   while top-down:   switch to bottom-up when m_f > m_u / alpha
//   while bottom-up:  switch to top-down when n_f < n / beta
// where m_f = edges out of the frontier (|E|cq), m_u = edges incident
// to still-unvisited vertices, n_f = frontier vertex count, n = |V|.
// m_u shrinks as the traversal proceeds, so the same m_f can trigger
// the switch late in one traversal and not at all in another.
//
// Implemented here as a comparator: the tuners can price alpha/beta
// against M/N on identical traces (bench_ablation_policy_rule), which
// quantifies what the paper's reformulation gains or loses.
#pragma once

#include "bfs/traverse.h"
#include "graph/types.h"

namespace bfsx::core {

struct BeamerPolicy {
  /// Top-down -> bottom-up trigger (Beamer's tuned default is 14).
  double alpha = 14.0;
  /// Bottom-up -> top-down trigger (Beamer's tuned default is 24).
  double beta = 24.0;

  /// One stateful decision. `previous` is the direction the traversal
  /// used for the last level (top-down for the first level, matching
  /// Beamer's implementation).
  [[nodiscard]] bfs::Direction decide(graph::eid_t frontier_edges,
                                      graph::eid_t unexplored_edges,
                                      graph::vid_t frontier_vertices,
                                      graph::vid_t total_vertices,
                                      bfs::Direction previous) const {
    if (previous == bfs::Direction::kTopDown) {
      const bool go_bottom_up =
          static_cast<double>(frontier_edges) >
          static_cast<double>(unexplored_edges) / alpha;
      return go_bottom_up ? bfs::Direction::kBottomUp
                          : bfs::Direction::kTopDown;
    }
    const bool back_to_top_down =
        static_cast<double>(frontier_vertices) <
        static_cast<double>(total_vertices) / beta;
    return back_to_top_down ? bfs::Direction::kTopDown
                            : bfs::Direction::kBottomUp;
  }

  void validate() const;

  friend bool operator==(const BeamerPolicy&, const BeamerPolicy&) = default;
};

/// The rule with the state one traversal carries: the out-edges of
/// every frontier so far (m_u is |E| minus them) and the last
/// direction. Make one per traversal.
class BeamerRule {
 public:
  explicit BeamerRule(const BeamerPolicy& policy) : policy_(policy) {}

  [[nodiscard]] bfs::Direction decide(const bfs::Frontier& f) {
    explored_ += f.edges;
    previous_ = policy_.decide(f.edges, f.total_edges - explored_,
                               f.vertices, f.total_vertices, previous_);
    return previous_;
  }

 private:
  BeamerPolicy policy_;
  graph::eid_t explored_ = 0;
  bfs::Direction previous_ = bfs::Direction::kTopDown;
};

}  // namespace bfsx::core
