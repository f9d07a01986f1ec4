// Shared BFS traversal state threaded through the level-step kernels.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "bfs/frontier.h"
#include "check/contract.h"
#include "check/report.h"
#include "graph/bitmap.h"
#include "graph/csr.h"
#include "graph/types.h"
#include "graph/uninit_vector.h"
#include "graph/view.h"

namespace bfsx::bfs {

using graph::Bitmap;
using graph::CsrGraph;
using graph::eid_t;
using graph::kNoVertex;
using graph::vid_t;

/// The traversal direction pair lives in graph/types.h (shared
/// vocabulary — the trace schema and simulators name it without
/// depending on the kernel layer); re-exported here so kernel code
/// keeps writing bfs::Direction.
using graph::Direction;
using graph::to_string;

/// Final output of a BFS: the paper's predecessor map and level map
/// ("The general output of BFS is a predecessor map and a level map",
/// Section II-A).
struct BfsResult {
  std::vector<vid_t> parent;        // kNoVertex if unreached
  std::vector<std::int32_t> level;  // -1 if unreached
  vid_t reached = 0;                // vertices reached, incl. the root
  /// Undirected edges inside the reached component; the Graph 500 TEPS
  /// numerator.
  eid_t edges_in_component = 0;
};

/// Mutable traversal state. Kernels advance it one level at a time,
/// which is exactly the granularity at which the paper's combination
/// techniques switch direction (and switch devices).
///
/// The state is sized purely by |V|, so the same object serves every
/// GraphView (graph/view.h); the CsrGraph overloads below are
/// conveniences that extract `num_vertices()`.
struct BfsState {
  /// Sizes the maps for `num_vertices` vertices and arms a traversal
  /// from `root` — the representation-independent core.
  BfsState(vid_t num_vertices, vid_t root) { reset(num_vertices, root); }

  explicit BfsState(const CsrGraph& g, vid_t root) {
    reset(g.num_vertices(), root);
  }

  /// Re-arms the state for a fresh traversal of an `num_vertices`-vertex
  /// graph from `root`, reusing every allocation the previous run left
  /// behind (vector and bitmap capacities, the compacted `unvisited`
  /// list's storage). A reset state is indistinguishable from a freshly
  /// constructed one — this is what lets `StatePool` hand the same
  /// object to run after run. Also valid on a moved-from state:
  /// take_result empties parent/level, and assign allocates them again.
  void reset(vid_t num_vertices, vid_t root);

  void reset(const CsrGraph& g, vid_t root) { reset(g.num_vertices(), root); }

  std::vector<vid_t> parent;
  std::vector<std::int32_t> level;
  Bitmap visited;

  /// Current frontier, kept in *both* representations. Top-down reads
  /// the queue; bottom-up reads the bitmap. Keeping them in sync costs
  /// O(|frontier|) per level and models the queue<->bitmap conversion
  /// the real heterogeneous system performs at each handoff.
  std::vector<vid_t> frontier_queue;
  Bitmap frontier_bitmap;

  /// |E|cq of the current frontier, carried by the level step that
  /// produced it (each step sums the out-degrees of the vertices it
  /// discovers), so the direction rule and traces never re-walk the
  /// queue; -1 until a step has run. Read it through
  /// frontier_out_edges(g).
  eid_t frontier_edges = -1;

  /// Bottom-up candidate list: once primed (first bottom-up level) it
  /// holds, in ascending order, every unvisited vertex whose in-row is
  /// non-empty — exactly those right after a bottom-up step, possibly
  /// with stragglers that interleaved top-down steps visited since. A
  /// vertex with an empty in-row can never be discovered, so the first
  /// step that scans it drops it. bottom_up_step iterates the list
  /// instead of rescanning 0..n and compacts it each level into
  /// `unvisited_spare`, then swaps the two; stale entries are skipped
  /// via the visited test, so the kernel counters are identical to a
  /// full scan's. Default-initialising storage: every slot is written
  /// by the decode or the compaction before it is read.
  graph::UninitVector<vid_t> unvisited;
  graph::UninitVector<vid_t> unvisited_spare;
  bool unvisited_primed = false;
  /// Per-block tallies of the blocked passes (bfs/frontier.h): the
  /// bottom-up prime decode and compaction, and the top-down prefix.
  /// Kept so no level allocates.
  std::vector<BlockSpan> spans;

  /// Scratch next-frontier bitmap reused by bottom_up_step so no level
  /// allocates. Invariant: all-zero between steps (after the swap the
  /// kernel hands the outgoing frontier's bitmap back cleared).
  Bitmap bu_scratch;

  /// One thread's top-down discoveries, alone on its cache line: the
  /// threads append concurrently, and vector headers sharing a line
  /// would make every append a coherence miss.
  struct alignas(64) Discoveries {
    std::vector<vid_t> items;
  };

  /// Top-down scratch, owned by the state so steady-state levels
  /// allocate nothing (mirror of bu_scratch for the other direction):
  /// the exclusive out-degree prefix of the frontier queue, which cuts
  /// the level into edge-balanced pieces (bfs/frontier.h), per-thread
  /// discovery buffers, and the merged next queue. The kernel sizes
  /// td_local_next to the team width on first use, clears the parts
  /// (capacity retained) each level, and swaps td_next with the
  /// frontier queue — after the first few levels every buffer has
  /// reached its high-water capacity and stays there.
  std::vector<eid_t> td_offsets;
  std::vector<Discoveries> td_local_next;
  std::vector<vid_t> td_next;

  std::int32_t current_level = 0;
  vid_t reached = 1;

  [[nodiscard]] bool frontier_empty() const noexcept {
    return frontier_queue.empty();
  }

  /// |V|cq of the current frontier.
  [[nodiscard]] vid_t frontier_vertices() const noexcept {
    return static_cast<vid_t>(frontier_queue.size());
  }

  /// |E|cq of the current frontier: the value the last level step
  /// carried, or — before any step — the degree sum of the queue.
  template <typename G>
  [[nodiscard]] eid_t frontier_out_edges(const G& g) const {
    return frontier_edges >= 0 ? frontier_edges
                               : bfs::frontier_out_edges(g, frontier_queue);
  }

  /// Paranoid structural validator (BFSX_PARANOID tier; O(V)). Valid
  /// *between* level steps — kernels may transiently break these mid
  /// step. Appends numbered failures to `report`:
  ///   * parent/level/visited agree per vertex (set together, parent in
  ///     range, level <= current_level, tree edges span one level);
  ///   * `reached` equals the visited population count;
  ///   * frontier queue and bitmap hold the same vertex set, all at
  ///     current_level;
  ///   * `bu_scratch` is all-clear (the zero-rescan invariant);
  ///   * once primed, `unvisited` is strictly ascending and holds every
  ///     not-yet-visited vertex for which `has_in_edge` is true
  ///     (stragglers visited by interleaved top-down steps are legal
  ///     leftovers, and so are vertices with empty in-rows).
  void check_invariants(vid_t num_vertices,
                        const std::function<bool(vid_t)>& has_in_edge,
                        check::CheckReport& report) const;

  /// The same checks on the graph `g` the state traverses. A view
  /// without in-neighbour access cannot have run a bottom-up step, so
  /// there every unvisited vertex counts as having an in-edge.
  template <graph::GraphView V>
  void check_invariants(const V& g, check::CheckReport& report) const {
    check_invariants(
        g.num_vertices(),
        [&g](vid_t v) {
          if constexpr (graph::TransposeView<V>) {
            return graph::has_in_edge(g, v);
          } else {
            return true;
          }
        },
        report);
  }

  void check_invariants(const CsrGraph& g, check::CheckReport& report) const {
    check_invariants(graph::CsrGraphView(g), report);
  }

  /// Convenience wrappers: throw check::ContractViolation listing every
  /// retained failure.
  template <graph::GraphView V>
  void assert_invariants(const V& g) const {
    check::CheckReport report;
    check_invariants(g, report);
    report.throw_if_failed("BfsState::check_invariants");
  }

  void assert_invariants(const CsrGraph& g) const {
    assert_invariants(graph::CsrGraphView(g));
  }

  /// Extracts the final result (parent/level maps are moved out).
  /// Works for any graph representation that reports vertex count,
  /// out-degrees, and symmetry — CsrGraph or any GraphView.
  template <typename G>
  [[nodiscard]] BfsResult take_result(const G& g) && {
    BfsResult r;
    r.reached = reached;
    // Count directed edges whose tail is reached; for a symmetric graph
    // halving gives the undirected count Graph 500 uses for TEPS. The
    // reached flag multiplies rather than guards the degree, so the
    // parallel sum streams both arrays without a data-dependent branch.
    eid_t directed = 0;
    const vid_t n = g.num_vertices();
    const vid_t* reached_by = parent.data();
#ifdef _OPENMP
#pragma omp parallel for schedule(static) reduction(+ : directed)
#endif
    for (vid_t v = 0; v < n; ++v) {
      directed += static_cast<eid_t>(reached_by[v] != kNoVertex) *
                  g.out_degree(v);
    }
    r.edges_in_component = g.is_symmetric() ? directed / 2 : directed;
    r.parent = std::move(parent);
    r.level = std::move(level);
    return r;
  }
};

}  // namespace bfsx::bfs
