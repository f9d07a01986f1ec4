// Edge-list → CSR construction (Graph 500 "kernel 1").
#pragma once

#include "graph/csr.h"
#include "graph/edge_list.h"

namespace bfsx::graph {

struct BuildOptions {
  /// Insert the reverse of every edge so the graph is undirected.
  /// Graph 500 treats the generated edge list as undirected; both the
  /// paper's top-down and bottom-up kernels rely on this.
  bool symmetrize = true;

  /// Drop (v, v) edges. Self loops add no BFS work but skew degree
  /// statistics; Graph 500 permits removing them.
  bool remove_self_loops = true;
};

/// Checks every endpoint lies in [0, num_vertices). Parallelised over
/// the edge list; throws std::invalid_argument on a negative vertex
/// count and std::out_of_range naming up to
/// check::CheckReport::kDefaultMaxFailures offending edges (index and
/// endpoints) so diagnostics show the corruption pattern, not just its
/// first symptom. build_csr and build_directed_csr call this
/// themselves — it is exposed so the ingestion bench can time
/// validation apart from construction.
void validate_edge_list(const EdgeList& el);

/// Builds a CSR graph from an edge list. Every row is sorted ascending
/// and holds each neighbour once (CsrGraph::has_edge, DeltaCsr and
/// CompressedCsrView rely on this). The list is taken by value and
/// released once its edges are scattered; pass std::move when the
/// caller no longer needs it. Construction is parallel (a counting-sort
/// scatter of the edges, a transpose that leaves every row sorted, a
/// per-row dedup) and deterministic: offsets and targets are
/// bit-identical for every OMP_NUM_THREADS, including serial builds.
/// With `symmetrize` off it builds what build_directed_csr builds.
[[nodiscard]] CsrGraph build_csr(EdgeList edges, const BuildOptions& opts = {});

/// Builds a *directed* CSR (no symmetrisation) with separate in/out
/// adjacency. Used by directed-graph tests and the validator.
[[nodiscard]] CsrGraph build_directed_csr(EdgeList edges,
                                          const BuildOptions& opts = {});

}  // namespace bfsx::graph
