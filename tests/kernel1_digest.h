// FNV-1a digests of R-MAT edge lists and CSR arrays, for the tests that
// pin kernel 1's bytes. The hash is bench_build_pipeline's: FNV-1a over
// the raw bytes of each array in turn.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/csr.h"
#include "graph/edge_list.h"
#include "graph/rmat.h"

namespace bfsx::test {

inline std::uint64_t fnv1a(const void* data, std::size_t bytes,
                           std::uint64_t h = 0xcbf29ce484222325ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

inline std::uint64_t digest(const graph::EdgeList& el) {
  return fnv1a(el.edges.data(), el.edges.size() * sizeof(graph::Edge));
}

/// Out-offsets then out-targets (bench_build_pipeline's CSR hash), then
/// the in-arrays of a directed graph.
inline std::uint64_t digest(const graph::CsrGraph& g) {
  std::uint64_t h = fnv1a(g.out_offsets().data(),
                          g.out_offsets().size() * sizeof(graph::eid_t));
  h = fnv1a(g.out_targets().data(),
            g.out_targets().size() * sizeof(graph::vid_t), h);
  if (!g.is_symmetric()) {
    h = fnv1a(g.in_offsets().data(),
              g.in_offsets().size() * sizeof(graph::eid_t), h);
    h = fnv1a(g.in_targets().data(),
              g.in_targets().size() * sizeof(graph::vid_t), h);
  }
  return h;
}

/// The lists whose bytes are pinned: scales 9 (one generation block), 13
/// (eight blocks) and 16, each with the default noise and permutation,
/// then again with noise 0 and no permutation.
inline std::vector<graph::RmatParams> pinned_rmat_params() {
  std::vector<graph::RmatParams> params;
  for (const int scale : {9, 13, 16}) {
    for (const bool plain : {false, true}) {
      graph::RmatParams p;
      p.scale = scale;
      if (plain) {
        p.noise = 0.0;
        p.permute_vertices = false;
      }
      params.push_back(p);
    }
  }
  return params;
}

}  // namespace bfsx::test
