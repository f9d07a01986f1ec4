// Memory-subsystem tuning knobs threaded through the level-step
// kernels. Everything here is off by default, and the defaulted
// MemTuning{} compiles the kernels down to the exact pre-tuning loops —
// the golden-trace test pins that bit-identity.
//
// DESIGN.md §12 documents the choices (prefetch distance, hub-bitmap
// sizing, why the knobs are runtime flags rather than template
// parameters).
#pragma once

namespace bfsx::bfs {

class HubCache;

/// Software-prefetch lookahead for the traversal loops. `distance` is
/// how many iterations ahead the kernels issue `__builtin_prefetch`
/// hints: top-down prefetches the adjacency row of the frontier vertex
/// `d` places ahead of the row it walks; bottom-up prefetches the
/// in-row of `unvisited[i + d]` when it lies in the same block of
/// candidates.
/// 0 disables prefetching entirely — the kernels take the plain loop,
/// not a d=0 degenerate of the prefetching one.
struct PrefetchConfig {
  int distance = 0;

  [[nodiscard]] bool enabled() const noexcept { return distance > 0; }
};

/// Aggregate of the runtime memory-subsystem knobs. Passed by value to
/// the kernels (two pointers wide); the 2-argument kernel overloads
/// forward a default-constructed MemTuning, so untouched call sites are
/// bit-identical to the pre-tuning code path.
struct MemTuning {
  PrefetchConfig prefetch{};
  /// Non-null enables the hub-cached bottom-up probe (bfs/hub_cache.h).
  /// The cache must outlive every traversal using this tuning; it is
  /// immutable and safely shared across concurrent traversals.
  const HubCache* hub_cache = nullptr;
};

}  // namespace bfsx::bfs
