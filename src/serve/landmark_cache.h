// Landmark (hub) distance cache: distance queries answered without
// touching the graph.
//
// Scale-free graphs concentrate traffic on hubs — the same few
// high-degree vertices keep appearing as query sources. One MS-BFS
// pass over the top-k out-degree vertices (k <= 64, one lane each)
// precomputes the full distance row of every hub; a distance query
// whose source is a landmark — or whose target is one, on a symmetric
// graph — is then answered exactly from the table, O(1), no traversal.
// This is deliberately *not* an approximate landmark scheme: outside
// the covered pairs the cache reports a miss and the query proceeds to
// the batch scheduler, so every served answer stays bit-equal to
// reference_bfs.
//
// The cache is immutable after construction (thread-safe reads) and is
// stamped with the graph epoch it was built from; the engine re-arms
// it after each publish and treats an epoch mismatch as a miss.
//
// Re-arming is incremental on insert-only publishes: in an unweighted
// graph an edge insertion can only *decrease* distances, so the old
// rows are valid upper bounds and repaired() relaxes them down with a
// label-correcting BFS seeded from the inserted edges' endpoints —
// cost proportional to the vertices whose distance actually changed,
// not k full traversals over |V|. The landmark *set* is kept as-is
// (hub-selection drift is corrected at the next full rebuild, and a
// stale hub choice only costs coverage, never correctness). Removals
// can increase distances, which repair cannot express — the engine
// conservatively rebuilds from scratch on any publish with removes.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bfs/msbfs.h"
#include "core/hybrid_policy.h"
#include "graph/csr.h"
#include "graph/edge_list.h"
#include "graph/graph_stats.h"
#include "graph/types.h"
#include "graph/view.h"

namespace bfsx::serve {

/// What an incremental repair actually did — the proof that its cost
/// scales with affected vertices, not |V|.
struct RepairStats {
  std::size_t lanes = 0;      // landmark rows carried over
  std::size_t seeds = 0;      // endpoints whose distance an insert cut
  std::size_t relaxed = 0;    // queue pops across all lanes
  std::size_t lowered = 0;    // distance cells actually decreased
};

class LandmarkCache {
 public:
  /// Builds the cache over `g` (stamped with `epoch`): selects up to
  /// `num_landmarks` highest-out-degree vertices (ties to the smaller
  /// `tie_key(v)` — the id by default — zero-degree vertices
  /// excluded), then runs one MS-BFS pass with one lane per landmark.
  /// `num_landmarks` is clamped to [0, 64]; an empty graph or k = 0
  /// yields an always-miss cache.
  template <graph::HybridView V, typename TieKey = std::identity>
  [[nodiscard]] static LandmarkCache build(const V& g, std::uint64_t epoch,
                                           int num_landmarks,
                                           TieKey tie_key = {}) {
    const int k = std::clamp(num_landmarks, 0, bfs::kMsBfsMaxLanes);
    std::vector<graph::vid_t> hubs;
    if (k > 0 && g.num_vertices() > 0) {
      hubs = graph::top_out_degree_vertices(g, static_cast<std::size_t>(k),
                                            tie_key);
    }
    return build_with(g, epoch, std::move(hubs));
  }

  /// Builds the cache from an explicit landmark list (callers own the
  /// selection policy — the repair fuzz tests use this to recompute
  /// with the exact landmark set a repaired cache kept). Throws
  /// std::invalid_argument on a duplicate landmark; the MS-BFS root
  /// checks reject out-of-range ones. Each landmark's lane writes its
  /// level row straight into `dist_`.
  template <graph::HybridView V>
  [[nodiscard]] static LandmarkCache build_with(
      const V& g, std::uint64_t epoch, std::vector<graph::vid_t> landmarks) {
    LandmarkCache c;
    c.epoch_ = epoch;
    c.symmetric_ = g.is_symmetric();
    c.num_vertices_ = g.num_vertices();
    c.landmarks_ = std::move(landmarks);
    c.lane_of_.assign(static_cast<std::size_t>(c.num_vertices_), -1);
    if (c.landmarks_.empty()) return c;

    std::vector<graph::vid_t> sorted = c.landmarks_;
    std::sort(sorted.begin(), sorted.end());
    if (const auto dup = std::adjacent_find(sorted.begin(), sorted.end());
        dup != sorted.end()) {
      throw std::invalid_argument("LandmarkCache: landmark " +
                                  std::to_string(*dup) +
                                  " listed more than once");
    }
    const auto n = static_cast<std::size_t>(c.num_vertices_);
    c.dist_.resize(c.landmarks_.size() * n);
    bfs::MsBfsRequest rows;
    for (std::size_t lane = 0; lane < c.landmarks_.size(); ++lane) {
      rows.lanes.push_back({.root = c.landmarks_[lane],
                            .record = bfs::MsLane::Record::kRow,
                            .row = std::span(c.dist_).subspan(lane * n, n)});
    }
    (void)bfs::ms_bfs(g, rows, core::HybridPolicy{});
    for (std::size_t lane = 0; lane < c.landmarks_.size(); ++lane) {
      c.lane_of_[static_cast<std::size_t>(c.landmarks_[lane])] =
          static_cast<std::int32_t>(lane);
    }
    return c;
  }

  /// Compatibility entry point for flat CSR callers.
  LandmarkCache(const graph::CsrGraph& g, std::uint64_t epoch,
                int num_landmarks);

  /// A copy of this cache repaired for `g` — the graph of `new_epoch`,
  /// which must differ from this cache's graph by exactly the
  /// *insertion* of `inserts` (directed ops as buffered; mirrored
  /// internally when `g` is symmetric; the vertex set may have grown).
  /// Keeps the same landmark set and relaxes each row down from the
  /// inserted edges, which yields rows identical to build_with(g, …,
  /// landmarks()) — distances only decrease under insertion, so the
  /// old rows are upper bounds the seeded BFS corrects exactly.
  /// Never call this across a publish that removed edges.
  template <graph::HybridView V>
  [[nodiscard]] LandmarkCache repaired(const V& g,
                                       std::span<const graph::Edge> inserts,
                                       std::uint64_t new_epoch,
                                       RepairStats* stats = nullptr) const {
    LandmarkCache c;
    c.epoch_ = new_epoch;
    c.symmetric_ = g.is_symmetric();
    c.num_vertices_ = g.num_vertices();
    c.landmarks_ = landmarks_;
    c.lane_of_.assign(static_cast<std::size_t>(c.num_vertices_), -1);
    RepairStats rs;
    rs.lanes = landmarks_.size();
    if (!landmarks_.empty()) {
      // Re-layout rows for the (possibly grown) vertex count; vertices
      // the old epoch did not have start unreachable, which is exact —
      // before this batch they had no edges at all.
      const auto old_n = static_cast<std::size_t>(num_vertices_);
      const auto new_n = static_cast<std::size_t>(c.num_vertices_);
      c.dist_.assign(landmarks_.size() * new_n, -1);
      for (std::size_t lane = 0; lane < landmarks_.size(); ++lane) {
        c.lane_of_[static_cast<std::size_t>(landmarks_[lane])] =
            static_cast<std::int32_t>(lane);
        std::copy(dist_.begin() + static_cast<std::ptrdiff_t>(lane * old_n),
                  dist_.begin() +
                      static_cast<std::ptrdiff_t>(lane * old_n + old_n),
                  c.dist_.begin() + static_cast<std::ptrdiff_t>(lane * new_n));
      }
      for (std::size_t lane = 0; lane < landmarks_.size(); ++lane) {
        c.repair_lane(g, lane, inserts, rs);
      }
    }
    if (stats != nullptr) *stats = rs;
    return c;
  }

  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }
  [[nodiscard]] const std::vector<graph::vid_t>& landmarks() const noexcept {
    return landmarks_;
  }

  /// True iff `v` is one of the selected landmarks.
  [[nodiscard]] bool is_landmark(graph::vid_t v) const noexcept;

  /// Exact BFS distance from `s` to `t` (-1: unreachable) when the
  /// pair is covered — `s` is a landmark, or `t` is one and the graph
  /// was symmetric; std::nullopt on a miss. Out-of-range vertices are
  /// a miss, never an error (the admission path validates ranges).
  [[nodiscard]] std::optional<std::int32_t> distance(
      graph::vid_t s, graph::vid_t t) const noexcept;

 private:
  LandmarkCache() = default;

  /// Label-correcting relaxation of one lane's row: seed every
  /// inserted edge whose head now has a shorter path through its tail,
  /// then propagate the decrease. -1 is +infinity. Exact because
  /// distances are unit-weight and monotonically decreasing under
  /// insertion: every cell ends at min over in-neighbors + 1.
  template <graph::HybridView V>
  void repair_lane(const V& g, std::size_t lane,
                   std::span<const graph::Edge> inserts, RepairStats& rs) {
    const auto n = static_cast<std::size_t>(num_vertices_);
    const std::span<std::int32_t> d(dist_.data() + lane * n, n);
    const auto closer = [&](std::int32_t via, graph::vid_t to) {
      return via >= 0 && (d[static_cast<std::size_t>(to)] < 0 ||
                          d[static_cast<std::size_t>(to)] > via + 1);
    };
    std::deque<graph::vid_t> queue;
    const auto lower = [&](graph::vid_t to, std::int32_t via) {
      d[static_cast<std::size_t>(to)] = via + 1;
      ++rs.lowered;
      queue.push_back(to);
    };
    for (const graph::Edge& e : inserts) {
      if (e.src == e.dst) continue;
      if (closer(d[static_cast<std::size_t>(e.src)], e.dst)) {
        lower(e.dst, d[static_cast<std::size_t>(e.src)]);
        ++rs.seeds;
      }
      if (symmetric_ && closer(d[static_cast<std::size_t>(e.dst)], e.src)) {
        lower(e.src, d[static_cast<std::size_t>(e.dst)]);
        ++rs.seeds;
      }
    }
    while (!queue.empty()) {
      const graph::vid_t w = queue.front();
      queue.pop_front();
      ++rs.relaxed;
      const std::int32_t dw = d[static_cast<std::size_t>(w)];
      g.for_each_out_neighbor(w, [&](graph::vid_t x) {
        if (closer(dw, x)) lower(x, dw);
      });
    }
  }

  std::uint64_t epoch_ = 0;
  bool symmetric_ = false;
  graph::vid_t num_vertices_ = 0;
  std::vector<graph::vid_t> landmarks_;
  /// Per vertex: its lane in `dist_`, or -1. Sized num_vertices_.
  std::vector<std::int32_t> lane_of_;
  /// landmarks_.size() rows of num_vertices_ distances, row-major.
  std::vector<std::int32_t> dist_;
};

}  // namespace bfsx::serve
