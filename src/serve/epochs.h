// Epoch-based graph snapshots: streaming edge writes that never race
// live queries.
//
// The serving engine keeps one resident graph under concurrent query
// traffic while accepting edge insertions and removals. CSR is the
// wrong structure to mutate in place — every kernel in this repository
// assumes frozen offsets — so writes are decoupled from reads the RCU
// way:
//
//   * readers call pin() and get an immutable EpochGraph plus its
//     epoch id; every answer a batch produces is attributed to that
//     epoch;
//   * the writer buffers ops (buffer_insert / buffer_remove)
//     invisibly, then publish() canonicalises the batch (last-op-wins
//     per directed edge, so duplicate inserts and insert-then-remove
//     pairs never inflate the delta) and emits epoch N+1;
//   * superseded epochs retire (memory freed) as their last pin drops.
//
// Publishing is incremental by default: epoch N+1 is a graph::DeltaCsr
// overlay sharing every unchanged adjacency row with the newest *flat*
// base CSR, so a publish costs O(rows touched since the last
// compaction), not O(V+E). When the overlay's patched-row fraction
// crosses EpochOptions::compact_threshold — or on publish_full(), or
// with delta_publish disabled — the effective adjacency is folded back
// into a flat CSR, reclaiming the storage of removed edges. Both kinds
// of epoch traverse identically (DeltaCsr models HybridView), and a
// delta epoch's traversals are bit-equal to the flat rebuild it
// replaces.
//
// Single writer, many readers: buffer_* / publish must come from one
// thread at a time (the engine's control path); pin() is safe from any
// thread at any moment, including mid-publish.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "graph/builder.h"
#include "graph/csr.h"
#include "graph/delta_csr.h"
#include "graph/edge_list.h"
#include "graph/view.h"

namespace bfsx::serve {

/// One published snapshot: either a flat CSR or a DeltaCsr overlay.
/// Exposes the size/symmetry surface directly; kernels reach the
/// concrete representation through visit(), which hands a generic
/// callable either a CsrGraphView or a const DeltaCsr& — both model
/// HybridView, so one templated kernel body serves both and flat
/// epochs keep their zero-overhead span loops.
class EpochGraph {
 public:
  explicit EpochGraph(std::shared_ptr<const graph::CsrGraph> flat)
      : flat_(std::move(flat)) {}
  explicit EpochGraph(graph::DeltaCsr delta) : delta_(std::move(delta)) {}

  [[nodiscard]] graph::vid_t num_vertices() const noexcept {
    return flat_ != nullptr ? flat_->num_vertices() : delta_->num_vertices();
  }
  [[nodiscard]] graph::eid_t num_edges() const noexcept {
    return flat_ != nullptr ? flat_->num_edges() : delta_->num_edges();
  }
  [[nodiscard]] bool is_symmetric() const noexcept {
    return flat_ != nullptr ? flat_->is_symmetric() : delta_->is_symmetric();
  }

  [[nodiscard]] bool is_delta() const noexcept { return flat_ == nullptr; }
  /// The flat CSR, or nullptr for a delta epoch (for callers with
  /// CSR-only machinery; kernels go through visit()).
  [[nodiscard]] const graph::CsrGraph* flat() const noexcept {
    return flat_.get();
  }
  /// The overlay, or nullptr for a flat epoch.
  [[nodiscard]] const graph::DeltaCsr* delta() const noexcept {
    return delta_.has_value() ? &*delta_ : nullptr;
  }

  /// Calls `fn` with the concrete HybridView of this epoch.
  template <typename Fn>
  decltype(auto) visit(Fn&& fn) const {
    if (flat_ != nullptr) return fn(graph::CsrGraphView(*flat_));
    return fn(*delta_);
  }

 private:
  std::shared_ptr<const graph::CsrGraph> flat_;  // null for delta epochs
  std::optional<graph::DeltaCsr> delta_;
};

/// Publish policy knobs, fixed at GraphEpochs construction.
struct EpochOptions {
  /// Applied to every rebuild and every delta overlay. The default
  /// symmetrises, matching the Graph 500 pipeline.
  graph::BuildOptions build{};
  /// false restores the historical behaviour: every publish is a full
  /// O(V+E) rebuild (the bench baseline).
  bool delta_publish = true;
  /// A publish whose overlay would patch at least this fraction of
  /// rows folds into a flat CSR instead. 0 compacts every publish;
  /// > 1 never compacts on its own (publish_full() still forces it).
  double compact_threshold = 0.25;
};

/// What the most recent publish did — the serve layer's metrics feed
/// and the churn bench's cost breakdown.
struct PublishInfo {
  std::uint64_t epoch = 0;
  bool delta = false;      // published as an overlay
  bool compacted = false;  // folded into a flat CSR this publish
  std::size_t raw_ops = 0;  // buffered ops before canonicalisation
  std::size_t applied_inserts = 0;
  std::size_t applied_removes = 0;
  std::size_t deduped_ops = 0;  // dropped by last-op-wins
  /// Of the overlay as applied — kept even when the publish folded,
  /// since the fraction is what tripped the compaction.
  graph::vid_t patched_rows = 0;
  double patched_fraction = 0.0;
  double seconds = 0.0;  // wall-clock of this publish
};

class GraphEpochs {
 public:
  /// RAII reader pin: holds one epoch's graph alive. Movable,
  /// non-copyable; dropping the last pin of a superseded epoch retires
  /// it. The referenced graph is valid for the pin's lifetime.
  class Pin {
   public:
    Pin() = default;
    Pin(GraphEpochs* owner, std::uint64_t epoch,
        const EpochGraph* g) noexcept
        : owner_(owner), epoch_(epoch), graph_(g) {}
    Pin(Pin&& other) noexcept { *this = std::move(other); }
    Pin& operator=(Pin&& other) noexcept {
      if (this != &other) {
        release();
        owner_ = other.owner_;
        epoch_ = other.epoch_;
        graph_ = other.graph_;
        other.owner_ = nullptr;
        other.graph_ = nullptr;
      }
      return *this;
    }
    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;
    ~Pin() { release(); }

    [[nodiscard]] const EpochGraph& graph() const noexcept {
      return *graph_;
    }
    [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

   private:
    void release() noexcept;

    GraphEpochs* owner_ = nullptr;
    std::uint64_t epoch_ = 0;
    const EpochGraph* graph_ = nullptr;
  };

  /// Builds epoch 0 (always flat) from `edges`.
  explicit GraphEpochs(graph::EdgeList edges, const EpochOptions& opts = {});
  /// Historical convenience: build options only, default publish
  /// policy.
  GraphEpochs(graph::EdgeList edges, const graph::BuildOptions& build);

  GraphEpochs(const GraphEpochs&) = delete;
  GraphEpochs& operator=(const GraphEpochs&) = delete;

  /// Pins the newest published epoch. Thread-safe.
  [[nodiscard]] Pin pin();

  /// Id of the newest published epoch. Thread-safe.
  [[nodiscard]] std::uint64_t current_epoch() const;

  /// Vertex count of the newest published epoch. Thread-safe.
  [[nodiscard]] graph::vid_t current_num_vertices() const;

  // ---- writer side (one thread at a time) ----

  /// Buffers one directed edge insertion for the next publish;
  /// invisible to readers until then. Endpoints may exceed the current
  /// vertex count — the vertex set grows at publish. Rejects
  /// negatives.
  void buffer_insert(graph::vid_t u, graph::vid_t v);

  /// Buffers one directed edge removal. Removing an edge the graph
  /// does not have is a no-op at publish; within one batch the last op
  /// on an edge wins (insert-then-remove cancels out). Rejects
  /// negatives.
  void buffer_remove(graph::vid_t u, graph::vid_t v);

  /// Insert / remove ops buffered since the last publish (raw counts,
  /// before canonicalisation).
  [[nodiscard]] std::size_t pending_inserts() const;
  [[nodiscard]] std::size_t pending_removes() const;

  /// Canonicalises and applies the buffered ops as the next epoch —
  /// a DeltaCsr overlay when the policy allows, a flat rebuild when it
  /// compacts — and retires every unpinned superseded epoch. Valid
  /// with zero pending ops (publishes an identical graph under a new
  /// id). Returns the new epoch id; last_publish() has the breakdown.
  std::uint64_t publish();

  /// Like publish(), but always folds into a flat CSR regardless of
  /// the patched-row fraction.
  std::uint64_t publish_full();

  /// Breakdown of the most recent publish (epoch 0's construction
  /// counts as a full publish with zero ops).
  [[nodiscard]] PublishInfo last_publish() const;

  // ---- observability ----

  /// Epochs currently retained: the published one plus superseded ones
  /// still pinned by readers.
  [[nodiscard]] std::size_t live_epochs() const;

  /// Superseded epochs whose storage has been reclaimed.
  [[nodiscard]] std::uint64_t retired_epochs() const;

  /// Publishes that emitted an overlay / folded to a flat CSR (the
  /// initial build counts toward full).
  [[nodiscard]] std::uint64_t delta_publishes() const;
  [[nodiscard]] std::uint64_t full_publishes() const;

  [[nodiscard]] const EpochOptions& options() const noexcept {
    return opts_;
  }

 private:
  struct Record {
    std::uint64_t epoch = 0;
    std::unique_ptr<const EpochGraph> graph;
    std::size_t pins = 0;
  };

  struct PendingOp {
    graph::Edge edge;
    bool remove = false;
  };

  std::uint64_t publish_impl(bool force_full);
  void unpin(std::uint64_t epoch) noexcept;

  // Writer-owned; never touched by readers.
  EpochOptions opts_;
  /// The newest *flat* CSR — what every live overlay patches against.
  std::shared_ptr<const graph::CsrGraph> base_;
  std::vector<PendingOp> pending_;
  std::size_t pending_inserts_ = 0;
  std::size_t pending_removes_ = 0;
  PublishInfo last_publish_{};
  std::uint64_t delta_publishes_ = 0;
  std::uint64_t full_publishes_ = 0;

  mutable std::mutex mu_;  // guards records_ / retired_
  std::vector<Record> records_;
  std::uint64_t retired_ = 0;
};

}  // namespace bfsx::serve
