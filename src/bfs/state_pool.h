// Reusable BfsState pool for multi-root benchmark runs.
//
// graph500::run_benchmark traverses dozens of roots over one graph;
// constructing a BfsState per root allocates its three bitmaps, its
// frontier queues, its bottom-up candidate lists and its top-down and
// bottom-up scratch every time. The pool keeps retired states on a
// freelist and re-arms them with BfsState::reset, so those buffers are
// reused from root to root and the peak live-state count equals the
// number of concurrent workers. The parent and level maps are not
// reused: take_result moves them out with each result, so reset
// allocates and fills them again (2 × 4 bytes × |V| per traversal).
//
// Ownership rules (see DESIGN.md §9):
//   * acquire() transfers exclusive ownership to the returned Lease;
//     the pool never touches a checked-out state.
//   * The Lease returns the state on destruction — including a state
//     whose parent/level vectors were moved out by take_result; reset
//     allocates them again on the next checkout.
//   * acquire()/release are mutex-guarded and safe from concurrent
//     OpenMP workers; the state itself is single-owner, never shared.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "bfs/state.h"

namespace bfsx::bfs {

class StatePool {
 public:
  /// Exclusive handle on a pooled state. Movable; returns the state to
  /// the pool when destroyed.
  class Lease {
   public:
    Lease(StatePool* pool, std::unique_ptr<BfsState> state) noexcept
        : pool_(pool), state_(std::move(state)) {}
    Lease(Lease&& other) noexcept = default;
    Lease& operator=(Lease&& other) noexcept {
      if (this != &other) {
        release();
        pool_ = other.pool_;
        state_ = std::move(other.state_);
      }
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { release(); }

    [[nodiscard]] BfsState& operator*() const noexcept { return *state_; }
    [[nodiscard]] BfsState* operator->() const noexcept {
      return state_.get();
    }

   private:
    void release() noexcept;

    StatePool* pool_ = nullptr;
    std::unique_ptr<BfsState> state_;
  };

  StatePool() = default;
  StatePool(const StatePool&) = delete;
  StatePool& operator=(const StatePool&) = delete;

  /// Checks out a state armed for a traversal of an
  /// `num_vertices`-vertex graph from `root`: either a recycled one
  /// (reset: its bitmaps, queues, candidate lists and scratch are
  /// reused; parent and level are allocated again if a result took
  /// them) or — when the freelist is empty — a freshly constructed one.
  /// Sized by |V| alone, so the same pool serves every GraphView.
  [[nodiscard]] Lease acquire(graph::vid_t num_vertices, graph::vid_t root);

  [[nodiscard]] Lease acquire(const graph::CsrGraph& g, graph::vid_t root) {
    return acquire(g.num_vertices(), root);
  }

  /// States constructed over the pool's lifetime. With W concurrent
  /// workers this settles at <= W however many roots run.
  [[nodiscard]] std::size_t created() const;

  /// States currently parked on the freelist.
  [[nodiscard]] std::size_t idle() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<BfsState>> free_;
  std::size_t created_ = 0;
};

}  // namespace bfsx::bfs
