// A simulated device: prices BFS levels from their work counters with
// its ArchSpec's cost model, while the level steps themselves run on
// the host (core::DeviceClock in core/traversal.h). This is the
// stand-in for the paper's physical CPU / GPU / MIC (DESIGN.md §2).
#pragma once

#include <string_view>
#include <utility>

#include "graph/types.h"
#include "sim/arch.h"
#include "sim/cost_model.h"

namespace bfsx::sim {

class Device {
 public:
  explicit Device(ArchSpec spec) : spec_(std::move(spec)) {}

  [[nodiscard]] const ArchSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] std::string_view name() const noexcept { return spec_.name; }

  /// Modelled cost of a top-down level with the given frontier.
  [[nodiscard]] double top_down_cost(graph::eid_t frontier_edges) const {
    return top_down_level_seconds(spec_, frontier_edges);
  }

  /// Ditto for bottom-up.
  [[nodiscard]] double bottom_up_cost(graph::vid_t total_vertices,
                                      graph::eid_t hit_edges,
                                      graph::eid_t miss_edges) const {
    return bottom_up_level_seconds(spec_, total_vertices, hit_edges,
                                   miss_edges);
  }

 private:
  ArchSpec spec_;
};

}  // namespace bfsx::sim
