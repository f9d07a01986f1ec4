// EngineRegistry: every BFS engine family constructible by name, from
// one place, with one construction point where the trace sink attaches.
//
// Before this existed the CLI grew an if/else chain per engine and each
// caller re-invented engine wiring; now `bfsx bfs --engine X`, tests,
// and embedders all go through make_engine(name, config). Each entry
// carries a one-line description, which is also what generates the
// CLI usage text — the engine list can never drift from the parser.
#pragma once

#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "bfs/state_pool.h"
#include "core/hybrid_policy.h"
#include "graph/partition.h"
#include "graph500/runner.h"
#include "obs/sink.h"
#include "sim/cluster.h"
#include "sim/device.h"

namespace bfsx::graph {
class CompressedCsrView;
}

namespace bfsx::graph500 {

/// Everything an engine factory may need. Factories copy what they use
/// into the returned closure, so the config (and the devices inside
/// it) need not outlive the call — only `sink` and `cluster` are
/// referenced afterwards (non-owning pointer / shared ownership).
struct EngineConfig {
  /// Primary device: the whole machine for single-device engines, the
  /// accelerator for "cross". Defaults to the CPU preset.
  sim::Device device;
  /// Host side of the "cross" engine. Defaults to the CPU preset.
  sim::Device host;
  /// M/N rule for hybrid engines; the handoff rule for "cross".
  core::HybridPolicy policy{};
  /// The on-accelerator rule of "cross" (the paper's M2/N2).
  core::HybridPolicy accel_policy{};
  /// Host-accelerator link crossed by the "cross" handoff.
  sim::InterconnectSpec link{};
  /// Cluster for "dist"; when null the factory builds a 2-device
  /// homogeneous cluster from `device`.
  std::shared_ptr<const sim::Cluster> cluster;
  graph::PartitionStrategy strategy = graph::PartitionStrategy::kBlock;
  /// Optional, non-owning; must outlive the constructed engine. Bound
  /// into the engine closure — this is the single attach point for
  /// per-level tracing across all engine families.
  obs::TraceSink* sink = nullptr;
  /// Optional, non-owning; must outlive the constructed engine. The
  /// native engines draw reusable BfsStates from it, so each worker
  /// reuses a state's bitmaps, queues, candidate lists and scratch from
  /// root to root; the parent and level maps leave with each result
  /// and are allocated again. Simulated engines ignore it (their state
  /// is modelled, not real).
  bfs::StatePool* pool = nullptr;
  /// Non-null routes the native engines through the compressed
  /// adjacency view (--compress). Non-owning; must outlive the engine
  /// and be built from the graph the engine traverses.
  const graph::CompressedCsrView* compressed = nullptr;

  EngineConfig();
};

/// Thrown by make_engine for an unregistered name. The message names
/// the closest registered engine ("did you mean") and lists all of
/// them.
class UnknownEngineError : public std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

class EngineRegistry {
 public:
  struct Entry {
    std::string name;
    /// One line, lower-case, no trailing period; rendered verbatim in
    /// the CLI usage text.
    std::string description;
    std::function<BfsEngine(const EngineConfig&)> factory;
    /// Optional batched construction (engines that amortise one kernel
    /// pass over many roots, e.g. msbfs). Entries without one still
    /// work with make_batch_engine via one_root_at_a_time.
    std::function<BatchBfsEngine(const EngineConfig&)> batch_factory{};
  };

  /// Registers an engine; throws std::invalid_argument on a duplicate
  /// name or an empty name/factory.
  void register_engine(Entry entry);

  /// The registered entry, or nullptr.
  [[nodiscard]] const Entry* find(std::string_view name) const noexcept;

  /// Constructs the named engine with the sink (and everything else)
  /// taken from `config`. Throws UnknownEngineError for unknown names.
  [[nodiscard]] BfsEngine make_engine(const std::string& name,
                                      const EngineConfig& config) const;

  /// Constructs the named engine in batched form: the entry's
  /// batch_factory when it has one, otherwise the per-root engine
  /// wrapped by one_root_at_a_time. Throws UnknownEngineError for
  /// unknown names.
  [[nodiscard]] BatchBfsEngine make_batch_engine(
      const std::string& name, const EngineConfig& config) const;

  [[nodiscard]] std::vector<std::string> names() const;
  [[nodiscard]] const std::vector<Entry>& entries() const noexcept {
    return entries_;
  }

  /// "  name          description" lines, registration order — the
  /// engine section of the CLI usage text.
  [[nodiscard]] std::string describe() const;

  /// A registry holding every built-in engine family: td, bu, ref,
  /// hybrid, cross, dist, native-td, native-bu, native-hybrid, msbfs.
  /// Returned by value so embedders can extend their copy.
  [[nodiscard]] static EngineRegistry with_builtin_engines();

 private:
  std::vector<Entry> entries_;
};

}  // namespace bfsx::graph500
