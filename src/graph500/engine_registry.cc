#include "graph500/engine_registry.h"

#include <algorithm>
#include <utility>

#include "core/adaptive_bfs.h"
#include "core/cross_arch_bfs.h"
#include "dist/dist_bfs.h"
#include "graph500/native_engine.h"
#include "graph500/reference_bfs.h"
#include "sim/arch_config.h"
#include "tools/args.h"

namespace bfsx::graph500 {
namespace {

sim::Device cpu_preset() {
  return sim::Device{sim::parse_arch_spec("base=cpu,name=cpu")};
}

[[noreturn]] void throw_unknown(
    const std::vector<EngineRegistry::Entry>& entries,
    const std::string& name) {
  std::string message = "unknown engine '" + name + "'";
  std::vector<std::string_view> names;
  names.reserve(entries.size());
  for (const EngineRegistry::Entry& e : entries) names.push_back(e.name);
  if (const std::string_view closest = tools::suggest_closest(name, names);
      !closest.empty()) {
    message += " (did you mean '" + std::string(closest) + "'?)";
  }
  message += "; valid engines:";
  for (const EngineRegistry::Entry& e : entries) message += " " + e.name;
  throw UnknownEngineError(message);
}

}  // namespace

EngineConfig::EngineConfig() : device(cpu_preset()), host(cpu_preset()) {}

void EngineRegistry::register_engine(Entry entry) {
  if (entry.name.empty()) {
    throw std::invalid_argument("EngineRegistry: empty engine name");
  }
  if (!entry.factory) {
    throw std::invalid_argument("EngineRegistry: engine '" + entry.name +
                                "' has no factory");
  }
  if (find(entry.name) != nullptr) {
    throw std::invalid_argument("EngineRegistry: duplicate engine '" +
                                entry.name + "'");
  }
  entries_.push_back(std::move(entry));
}

const EngineRegistry::Entry* EngineRegistry::find(
    std::string_view name) const noexcept {
  for (const Entry& e : entries_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

BfsEngine EngineRegistry::make_engine(const std::string& name,
                                      const EngineConfig& config) const {
  if (const Entry* entry = find(name)) return entry->factory(config);
  throw_unknown(entries_, name);
}

BatchBfsEngine EngineRegistry::make_batch_engine(
    const std::string& name, const EngineConfig& config) const {
  const Entry* entry = find(name);
  if (entry == nullptr) throw_unknown(entries_, name);
  if (entry->batch_factory) return entry->batch_factory(config);
  return one_root_at_a_time(entry->factory(config));
}

std::vector<std::string> EngineRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back(e.name);
  return out;
}

std::string EngineRegistry::describe() const {
  std::size_t width = 0;
  for (const Entry& e : entries_) width = std::max(width, e.name.size());
  std::string out;
  for (const Entry& e : entries_) {
    out += "    " + e.name + std::string(width - e.name.size() + 2, ' ') +
           e.description + "\n";
  }
  return out;
}

EngineRegistry EngineRegistry::with_builtin_engines() {
  EngineRegistry r;
  r.register_engine(
      {"td", "pure top-down on one simulated device (CPUTD/GPUTD rows)",
       [](const EngineConfig& cfg) {
         return make_top_down_engine(cfg.device, cfg.sink);
       }});
  r.register_engine(
      {"bu", "pure bottom-up on one simulated device (CPUBU/GPUBU rows)",
       [](const EngineConfig& cfg) {
         return make_bottom_up_engine(cfg.device, cfg.sink);
       }});
  r.register_engine(
      {"ref", "Graph 500 reference-code stand-in (penalised top-down)",
       [](const EngineConfig& cfg) {
         return make_reference_engine(cfg.device, cfg.sink);
       }});
  r.register_engine(
      {"hybrid", "M/N direction-switching combination on one device",
       [](const EngineConfig& cfg) -> BfsEngine {
         return [device = cfg.device, policy = cfg.policy, sink = cfg.sink](
                    const graph::CsrGraph& g, graph::vid_t root) {
           core::CombinationRun run =
               core::run_combination(g, root, device, policy, sink);
           return TimedBfs{std::move(run.result), run.seconds};
         };
       }});
  r.register_engine(
      {"cross",
       "host runs top-down, accelerator finishes (paper Algorithm 3)",
       [](const EngineConfig& cfg) -> BfsEngine {
         return [host = cfg.host, accel = cfg.device, link = cfg.link,
                 handoff = cfg.policy, accel_policy = cfg.accel_policy,
                 sink = cfg.sink](const graph::CsrGraph& g,
                                  graph::vid_t root) {
           core::CombinationRun run = core::run_cross_arch(
               g, root, host, accel, link, handoff, accel_policy, sink);
           return TimedBfs{std::move(run.result), run.seconds};
         };
       }});
  r.register_engine(
      {"dist", "BSP distributed BFS over a partitioned device cluster",
       [](const EngineConfig& cfg) -> BfsEngine {
         std::shared_ptr<const sim::Cluster> cluster = cfg.cluster;
         if (cluster == nullptr) {
           cluster = std::make_shared<const sim::Cluster>(
               std::vector<sim::Device>{cfg.device, cfg.device},
               sim::InterconnectSpec{});
         }
         dist::DistBfsOptions dopts;
         dopts.policy = cfg.policy;
         dopts.strategy = cfg.strategy;
         dopts.sink = cfg.sink;
         return [cluster, dopts](const graph::CsrGraph& g,
                                 graph::vid_t root) {
           dist::DistBfsRun run = dist::run_dist_bfs(g, root, *cluster, dopts);
           return TimedBfs{std::move(run.result), run.seconds};
         };
       }});
  r.register_engine(
      {"native-td", "pure top-down on this host, wall-clock timed",
       [](const EngineConfig& cfg) {
         return make_native_top_down_engine(cfg.sink, cfg.pool,
                                            cfg.compressed);
       }});
  r.register_engine(
      {"native-bu", "pure bottom-up on this host, wall-clock timed",
       [](const EngineConfig& cfg) {
         return make_native_bottom_up_engine(cfg.sink, cfg.pool,
                                             cfg.compressed);
       }});
  r.register_engine(
      {"native-hybrid", "M/N combination on this host, wall-clock timed",
       [](const EngineConfig& cfg) {
         return make_native_hybrid_engine(cfg.policy, cfg.sink, cfg.pool,
                                          cfg.compressed);
       }});
  // The per-root factory serves callers that treat msbfs like any other
  // engine (batches of one); --batch=msbfs goes through the
  // batch_factory and amortises one kernel pass over up to 64 roots.
  r.register_engine(
      {"msbfs", "bit-parallel multi-source BFS, up to 64 roots per pass",
       [](const EngineConfig& cfg) -> BfsEngine {
         return [batch_engine = make_msbfs_batch_engine(cfg.policy,
                                                        cfg.sink)](
                    const graph::CsrGraph& g, graph::vid_t root) {
           return std::move(batch_engine(g, {root}).front());
         };
       },
       [](const EngineConfig& cfg) {
         return make_msbfs_batch_engine(cfg.policy, cfg.sink);
       }});
  return r;
}

}  // namespace bfsx::graph500
