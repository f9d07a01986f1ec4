#include "core/cross_arch_bfs.h"

namespace bfsx::core {
namespace {

/// Host and accelerator pricing. A level on the accelerator also
/// reports what shipping the frontier and visited bitmaps over the
/// link costs; run_traversal charges it once, at the handoff.
struct CrossClock {
  DeviceClock host;
  DeviceClock accel;
  double handoff_seconds;

  template <typename G>
  Charge operator()(const G& g, bfs::BfsState& state,
                    const bfs::Frontier& f, bfs::Decision d) const {
    if (d.device == 0) return host(g, state, f, d);
    Charge c = accel(g, state, f, d);
    c.handoff_seconds = handoff_seconds;
    return c;
  }
};

CombinationRun run_cross_impl(const graph::CsrGraph& g, graph::vid_t root,
                              const sim::Device& host,
                              const sim::Device& accel,
                              const sim::InterconnectSpec& link,
                              const HybridPolicy& handoff_policy,
                              const HybridPolicy* accel_policy,
                              obs::TraceSink* sink) {
  handoff_policy.validate();
  if (accel_policy != nullptr) accel_policy->validate();
  const double handoff_seconds =
      sim::transfer_seconds(link, sim::handoff_bytes(g.num_vertices()));
  return run_modelled(g, root, accel_policy != nullptr ? "cross" : "cross-bu",
                      HandoffRule(handoff_policy, accel_policy),
                      CrossClock{{host}, {accel}, handoff_seconds}, sink);
}

}  // namespace

CombinationRun run_cross_arch(const graph::CsrGraph& g, graph::vid_t root,
                              const sim::Device& host,
                              const sim::Device& accel,
                              const sim::InterconnectSpec& link,
                              const HybridPolicy& handoff_policy,
                              const HybridPolicy& accel_policy,
                              obs::TraceSink* sink) {
  return run_cross_impl(g, root, host, accel, link, handoff_policy,
                        &accel_policy, sink);
}

CombinationRun run_cross_arch_bu_only(const graph::CsrGraph& g,
                                      graph::vid_t root,
                                      const sim::Device& host,
                                      const sim::Device& accel,
                                      const sim::InterconnectSpec& link,
                                      const HybridPolicy& handoff_policy,
                                      obs::TraceSink* sink) {
  return run_cross_impl(g, root, host, accel, link, handoff_policy, nullptr,
                        sink);
}

}  // namespace bfsx::core
