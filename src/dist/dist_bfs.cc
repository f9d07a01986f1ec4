#include "dist/dist_bfs.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "bfs/bottomup.h"
#include "bfs/topdown.h"
#include "core/trace_emit.h"

namespace bfsx::dist {
namespace {

using graph::eid_t;
using graph::vid_t;

/// Bytes of one (vertex, parent) discovery pair on the wire.
constexpr std::size_t kPairBytes = 2 * sizeof(vid_t);
/// Bytes of one device's (|V|cq, |E|cq) counter record in the
/// direction allreduce.
constexpr std::size_t kCounterBytes = sizeof(vid_t) + sizeof(eid_t);

std::size_t slice_bytes(vid_t vertices) {
  return (static_cast<std::size_t>(vertices) + 7) / 8;
}

/// Per-device top-down counting pass: splits |V|cq / |E|cq by owner and
/// counts the discovery pairs each device would ship to each peer.
/// Walks the same edges the kernel is about to traverse, exactly like
/// bottom_up_probe does for the single-device trace.
struct TopDownCount {
  std::vector<vid_t> frontier_vertices;   // per device
  std::vector<eid_t> frontier_edges;      // per device
  std::vector<std::vector<std::size_t>> pair_bytes;  // [from][to]
};

TopDownCount count_top_down(const std::vector<graph::LocalSubgraph>& subs,
                            const graph::VertexPartition& part,
                            const bfs::BfsState& state,
                            std::vector<graph::Bitmap>& sent_scratch,
                            std::vector<std::vector<vid_t>>& sent_marks) {
  const auto p = static_cast<std::size_t>(part.num_parts());
  TopDownCount count;
  count.frontier_vertices.assign(p, 0);
  count.frontier_edges.assign(p, 0);
  count.pair_bytes.assign(p, std::vector<std::size_t>(p, 0));

  for (const vid_t u : state.frontier_queue) {
    const auto from = static_cast<std::size_t>(part.owner(u));
    const graph::LocalSubgraph& sub = subs[from];
    ++count.frontier_vertices[from];
    for (const vid_t w : sub.out_neighbors(u)) {
      ++count.frontier_edges[from];
      if (state.visited.test(static_cast<std::size_t>(w))) continue;
      // Sender-side dedup: one pair per (sender, target) per level. The
      // scratch is per sender, so a target discovered by two different
      // devices is charged twice — as it is on a real wire.
      const auto bit = static_cast<std::size_t>(w);
      if (sent_scratch[from].test(bit)) continue;
      sent_scratch[from].set(bit);
      sent_marks[from].push_back(w);
      const auto to = static_cast<std::size_t>(part.owner(w));
      if (to != from) count.pair_bytes[from][to] += kPairBytes;
    }
  }
  for (std::size_t d = 0; d < p; ++d) {
    for (const vid_t w : sent_marks[d]) {
      sent_scratch[d].clear(static_cast<std::size_t>(w));
    }
    sent_marks[d].clear();
  }
  return count;
}

/// Per-device bottom-up counting pass (bottom_up_probe, split by owner).
struct BottomUpCount {
  std::vector<eid_t> hit_edges;
  std::vector<eid_t> miss_edges;
};

BottomUpCount count_bottom_up(const std::vector<graph::LocalSubgraph>& subs,
                              const graph::VertexPartition& part,
                              const bfs::BfsState& state) {
  const auto p = static_cast<std::size_t>(part.num_parts());
  BottomUpCount count;
  count.hit_edges.assign(p, 0);
  count.miss_edges.assign(p, 0);
  for (std::size_t d = 0; d < p; ++d) {
    const graph::LocalSubgraph& sub = subs[d];
    for (vid_t v = sub.first; v < sub.first + sub.num_local; ++v) {
      if (state.visited.test(static_cast<std::size_t>(v))) continue;
      eid_t walked = 0;
      bool hit = false;
      for (const vid_t u : sub.in_neighbors(v)) {
        ++walked;
        if (state.frontier_bitmap.test(static_cast<std::size_t>(u))) {
          hit = true;
          break;
        }
      }
      (hit ? count.hit_edges[d] : count.miss_edges[d]) += walked;
    }
  }
  return count;
}

/// max/mean of the per-device compute times (1.0 when all zero).
double balance_of(const std::vector<double>& seconds) {
  double mx = 0.0;
  double sum = 0.0;
  for (const double s : seconds) {
    mx = std::max(mx, s);
    sum += s;
  }
  if (sum <= 0.0) return 1.0;
  return mx / (sum / static_cast<double>(seconds.size()));
}

}  // namespace

DistBfsRun run_dist_bfs(const graph::CsrGraph& g, vid_t root,
                        const sim::Cluster& cluster,
                        const DistBfsOptions& opts) {
  if (g.num_vertices() == 0) {
    throw std::invalid_argument("run_dist_bfs: empty graph");
  }
  if (root < 0 || root >= g.num_vertices()) {
    throw std::invalid_argument("run_dist_bfs: root out of range");
  }
  opts.policy.validate();

  const int num_devices = static_cast<int>(cluster.num_devices());
  const graph::VertexPartition part =
      graph::partition_vertices(g, num_devices, opts.strategy);
  std::vector<graph::LocalSubgraph> subs;
  subs.reserve(static_cast<std::size_t>(num_devices));
  for (int p = 0; p < num_devices; ++p) {
    subs.push_back(graph::extract_subgraph(g, part, p));
  }

  DistBfsRun run;
  run.device_graph_bytes.reserve(subs.size());
  for (const graph::LocalSubgraph& sub : subs) {
    run.device_graph_bytes.push_back(sub.memory_footprint_bytes());
  }

  obs::RunEvent trace = core::trace_begin_run(opts.sink, "dist", g, root);
  const std::string cluster_name =
      "cluster[" + std::to_string(cluster.num_devices()) + "]";

  bfs::BfsState state(g, root);
  std::vector<graph::Bitmap> sent_scratch;
  sent_scratch.reserve(cluster.num_devices());
  for (std::size_t d = 0; d < cluster.num_devices(); ++d) {
    sent_scratch.emplace_back(static_cast<std::size_t>(g.num_vertices()));
  }
  std::vector<std::vector<vid_t>> sent_marks(cluster.num_devices());

  bfs::Direction prev_direction = bfs::Direction::kTopDown;
  bool first_level = true;
  while (!state.frontier_empty()) {
    DistLevelOutcome out;
    out.level = state.current_level;
    out.frontier_vertices = static_cast<vid_t>(state.frontier_queue.size());
    out.frontier_edges = state.frontier_out_edges(g);

    // Superstep step 1: allreduce the counters, take the global branch.
    out.comm_seconds += cluster.allreduce_seconds(kCounterBytes);
    out.direction =
        opts.policy.decide(out.frontier_edges, out.frontier_vertices,
                           g.num_edges(), g.num_vertices());

    out.device_compute_seconds.assign(cluster.num_devices(), 0.0);
    if (out.direction == bfs::Direction::kTopDown) {
      const TopDownCount count =
          count_top_down(subs, part, state, sent_scratch, sent_marks);
      for (std::size_t d = 0; d < cluster.num_devices(); ++d) {
        out.device_compute_seconds[d] =
            cluster.device(d).top_down_cost(count.frontier_edges[d]);
      }
      // Step 2a: ship remote discoveries to their owners.
      out.comm_seconds += cluster.exchange_seconds(count.pair_bytes);
      const bfs::TopDownStats stats = bfs::top_down_step(g, state);
      out.next_vertices = stats.next_vertices;
    } else {
      // Step 2b: allgather the frontier bitmap (each device ships its
      // owned slice), then scan owned candidates against it.
      std::vector<std::size_t> slices(cluster.num_devices());
      for (std::size_t d = 0; d < cluster.num_devices(); ++d) {
        slices[d] = slice_bytes(part.part_size(static_cast<int>(d)));
      }
      out.comm_seconds += cluster.exchange_seconds(slices);
      const BottomUpCount count = count_bottom_up(subs, part, state);
      for (std::size_t d = 0; d < cluster.num_devices(); ++d) {
        out.device_compute_seconds[d] = cluster.device(d).bottom_up_cost(
            part.part_size(static_cast<int>(d)), count.hit_edges[d],
            count.miss_edges[d]);
        out.bu_edges_hit += count.hit_edges[d];
        out.bu_edges_miss += count.miss_edges[d];
      }
      const bfs::BottomUpStats stats = bfs::bottom_up_step(g, state);
      out.next_vertices = stats.next_vertices;
    }

    // Step 3: the barrier — the slowest device gates the superstep.
    out.compute_seconds =
        *std::max_element(out.device_compute_seconds.begin(),
                          out.device_compute_seconds.end());
    out.balance = balance_of(out.device_compute_seconds);

    if (!first_level && out.direction != prev_direction) {
      ++run.direction_switches;
    }
    first_level = false;
    prev_direction = out.direction;

    run.compute_seconds += out.compute_seconds;
    run.comm_seconds += out.comm_seconds;
    if (opts.sink != nullptr) {
      obs::LevelEvent event;
      event.level = out.level;
      event.direction = out.direction;
      event.device = cluster_name;
      event.frontier_vertices = out.frontier_vertices;
      event.frontier_edges = out.frontier_edges;
      event.bu_edges_hit = out.bu_edges_hit;
      event.bu_edges_miss = out.bu_edges_miss;
      event.next_vertices = out.next_vertices;
      event.compute_seconds = out.compute_seconds;
      event.comm_seconds = out.comm_seconds;
      event.balance = out.balance;
      opts.sink->on_level(event);
    }
    run.levels.push_back(std::move(out));
  }

  run.seconds = run.compute_seconds + run.comm_seconds;
  run.result = std::move(state).take_result(g);
  core::trace_end_run(opts.sink, std::move(trace), run.result, run.seconds,
                      run.comm_seconds,
                      static_cast<std::int32_t>(run.levels.size()),
                      run.direction_switches);
  return run;
}

}  // namespace bfsx::dist
