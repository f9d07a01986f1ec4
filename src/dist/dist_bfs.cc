#include "dist/dist_bfs.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/traversal.h"

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

/// The BSP cluster as the loop's clock. Each superstep counts the
/// per-device work on the state before the step, charges the counter
/// allreduce and the frontier exchange, runs the level on the one
/// authoritative state, and takes the slowest device as the barrier.
/// Every superstep's per-device record lands in `levels`.
class SuperstepClock {
 public:
  SuperstepClock(const graph::CsrGraph& g, const sim::Cluster& cluster,
                 const graph::VertexPartition& part,
                 const std::vector<graph::LocalSubgraph>& subs,
                 std::vector<DistLevelOutcome>& levels)
      : cluster_(cluster),
        part_(part),
        subs_(subs),
        levels_(levels),
        name_("cluster[" + std::to_string(cluster.num_devices()) + "]"),
        sent_marks_(cluster.num_devices()) {
    sent_scratch_.reserve(cluster.num_devices());
    for (std::size_t d = 0; d < cluster.num_devices(); ++d) {
      sent_scratch_.emplace_back(static_cast<std::size_t>(g.num_vertices()));
    }
  }

  core::Charge operator()(const graph::CsrGraph& g, bfs::BfsState& state,
                          const bfs::Frontier& f, bfs::Decision d) {
    const std::size_t p = cluster_.num_devices();
    DistLevelOutcome out;
    out.level = f.level;
    out.direction = d.direction;
    out.frontier_vertices = f.vertices;
    out.frontier_edges = f.edges;
    // Superstep step 1: the counters were allreduced to take the
    // global branch.
    out.comm_seconds += cluster_.allreduce_seconds(kCounterBytes);
    out.device_compute_seconds.assign(p, 0.0);
    if (d.direction == bfs::Direction::kTopDown) {
      const TopDownCount count =
          count_top_down(subs_, part_, state, sent_scratch_, sent_marks_);
      for (std::size_t i = 0; i < p; ++i) {
        out.device_compute_seconds[i] =
            cluster_.device(i).top_down_cost(count.frontier_edges[i]);
      }
      // Step 2a: ship remote discoveries to their owners.
      out.comm_seconds += cluster_.exchange_seconds(count.pair_bytes);
    } else {
      // Step 2b: allgather the frontier bitmap (each device ships its
      // owned slice), then scan owned candidates against it.
      std::vector<std::size_t> slices(p);
      for (std::size_t i = 0; i < p; ++i) {
        slices[i] = slice_bytes(part_.part_size(static_cast<int>(i)));
      }
      out.comm_seconds += cluster_.exchange_seconds(slices);
      const BottomUpCount count = count_bottom_up(subs_, part_, state);
      for (std::size_t i = 0; i < p; ++i) {
        out.device_compute_seconds[i] = cluster_.device(i).bottom_up_cost(
            part_.part_size(static_cast<int>(i)), count.hit_edges[i],
            count.miss_edges[i]);
        out.bu_edges_hit += count.hit_edges[i];
        out.bu_edges_miss += count.miss_edges[i];
      }
    }
    core::Charge c{bfs::step_level(g, state, f, d.direction), name_};
    out.next_vertices = c.stats.next_vertices;

    // Step 3: the barrier — the slowest device gates the superstep.
    out.compute_seconds =
        *std::max_element(out.device_compute_seconds.begin(),
                          out.device_compute_seconds.end());
    out.balance = balance_of(out.device_compute_seconds);

    c.stats.bu_edges_hit = out.bu_edges_hit;
    c.stats.bu_edges_miss = out.bu_edges_miss;
    c.compute_seconds = out.compute_seconds;
    c.comm_seconds = out.comm_seconds;
    c.balance = out.balance;
    levels_.push_back(std::move(out));
    return c;
  }

 private:
  const sim::Cluster& cluster_;
  const graph::VertexPartition& part_;
  const std::vector<graph::LocalSubgraph>& subs_;
  std::vector<DistLevelOutcome>& levels_;
  std::string name_;
  std::vector<graph::Bitmap> sent_scratch_;
  std::vector<std::vector<vid_t>> sent_marks_;
};

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

  core::Traversal t = core::run_traversal(
      g, root, "dist", opts.policy,
      SuperstepClock(g, cluster, part, subs, run.levels), opts.sink);
  run.result = std::move(t.result);
  run.seconds = t.seconds;
  run.comm_seconds = t.comm_seconds;
  run.direction_switches = t.direction_switches;
  for (const DistLevelOutcome& level : run.levels) {
    run.compute_seconds += level.compute_seconds;
  }
  return run;
}

}  // namespace bfsx::dist
