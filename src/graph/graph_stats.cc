#include "graph/graph_stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <deque>
#include <sstream>

#include "graph/bitmap.h"

namespace bfsx::graph {

DegreeStats compute_degree_stats(const CsrGraph& g) {
  DegreeStats s;
  const vid_t n = g.num_vertices();
  if (n == 0) return s;
  s.min = g.out_degree(0);
  double sum = 0.0;
  double sum_sq = 0.0;
  for (vid_t v = 0; v < n; ++v) {
    const eid_t d = g.out_degree(v);
    s.min = std::min(s.min, d);
    s.max = std::max(s.max, d);
    if (d == 0) ++s.isolated;
    const auto dd = static_cast<double>(d);
    sum += dd;
    sum_sq += dd * dd;
  }
  const auto nn = static_cast<double>(n);
  s.mean = sum / nn;
  const double var = std::max(0.0, sum_sq / nn - s.mean * s.mean);
  s.stddev = std::sqrt(var);
  return s;
}

std::vector<vid_t> degree_histogram_log2(const CsrGraph& g) {
  std::vector<vid_t> hist(1, 0);  // hist[0] = degree-0 count
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    const eid_t d = g.out_degree(v);
    std::size_t bucket = 0;
    if (d > 0) {
      bucket = static_cast<std::size_t>(
                   std::bit_width(static_cast<std::uint64_t>(d))) ;
      // degree 1 -> bucket 1, degrees 2..3 -> bucket 2, etc.
    }
    if (bucket >= hist.size()) hist.resize(bucket + 1, 0);
    ++hist[bucket];
  }
  return hist;
}

ComponentStats compute_components(const CsrGraph& g) {
  ComponentStats cs;
  const vid_t n = g.num_vertices();
  if (n == 0) return cs;
  Bitmap visited(static_cast<std::size_t>(n));
  std::deque<vid_t> queue;
  for (vid_t root = 0; root < n; ++root) {
    if (visited.test(static_cast<std::size_t>(root))) continue;
    ++cs.num_components;
    vid_t size = 0;
    visited.set(static_cast<std::size_t>(root));
    queue.push_back(root);
    while (!queue.empty()) {
      const vid_t u = queue.front();
      queue.pop_front();
      ++size;
      // Undirected view: both edge directions connect components.
      for (vid_t w : g.out_neighbors(u)) {
        if (!visited.test(static_cast<std::size_t>(w))) {
          visited.set(static_cast<std::size_t>(w));
          queue.push_back(w);
        }
      }
      for (vid_t w : g.in_neighbors(u)) {
        if (!visited.test(static_cast<std::size_t>(w))) {
          visited.set(static_cast<std::size_t>(w));
          queue.push_back(w);
        }
      }
    }
    if (size > cs.largest_size) {
      cs.largest_size = size;
      cs.largest_representative = root;
    }
  }
  return cs;
}

std::vector<vid_t> sample_roots(const CsrGraph& g, int count,
                                std::uint64_t seed) {
  return sample_view_roots(CsrGraphView(g), count, seed);
}

std::vector<vid_t> top_out_degree_vertices(const CsrGraph& g,
                                            std::size_t k) {
  return top_out_degree_vertices(CsrGraphView(g), k);
}

std::string summarize(const CsrGraph& g) {
  const DegreeStats d = compute_degree_stats(g);
  std::ostringstream os;
  os << "|V|=" << g.num_vertices() << " |E|=" << g.num_edges()
     << " deg[min=" << d.min << " max=" << d.max << " mean=" << d.mean
     << " sd=" << d.stddev << "] isolated=" << d.isolated;
  return os.str();
}

}  // namespace bfsx::graph
