#include "bfs/frontier.h"

namespace bfsx::bfs {

void bitmap_to_queue(const graph::Bitmap& bitmap,
                     std::vector<graph::vid_t>& queue) {
  std::vector<BlockSpan> spans;
  decode_bits(bitmap, /*complement=*/false, queue, spans);
}

graph::eid_t frontier_out_edges(const graph::CsrGraph& g,
                                const std::vector<graph::vid_t>& queue) {
  graph::eid_t total = 0;
  for (graph::vid_t v : queue) total += g.out_degree(v);
  return total;
}

}  // namespace bfsx::bfs
