#include "bfs/topdown.h"

namespace bfsx::bfs {

TopDownStats top_down_step(const CsrGraph& g, BfsState& state) {
  return top_down_step(graph::CsrGraphView(g), state);
}

}  // namespace bfsx::bfs
