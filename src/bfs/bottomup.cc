#include "bfs/bottomup.h"

namespace bfsx::bfs {

BottomUpStats bottom_up_step(const CsrGraph& g, BfsState& state) {
  return bottom_up_step(graph::CsrGraphView(g), state);
}

BottomUpStats bottom_up_probe(const CsrGraph& g, const BfsState& state) {
  return bottom_up_probe(graph::CsrGraphView(g), state);
}

}  // namespace bfsx::bfs
