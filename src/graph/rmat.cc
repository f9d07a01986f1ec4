#include "graph/rmat.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "graph/prng.h"

namespace bfsx::graph {

void RmatParams::validate() const {
  if (scale < 1 || scale > 30) {
    throw std::invalid_argument("RmatParams: scale must be in [1, 30]");
  }
  if (edgefactor <= 0) {
    throw std::invalid_argument("RmatParams: edgefactor must be positive");
  }
  if (a <= 0 || b <= 0 || c <= 0 || d <= 0) {
    throw std::invalid_argument("RmatParams: probabilities must be positive");
  }
  if (std::abs(a + b + c + d - 1.0) > 1e-9) {
    throw std::invalid_argument("RmatParams: a+b+c+d must equal 1");
  }
  if (noise < 0 || noise >= 1) {
    throw std::invalid_argument("RmatParams: noise must be in [0, 1)");
  }
}

namespace {

/// One recursive-descent edge draw. At each of `scale` levels, picks one
/// of the four quadrants with (possibly jittered) probabilities and
/// shifts the (row, col) prefix accordingly.
Edge draw_edge(const RmatParams& p, Xoshiro256ss& rng) {
  std::uint64_t row = 0;
  std::uint64_t col = 0;
  double a = p.a;
  double b = p.b;
  double c = p.c;
  for (int level = 0; level < p.scale; ++level) {
    double la = a;
    double lb = b;
    double lc = c;
    if (p.noise > 0) {
      // Jitter each probability by a symmetric factor in
      // [1-noise, 1+noise], then renormalise. This follows the
      // Graph 500 octave generator's smoothing trick.
      la *= 1.0 + p.noise * (2.0 * rng.next_double() - 1.0);
      lb *= 1.0 + p.noise * (2.0 * rng.next_double() - 1.0);
      lc *= 1.0 + p.noise * (2.0 * rng.next_double() - 1.0);
      double ld = (1.0 - a - b - c) *
                  (1.0 + p.noise * (2.0 * rng.next_double() - 1.0));
      const double sum = la + lb + lc + ld;
      la /= sum;
      lb /= sum;
      lc /= sum;
    }
    // r picks top-left below la, top-right below la + lb, bottom-left
    // below la + lb + lc and bottom-right above. The three bits count
    // the bounds r passed (g1 <= g2 <= g3), so the row bit is g2 and the
    // column bit is their parity. Comparisons, not branches: at a = 0.57
    // the first test is nearly a coin flip for a branch predictor.
    const double r = rng.next_double();
    const std::uint64_t g1 = !(r < la);
    const std::uint64_t g2 = !(r < la + lb);
    const std::uint64_t g3 = !(r < la + lb + lc);
    row = (row << 1) | g2;
    col = (col << 1) | (g1 ^ g2 ^ g3);
  }
  return {static_cast<vid_t>(row), static_cast<vid_t>(col)};
}

/// Deterministic Fisher–Yates permutation of [0, n).
std::vector<vid_t> random_permutation(vid_t n, Xoshiro256ss& rng) {
  std::vector<vid_t> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), vid_t{0});
  for (std::size_t i = perm.size(); i > 1; --i) {
    const std::size_t j =
        static_cast<std::size_t>(rng.next_bounded(static_cast<std::uint64_t>(i)));
    std::swap(perm[i - 1], perm[j]);
  }
  return perm;
}

}  // namespace

EdgeList generate_rmat(const RmatParams& params) {
  params.validate();

  EdgeList el;
  el.num_vertices = params.num_vertices();
  const auto m = static_cast<std::size_t>(params.num_edges());
  el.edges.resize(m);

  // Jump-ahead stream table: block k is drawn from the seed stream
  // advanced by k jumps. The table is built serially (a jump costs ~256
  // state transitions, negligible next to kRmatBlockEdges draws), after
  // which every block is independent of every other — the draw order
  // within the list is fixed by the block layout, not by which worker
  // ran which block, so the result is bit-identical for any thread
  // count, including the serial fallback.
  const std::size_t num_blocks = (m + kRmatBlockEdges - 1) / kRmatBlockEdges;
  std::vector<Xoshiro256ss> streams;
  streams.reserve(num_blocks);
  Xoshiro256ss rng(params.seed);
  for (std::size_t b = 0; b < num_blocks; ++b) {
    streams.push_back(rng);
    rng.jump();
  }
  // One more jump reserves a dedicated permutation stream, positioned
  // the same way no matter how many blocks drew edges.
  Xoshiro256ss perm_rng = rng;

#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic)
#endif
  for (std::size_t b = 0; b < num_blocks; ++b) {
    Xoshiro256ss local = streams[b];
    const std::size_t begin = b * kRmatBlockEdges;
    const std::size_t end = std::min(begin + kRmatBlockEdges, m);
    for (std::size_t i = begin; i < end; ++i) {
      el.edges[i] = draw_edge(params, local);
    }
  }

  if (params.permute_vertices) {
    const std::vector<vid_t> perm = random_permutation(el.num_vertices, perm_rng);
    Edge* edges = el.edges.data();
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
#endif
    for (std::size_t i = 0; i < m; ++i) {
      edges[i].src = perm[static_cast<std::size_t>(edges[i].src)];
      edges[i].dst = perm[static_cast<std::size_t>(edges[i].dst)];
    }
  }
  return el;
}

}  // namespace bfsx::graph
