// Unit tests for 1D vertex partitioning (graph/partition.h).
#include "graph/partition.h"

#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>

#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/rmat.h"

namespace bfsx::graph {
namespace {

CsrGraph rmat_graph(int scale, int edgefactor, std::uint64_t seed = 7) {
  RmatParams p;
  p.scale = scale;
  p.edgefactor = edgefactor;
  p.seed = seed;
  return build_csr(generate_rmat(p));
}

TEST(PartitionStrategyParse, RoundTrips) {
  EXPECT_EQ(parse_partition_strategy("block"), PartitionStrategy::kBlock);
  EXPECT_EQ(parse_partition_strategy("balanced"),
            PartitionStrategy::kDegreeBalanced);
  EXPECT_STREQ(to_string(PartitionStrategy::kBlock), "block");
  EXPECT_STREQ(to_string(PartitionStrategy::kDegreeBalanced), "balanced");
  EXPECT_THROW((void)parse_partition_strategy("hash"), std::invalid_argument);
}

TEST(VertexPartition, BlockSplitsEvenly) {
  const CsrGraph g = build_csr(make_path(10));
  const VertexPartition part =
      partition_vertices(g, 4, PartitionStrategy::kBlock);
  ASSERT_EQ(part.num_parts(), 4);
  // 10 = 3 + 3 + 2 + 2.
  EXPECT_EQ(part.part_size(0), 3);
  EXPECT_EQ(part.part_size(1), 3);
  EXPECT_EQ(part.part_size(2), 2);
  EXPECT_EQ(part.part_size(3), 2);
  EXPECT_EQ(part.begin(0), 0);
  EXPECT_EQ(part.end(3), 10);
}

TEST(VertexPartition, RangesTileAndOwnerAgrees) {
  const CsrGraph g = rmat_graph(10, 8);
  for (const PartitionStrategy s :
       {PartitionStrategy::kBlock, PartitionStrategy::kDegreeBalanced}) {
    for (const int parts : {1, 2, 3, 5, 8}) {
      const VertexPartition part = partition_vertices(g, parts, s);
      ASSERT_EQ(part.num_parts(), parts);
      vid_t covered = 0;
      for (int p = 0; p < parts; ++p) {
        EXPECT_EQ(part.begin(p), covered);
        covered += part.part_size(p);
        for (vid_t v = part.begin(p); v < part.end(p); ++v) {
          ASSERT_EQ(part.owner(v), p);
        }
      }
      EXPECT_EQ(covered, g.num_vertices());
    }
  }
}

TEST(VertexPartition, OwnerRejectsOutOfRange) {
  const CsrGraph g = build_csr(make_path(6));
  const VertexPartition part =
      partition_vertices(g, 2, PartitionStrategy::kBlock);
  EXPECT_THROW((void)part.owner(-1), std::out_of_range);
  EXPECT_THROW((void)part.owner(6), std::out_of_range);
}

TEST(VertexPartition, RejectsBadInputs) {
  const CsrGraph g = build_csr(make_path(6));
  EXPECT_THROW(partition_vertices(g, 0, PartitionStrategy::kBlock),
               std::invalid_argument);
  EXPECT_THROW(VertexPartition({2, 4, 6}, PartitionStrategy::kBlock),
               std::invalid_argument);
  EXPECT_THROW(VertexPartition({0, 4, 2}, PartitionStrategy::kBlock),
               std::invalid_argument);
}

TEST(VertexPartition, MorePartsThanVerticesLeavesEmptyParts) {
  const CsrGraph g = build_csr(make_path(3));
  const VertexPartition part =
      partition_vertices(g, 8, PartitionStrategy::kBlock);
  vid_t total = 0;
  for (int p = 0; p < 8; ++p) total += part.part_size(p);
  EXPECT_EQ(total, 3);
  EXPECT_EQ(part.owner(0), 0);
}

TEST(VertexPartition, DegreeBalancedBeatsBlockOnSkewedGraph) {
  // R-MAT is heavily skewed toward low vertex ids, so equal vertex
  // blocks give the first part most of the edges; degree-balanced
  // boundaries should cut the worst part's edge share substantially.
  const CsrGraph g = rmat_graph(12, 16);
  const int parts = 4;
  const eid_t ideal = g.num_edges() / parts;

  auto worst_edges = [&](PartitionStrategy s) {
    const VertexPartition part = partition_vertices(g, parts, s);
    eid_t worst = 0;
    eid_t total = 0;
    for (int p = 0; p < parts; ++p) {
      const eid_t e = part_out_edges(g, part, p);
      worst = std::max(worst, e);
      total += e;
    }
    EXPECT_EQ(total, g.num_edges());
    return worst;
  };

  const eid_t block = worst_edges(PartitionStrategy::kBlock);
  const eid_t balanced = worst_edges(PartitionStrategy::kDegreeBalanced);
  EXPECT_LT(balanced, block);
  // Within 2x of a perfect cut (boundaries can only fall between rows).
  EXPECT_LE(balanced, 2 * ideal);
}

TEST(LocalSubgraph, RowsMatchGlobalGraph) {
  const CsrGraph g = rmat_graph(9, 8);
  for (const PartitionStrategy s :
       {PartitionStrategy::kBlock, PartitionStrategy::kDegreeBalanced}) {
    const VertexPartition part = partition_vertices(g, 3, s);
    eid_t edges_seen = 0;
    for (int p = 0; p < 3; ++p) {
      const LocalSubgraph sub = extract_subgraph(g, part, p);
      EXPECT_EQ(sub.first, part.begin(p));
      EXPECT_EQ(sub.num_local, part.part_size(p));
      EXPECT_EQ(sub.num_out_edges(), part_out_edges(g, part, p));
      edges_seen += sub.num_out_edges();
      for (vid_t v = part.begin(p); v < part.end(p); ++v) {
        ASSERT_TRUE(sub.owns(v));
        const auto global = g.out_neighbors(v);
        const auto local = sub.out_neighbors(v);
        ASSERT_EQ(local.size(), global.size());
        EXPECT_TRUE(std::equal(local.begin(), local.end(), global.begin()));
      }
      EXPECT_GT(sub.memory_footprint_bytes(), 0u);
    }
    EXPECT_EQ(edges_seen, g.num_edges());
  }
}

TEST(LocalSubgraph, DirectedGraphKeepsDistinctInRows) {
  // Directed path 0->1->2->3->4: out- and in-adjacency differ.
  EdgeList el;
  el.num_vertices = 5;
  for (vid_t v = 0; v + 1 < 5; ++v) el.add(v, v + 1);
  BuildOptions opts;
  opts.symmetrize = false;
  const CsrGraph g = build_directed_csr(std::move(el), opts);
  ASSERT_FALSE(g.is_symmetric());

  const VertexPartition part =
      partition_vertices(g, 2, PartitionStrategy::kBlock);
  for (int p = 0; p < 2; ++p) {
    const LocalSubgraph sub = extract_subgraph(g, part, p);
    EXPECT_FALSE(sub.in_offsets.empty());
    for (vid_t v = part.begin(p); v < part.end(p); ++v) {
      const auto global_in = g.in_neighbors(v);
      const auto local_in = sub.in_neighbors(v);
      ASSERT_EQ(local_in.size(), global_in.size());
      EXPECT_TRUE(
          std::equal(local_in.begin(), local_in.end(), global_in.begin()));
    }
  }
}

TEST(LocalSubgraph, SymmetricGraphSharesOutArraysForInAccess) {
  const CsrGraph g = build_csr(make_star(20));
  const VertexPartition part =
      partition_vertices(g, 2, PartitionStrategy::kBlock);
  const LocalSubgraph sub = extract_subgraph(g, part, 1);
  EXPECT_TRUE(sub.in_offsets.empty());
  for (vid_t v = part.begin(1); v < part.end(1); ++v) {
    const auto in = sub.in_neighbors(v);
    const auto out = sub.out_neighbors(v);
    EXPECT_EQ(in.data(), out.data());
  }
}

TEST(ExtractSubgraph, RejectsBadPart) {
  const CsrGraph g = build_csr(make_path(6));
  const VertexPartition part =
      partition_vertices(g, 2, PartitionStrategy::kBlock);
  EXPECT_THROW(extract_subgraph(g, part, -1), std::out_of_range);
  EXPECT_THROW(extract_subgraph(g, part, 2), std::out_of_range);
}

}  // namespace
}  // namespace bfsx::graph
