#include "src/graph/builder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "src/graph/generators.h"
#include "src/graph/graph_stats.h"
#include "src/util/rng.h"

namespace mto {
namespace {

TEST(BuilderTest, DeduplicatesAndDropsSelfLoops) {
  GraphBuilder b;
  b.AddEdge(0, 1);
  b.AddEdge(1, 0);  // duplicate in other direction
  b.AddEdge(0, 1);  // duplicate
  b.AddEdge(2, 2);  // self-loop
  Graph g = b.Build();
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(BuilderTest, ReserveNodesKeepsIsolated) {
  GraphBuilder b;
  b.ReserveNodes(10);
  b.AddEdge(0, 1);
  Graph g = b.Build();
  EXPECT_EQ(g.num_nodes(), 10u);
  EXPECT_EQ(g.Degree(9), 0u);
}

TEST(BuilderTest, NodeCountGrowsWithEdges) {
  GraphBuilder b;
  b.AddEdge(3, 7);
  EXPECT_EQ(b.num_nodes(), 8u);
}

TEST(BuilderTest, MutualKeepsOnlyBidirectionalArcs) {
  GraphBuilder b;
  b.AddArc(0, 1);
  b.AddArc(1, 0);  // mutual -> kept
  b.AddArc(1, 2);  // one-way -> dropped
  b.AddArc(3, 2);
  b.AddArc(2, 3);  // mutual -> kept
  Graph g = b.BuildMutual();
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(2, 3));
  EXPECT_FALSE(g.HasEdge(1, 2));
}

TEST(BuilderTest, MutualTreatsUndirectedEdgeAsBothArcs) {
  GraphBuilder b;
  b.AddEdge(0, 1);
  Graph g = b.BuildMutual();
  EXPECT_TRUE(g.HasEdge(0, 1));
}

TEST(BuilderTest, BuildIgnoresArcDirection) {
  GraphBuilder b;
  b.AddArc(0, 1);  // one-way, but Build() is undirected
  Graph g = b.Build();
  EXPECT_TRUE(g.HasEdge(0, 1));
}

TEST(BuilderTest, MutualDuplicateArcsCollapse) {
  GraphBuilder b;
  b.AddArc(0, 1);
  b.AddArc(0, 1);
  b.AddArc(1, 0);
  Graph g = b.BuildMutual();
  EXPECT_EQ(g.num_edges(), 1u);
}

/// A seeded arc list with everything Build must clean up: duplicates, both
/// orientations, self-loops, undirected edges mixed with one-way arcs, and
/// (via ReserveNodes) isolated nodes past the last endpoint.
struct RandomArcs {
  GraphBuilder builder;
  std::vector<Edge> arcs;  // every arc the builder holds, AddEdge as two
  NodeId num_nodes = 0;
};

RandomArcs MakeRandomArcs(uint64_t seed) {
  Rng rng(seed);
  RandomArcs r;
  const NodeId endpoints = 20 + static_cast<NodeId>(rng.UniformInt(60));
  const size_t count = static_cast<size_t>(rng.UniformInt(400));
  for (size_t i = 0; i < count; ++i) {
    const NodeId u = static_cast<NodeId>(rng.UniformInt(endpoints));
    // A small neighbourhood makes repeats and reverse arcs common.
    NodeId v = static_cast<NodeId>(rng.UniformInt(endpoints));
    if (rng.Bernoulli(0.5)) {
      v = (u + static_cast<NodeId>(rng.UniformInt(4))) % endpoints;
    }
    if (rng.Bernoulli(0.3)) {
      r.builder.AddEdge(u, v);
      r.arcs.push_back({u, v});
      r.arcs.push_back({v, u});
    } else {
      r.builder.AddArc(u, v);
      r.arcs.push_back({u, v});
    }
    r.num_nodes = std::max(r.num_nodes, std::max(u, v) + 1);
  }
  if (rng.Bernoulli(0.5)) {
    r.num_nodes += 1 + static_cast<NodeId>(rng.UniformInt(5));
    r.builder.ReserveNodes(r.num_nodes);
  }
  return r;
}

/// The reference undirected build: one global sort and unique.
std::vector<Edge> ReferenceEdges(const std::vector<Edge>& arcs) {
  std::vector<Edge> edges;
  for (const Edge& a : arcs) {
    if (a.u != a.v) edges.push_back(a.Normalized());
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

/// The reference mutual build: a global sort and unique of the directed
/// arcs, then a binary search for each arc's reverse.
std::vector<Edge> ReferenceMutualEdges(const std::vector<Edge>& arcs) {
  std::vector<Edge> sorted;
  for (const Edge& a : arcs) {
    if (a.u != a.v) sorted.push_back(a);
  }
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  std::vector<Edge> edges;
  for (const Edge& a : sorted) {
    if (a.u < a.v &&
        std::binary_search(sorted.begin(), sorted.end(), Edge{a.v, a.u})) {
      edges.push_back(a);
    }
  }
  return edges;
}

/// Everything a Graph exposes of its structure: node count, edge list and
/// each node's neighbour list, so a bucket left unsorted cannot hide.
void ExpectGraphHas(const Graph& g, NodeId num_nodes,
                    const std::vector<Edge>& edges, uint64_t seed) {
  ASSERT_EQ(g.num_nodes(), num_nodes) << "seed " << seed;
  EXPECT_EQ(g.Edges(), edges) << "seed " << seed;
  const Graph reference(num_nodes, edges);
  for (NodeId v = 0; v < num_nodes; ++v) {
    ASSERT_TRUE(std::ranges::equal(g.Neighbors(v), reference.Neighbors(v)))
        << "seed " << seed << " node " << v;
  }
}

TEST(BuilderTest, BuildMatchesAGlobalSortOnRandomArcs) {
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    const RandomArcs r = MakeRandomArcs(seed);
    ASSERT_EQ(r.builder.num_nodes(), r.num_nodes);
    ExpectGraphHas(r.builder.Build(), r.num_nodes, ReferenceEdges(r.arcs),
                   seed);
  }
}

TEST(BuilderTest, BuildMutualMatchesAGlobalSortOnRandomArcs) {
  size_t mutual = 0;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    const RandomArcs r = MakeRandomArcs(seed);
    const std::vector<Edge> expected = ReferenceMutualEdges(r.arcs);
    mutual += expected.size();
    ExpectGraphHas(r.builder.BuildMutual(), r.num_nodes, expected, seed);
  }
  EXPECT_GT(mutual, 0u);  // the lists do exercise the reverse lookup
}

TEST(LargestComponentTest, ConnectedGraphKeepsItsEdgesAndMapsToItself) {
  Rng rng(0xC0FFEE);
  const Graph g = HolmeKim(300, 3, 0.5, rng);
  ASSERT_TRUE(IsConnected(g));
  std::vector<NodeId> mapping(7, 42);  // stale contents must not survive
  const Graph lc = LargestComponent(g, &mapping);
  EXPECT_EQ(lc.num_nodes(), g.num_nodes());
  EXPECT_EQ(lc.Edges(), g.Edges());
  std::vector<NodeId> identity(g.num_nodes());
  std::iota(identity.begin(), identity.end(), NodeId{0});
  EXPECT_EQ(mapping, identity);
}

TEST(LargestComponentTest, DisconnectedGraphIsRelabelledInOrder) {
  GraphBuilder b;
  b.ReserveNodes(9);
  // Small component {0, 4}; large one {1, 3, 5, 7, 8}; 2 and 6 isolated.
  b.AddEdge(4, 0);
  b.AddEdge(1, 5);
  b.AddEdge(5, 8);
  b.AddEdge(8, 3);
  b.AddEdge(3, 1);
  b.AddEdge(7, 5);
  b.AddEdge(1, 8);
  std::vector<NodeId> mapping(2, 42);
  const Graph lc = LargestComponent(b.Build(), &mapping);
  // Kept ids keep their order: 1->0, 3->1, 5->2, 7->3, 8->4.
  const std::vector<NodeId> expected_mapping = {
      kInvalidNode, 0, kInvalidNode, 1, kInvalidNode, 2, kInvalidNode, 3, 4};
  EXPECT_EQ(mapping, expected_mapping);
  EXPECT_EQ(lc.num_nodes(), 5u);
  const std::vector<Edge> expected_edges = {
      {0, 1}, {0, 2}, {0, 4}, {1, 4}, {2, 3}, {2, 4}};
  EXPECT_EQ(lc.Edges(), expected_edges);
}

TEST(LargestComponentTest, ExtractsBiggest) {
  GraphBuilder b;
  // Component A: triangle 0-1-2. Component B: edge 3-4.
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(0, 2);
  b.AddEdge(3, 4);
  std::vector<NodeId> mapping;
  Graph g = LargestComponent(b.Build(), &mapping);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(IsConnected(g));
  ASSERT_EQ(mapping.size(), 5u);
  EXPECT_NE(mapping[0], kInvalidNode);
  EXPECT_EQ(mapping[3], kInvalidNode);
  EXPECT_EQ(mapping[4], kInvalidNode);
}

TEST(LargestComponentTest, ConnectedGraphUnchanged) {
  Graph g = Cycle(6);
  Graph lc = LargestComponent(g);
  EXPECT_EQ(lc.num_nodes(), 6u);
  EXPECT_EQ(lc.num_edges(), 6u);
}

TEST(LargestComponentTest, IsolatedNodesDropped) {
  GraphBuilder b;
  b.ReserveNodes(5);
  b.AddEdge(0, 1);
  Graph lc = LargestComponent(b.Build());
  EXPECT_EQ(lc.num_nodes(), 2u);
}

}  // namespace
}  // namespace mto
