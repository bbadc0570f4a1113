#include "src/graph/generators.h"

#include <gtest/gtest.h>

#include <cmath>

#include "src/graph/graph_stats.h"

namespace mto {
namespace {

TEST(GeneratorsTest, BarbellStructure) {
  Graph g = Barbell(5);
  EXPECT_EQ(g.num_nodes(), 10u);
  EXPECT_EQ(g.num_edges(), 2u * 10u + 1u);  // 2*C(5,2)+1
  EXPECT_TRUE(IsConnected(g));
  EXPECT_TRUE(g.HasEdge(4, 5));   // bridge
  EXPECT_FALSE(g.HasEdge(0, 9));  // across cliques
}

TEST(GeneratorsTest, BarbellTooSmallThrows) {
  EXPECT_THROW(Barbell(1), std::invalid_argument);
}

TEST(GeneratorsTest, CompleteGraph) {
  Graph g = Complete(6);
  EXPECT_EQ(g.num_edges(), 15u);
  EXPECT_EQ(g.MinDegree(), 5u);
}

TEST(GeneratorsTest, StarStructure) {
  Graph g = Star(9);
  EXPECT_EQ(g.num_edges(), 8u);
  EXPECT_EQ(g.Degree(0), 8u);
  for (NodeId v = 1; v < 9; ++v) EXPECT_EQ(g.Degree(v), 1u);
}

TEST(GeneratorsTest, PathAndCycle) {
  Graph p = Path(5);
  EXPECT_EQ(p.num_edges(), 4u);
  EXPECT_EQ(p.Degree(0), 1u);
  EXPECT_EQ(p.Degree(2), 2u);
  Graph c = Cycle(5);
  EXPECT_EQ(c.num_edges(), 5u);
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(c.Degree(v), 2u);
  EXPECT_THROW(Cycle(2), std::invalid_argument);
}

TEST(GeneratorsTest, GridStructure) {
  Graph g = Grid(3, 4);
  EXPECT_EQ(g.num_nodes(), 12u);
  // Edges: 3*3 horizontal + 2*4 vertical = 17.
  EXPECT_EQ(g.num_edges(), 17u);
  EXPECT_TRUE(IsConnected(g));
  EXPECT_EQ(g.Degree(0), 2u);  // corner
}

TEST(GeneratorsTest, ErdosRenyiEdgeCountNearExpectation) {
  Rng rng(1);
  const NodeId n = 200;
  const double p = 0.05;
  Graph g = ErdosRenyi(n, p, rng);
  const double expected = p * n * (n - 1) / 2.0;
  EXPECT_NEAR(static_cast<double>(g.num_edges()), expected,
              4.0 * std::sqrt(expected));
}

TEST(GeneratorsTest, ErdosRenyiExtremes) {
  Rng rng(2);
  EXPECT_EQ(ErdosRenyi(10, 0.0, rng).num_edges(), 0u);
  EXPECT_EQ(ErdosRenyi(10, 1.0, rng).num_edges(), 45u);
  EXPECT_THROW(ErdosRenyi(10, 1.5, rng), std::invalid_argument);
}

TEST(GeneratorsTest, ErdosRenyiMExactCount) {
  Rng rng(3);
  Graph g = ErdosRenyiM(50, 100, rng);
  EXPECT_EQ(g.num_edges(), 100u);
  EXPECT_THROW(ErdosRenyiM(4, 7, rng), std::invalid_argument);
}

TEST(GeneratorsTest, BarabasiAlbertEdgeCount) {
  Rng rng(4);
  const NodeId n = 300;
  const uint32_t m = 3;
  Graph g = BarabasiAlbert(n, m, rng);
  EXPECT_EQ(g.num_nodes(), n);
  // Seed clique C(m+1,2) plus m edges per remaining node.
  EXPECT_EQ(g.num_edges(), 6u + m * (n - (m + 1)));
  EXPECT_TRUE(IsConnected(g));
  EXPECT_GE(g.MinDegree(), m);
}

TEST(GeneratorsTest, BarabasiAlbertHeavyTail) {
  Rng rng(5);
  Graph g = BarabasiAlbert(2000, 2, rng);
  // Preferential attachment should produce a hub much richer than average.
  EXPECT_GT(g.MaxDegree(), 8u * 2u);
}

TEST(GeneratorsTest, HolmeKimClusteringExceedsBa) {
  Rng rng1(6), rng2(6);
  Graph ba = BarabasiAlbert(1000, 3, rng1);
  Graph hk = HolmeKim(1000, 3, 0.9, rng2);
  EXPECT_GT(AverageClustering(hk), AverageClustering(ba) + 0.05);
}

/// FNV-1a over the edge list: each endpoint as 4 little-endian bytes, in
/// `Edges()` order (the hash datasets_test pins the recipes with).
uint64_t EdgeListHash(const Graph& g) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const Edge& e : g.Edges()) {
    for (NodeId x : {e.u, e.v}) {
      for (int byte = 0; byte < 4; ++byte) {
        hash ^= (x >> (8 * byte)) & 0xFFu;
        hash *= 0x100000001b3ULL;
      }
    }
  }
  return hash;
}

/// HolmeKim's exact bytes. CommunityPowerlaw runs the same process for its
/// cores, so the draw order behind both is pinned here and by the recipes.
TEST(GeneratorsTest, HolmeKimEdgeListIsPinned) {
  Rng rng(7);
  const Graph g = HolmeKim(1000, 3, 0.5, rng);
  EXPECT_EQ(g.num_nodes(), 1000u);
  EXPECT_EQ(g.num_edges(), 2994u);  // the 4-clique, then 3 per new node
  EXPECT_EQ(EdgeListHash(g), 0xcc2b80ffadc00dccULL);
}

TEST(GeneratorsTest, HolmeKimInvalidArgsThrow) {
  Rng rng(7);
  EXPECT_THROW(HolmeKim(10, 0, 0.5, rng), std::invalid_argument);
  EXPECT_THROW(HolmeKim(3, 3, 0.5, rng), std::invalid_argument);
  EXPECT_THROW(HolmeKim(10, 2, 1.5, rng), std::invalid_argument);
}

TEST(GeneratorsTest, WattsStrogatzLatticeWhenBetaZero) {
  Rng rng(8);
  Graph g = WattsStrogatz(20, 2, 0.0, rng);
  EXPECT_EQ(g.num_edges(), 40u);
  for (NodeId v = 0; v < 20; ++v) EXPECT_EQ(g.Degree(v), 4u);
}

TEST(GeneratorsTest, WattsStrogatzRewiringKeepsEdgeCount) {
  Rng rng(9);
  Graph g = WattsStrogatz(100, 3, 0.3, rng);
  EXPECT_EQ(g.num_edges(), 300u);
  EXPECT_THROW(WattsStrogatz(6, 3, 0.1, rng), std::invalid_argument);
}

TEST(GeneratorsTest, SbmDensities) {
  Rng rng(10);
  Graph g = StochasticBlockModel({100, 100}, 0.2, 0.01, rng);
  EXPECT_EQ(g.num_nodes(), 200u);
  size_t within = 0, across = 0;
  for (const Edge& e : g.Edges()) {
    bool same = (e.u < 100) == (e.v < 100);
    (same ? within : across) += 1;
  }
  // Expected within ≈ 2 * 0.2 * C(100,2) = 1980; across ≈ 0.01 * 10000 = 100.
  EXPECT_NEAR(static_cast<double>(within), 1980.0, 200.0);
  EXPECT_NEAR(static_cast<double>(across), 100.0, 50.0);
}

TEST(GeneratorsTest, LatentSpaceHardThresholdMatchesDistances) {
  Rng rng(11);
  LatentSpaceParams params{.n = 80,
                           .a = 4.0,
                           .b = 5.0,
                           .r = 0.7,
                           .alpha = std::numeric_limits<double>::infinity()};
  LatentSpaceGraph lsg = LatentSpace(params, rng);
  ASSERT_EQ(lsg.x.size(), 80u);
  for (NodeId i = 0; i < 80; ++i) {
    for (NodeId j = i + 1; j < 80; ++j) {
      double dx = lsg.x[i] - lsg.x[j];
      double dy = lsg.y[i] - lsg.y[j];
      double d = std::sqrt(dx * dx + dy * dy);
      EXPECT_EQ(lsg.graph.HasEdge(i, j), d < params.r)
          << "pair (" << i << "," << j << ") at distance " << d;
    }
  }
}

TEST(GeneratorsTest, LatentSpaceCoordinatesInBox) {
  Rng rng(12);
  LatentSpaceParams params{.n = 50, .a = 2.0, .b = 3.0, .r = 0.5, .alpha = 4.0};
  LatentSpaceGraph lsg = LatentSpace(params, rng);
  for (NodeId i = 0; i < 50; ++i) {
    EXPECT_GE(lsg.x[i], 0.0);
    EXPECT_LT(lsg.x[i], 2.0);
    EXPECT_GE(lsg.y[i], 0.0);
    EXPECT_LT(lsg.y[i], 3.0);
  }
}

TEST(GeneratorsTest, LatentSpaceSofterAlphaAddsLongEdges) {
  Rng rng1(13), rng2(13);
  LatentSpaceParams hard{.n = 150, .a = 4.0, .b = 5.0, .r = 0.7,
                         .alpha = std::numeric_limits<double>::infinity()};
  LatentSpaceParams soft = hard;
  soft.alpha = 1.0;
  size_t hard_edges = LatentSpace(hard, rng1).graph.num_edges();
  size_t soft_edges = LatentSpace(soft, rng2).graph.num_edges();
  // A soft link function connects far-apart pairs too.
  EXPECT_GT(soft_edges, hard_edges);
}

TEST(GeneratorsTest, CommunityPowerlawConnectedAndClustered) {
  Rng rng(14);
  CommunityPowerlawParams params{.n = 2000, .communities = 8, .m = 4,
                                 .triad_p = 0.7, .cross_fraction = 0.02};
  Graph g = CommunityPowerlaw(params, rng);
  EXPECT_TRUE(IsConnected(g));
  EXPECT_GT(g.num_nodes(), 1500u);  // largest component keeps most nodes
  EXPECT_GT(AverageClustering(g), 0.1);
}

TEST(GeneratorsTest, CommunityPowerlawZeroCommunitiesThrows) {
  Rng rng(15);
  CommunityPowerlawParams params;
  params.communities = 0;
  EXPECT_THROW(CommunityPowerlaw(params, rng), std::invalid_argument);
}

TEST(GeneratorsTest, GeneratorsAreDeterministic) {
  Rng a(77), b(77);
  Graph g1 = HolmeKim(500, 3, 0.5, a);
  Graph g2 = HolmeKim(500, 3, 0.5, b);
  EXPECT_EQ(g1.Edges(), g2.Edges());
}

}  // namespace
}  // namespace mto
