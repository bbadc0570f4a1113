#include "src/graph/datasets.h"

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "src/graph/graph_stats.h"

namespace mto {
namespace {

TEST(DatasetsTest, RegistryListsPaperDatasets) {
  auto infos = ListDatasets();
  ASSERT_GE(infos.size(), 4u);
  EXPECT_EQ(infos[0].name, "epinions");
  EXPECT_EQ(infos[0].paper_nodes, 26588u);
  EXPECT_EQ(infos[0].paper_edges, 100120u);
  EXPECT_NEAR(infos[0].paper_diameter90, 4.8, 1e-9);
}

TEST(DatasetsTest, UnknownNameThrows) {
  EXPECT_THROW(MakeDataset("no-such-dataset"), std::invalid_argument);
  EXPECT_THROW(GetDatasetInfo("no-such-dataset"), std::invalid_argument);
}

TEST(DatasetsTest, SmallVariantsAreConnectedAndClustered) {
  for (const char* name :
       {"epinions_small", "slashdot_b_small", "gplus_small"}) {
    Graph g = MakeDataset(name);
    EXPECT_TRUE(IsConnected(g)) << name;
    EXPECT_GT(g.num_nodes(), 1000u) << name;
    EXPECT_GT(AverageClustering(g), 0.05) << name;
  }
}

TEST(DatasetsTest, SmallVariantDeterministic) {
  Graph a = MakeDataset("epinions_small");
  Graph b = MakeDataset("epinions_small");
  EXPECT_EQ(a.num_nodes(), b.num_nodes());
  EXPECT_EQ(a.Edges(), b.Edges());
}

TEST(DatasetsTest, EpinionsScaleApproximatesTableOne) {
  Graph g = MakeDataset("epinions");
  const DatasetInfo info = GetDatasetInfo("epinions");
  // Node count within 10% (component extraction trims a little), edge count
  // within a factor of 2 — the stand-in matches scale, not exact values.
  EXPECT_GT(g.num_nodes(), info.paper_nodes * 9 / 10);
  EXPECT_LT(g.num_nodes(), info.paper_nodes * 11 / 10);
  EXPECT_GT(g.num_edges(), info.paper_edges / 2);
  EXPECT_LT(g.num_edges(), info.paper_edges * 2);
  EXPECT_TRUE(IsConnected(g));
}

/// FNV-1a over the edge list: each endpoint as 4 little-endian bytes, in
/// `Edges()` order.
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

/// Every registered recipe's exact bytes. The recipes stand in for the
/// paper's Table I graphs, so a generator edit that moves any of them moves
/// every figure and fingerprint built on it; such an edit must update these
/// values deliberately.
const std::map<std::string, uint64_t> kPinnedEdgeListHashes = {
    {"epinions", 0x92282d196489716bULL},
    {"slashdot_a", 0xd8c14ea7876469d3ULL},
    {"slashdot_b", 0xbb7a3e4bc559d63aULL},
    {"gplus", 0x54ef915f6bd4c450ULL},
    {"epinions_small", 0xfc0db372f9db994fULL},
    {"slashdot_a_small", 0xcec481f1fdc92dfcULL},
    {"slashdot_b_small", 0x5288040b79be192bULL},
    {"gplus_small", 0x7e18981feb32b59bULL},
};

/// Checks the pinned hash of every registered small (`*_small`) or every
/// full-size recipe, after checking that every recipe is pinned.
void ExpectPinnedEdgeLists(bool small) {
  const auto infos = ListDatasets();
  ASSERT_EQ(infos.size(), kPinnedEdgeListHashes.size());
  for (const DatasetInfo& info : infos) {
    ASSERT_EQ(kPinnedEdgeListHashes.count(info.name), 1u)
        << info.name << " is not pinned";
    if (info.name.ends_with("_small") != small) continue;
    EXPECT_EQ(EdgeListHash(MakeDataset(info.name)),
              kPinnedEdgeListHashes.at(info.name))
        << info.name;
  }
}

TEST(DatasetsTest, SmallRecipesBuildTheirPinnedEdgeLists) {
  ExpectPinnedEdgeLists(/*small=*/true);
}

/// Builds the full-size graphs (about 0.3 s in Release, 7 s under ASan),
/// so it runs in its own `datasets_test_full` ctest entry, which carries
/// no `slow` label: the PR set checks these bytes too.
TEST(DatasetsTest, DISABLED_FullRecipesBuildTheirPinnedEdgeLists) {
  ExpectPinnedEdgeLists(/*small=*/false);
}

}  // namespace
}  // namespace mto
