#include "src/core/overlay_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <map>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/graph/generators.h"
#include "src/graph/graph_stats.h"
#include "src/util/rng.h"

namespace mto {
namespace {

/// Registers every node of `g` into `overlay`.
void RegisterAll(OverlayGraph& overlay, const Graph& g) {
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    overlay.RegisterNode(v, g.Neighbors(v));
  }
}

TEST(OverlayGraphTest, RegistrationMirrorsOriginal) {
  Graph g = Barbell(4);
  OverlayGraph overlay;
  RegisterAll(overlay, g);
  EXPECT_EQ(overlay.num_registered(), g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(overlay.Degree(v), g.Degree(v));
  }
  EXPECT_TRUE(overlay.HasEdge(3, 4));
}

TEST(OverlayGraphTest, UnregisteredAccessThrows) {
  OverlayGraph overlay;
  EXPECT_THROW(overlay.Neighbors(0), std::logic_error);
  EXPECT_FALSE(overlay.IsRegistered(0));
}

TEST(OverlayGraphTest, RegistrationIdempotent) {
  Graph g = Cycle(5);
  OverlayGraph overlay;
  overlay.RegisterNode(0, g.Neighbors(0));
  overlay.RemoveEdge(0, 1);
  overlay.RegisterNode(0, g.Neighbors(0));  // must not resurrect the edge
  EXPECT_FALSE(overlay.HasEdge(0, 1));
}

TEST(OverlayGraphTest, RemoveEdgeSymmetric) {
  Graph g = Complete(4);
  OverlayGraph overlay;
  RegisterAll(overlay, g);
  overlay.RemoveEdge(1, 2);
  EXPECT_FALSE(overlay.HasEdge(1, 2));
  EXPECT_FALSE(overlay.HasEdge(2, 1));
  EXPECT_EQ(overlay.Degree(1), 2u);
  EXPECT_EQ(overlay.Degree(2), 2u);
  EXPECT_EQ(overlay.num_removed(), 1u);
}

TEST(OverlayGraphTest, RemovalAppliesToLaterRegistration) {
  Graph g = Complete(4);
  OverlayGraph overlay;
  overlay.RegisterNode(0, g.Neighbors(0));
  overlay.RemoveEdge(0, 3);  // node 3 not yet registered
  overlay.RegisterNode(3, g.Neighbors(3));
  EXPECT_FALSE(overlay.HasEdge(3, 0));
  EXPECT_EQ(overlay.Degree(3), 2u);
}

TEST(OverlayGraphTest, AddEdgeSymmetricAndSorted) {
  Graph g(4, {{0, 1}, {2, 3}});
  OverlayGraph overlay;
  RegisterAll(overlay, g);
  overlay.AddEdge(0, 3);
  EXPECT_TRUE(overlay.HasEdge(0, 3));
  EXPECT_TRUE(overlay.HasEdge(3, 0));
  const auto& nbrs = overlay.Neighbors(3);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  EXPECT_EQ(overlay.num_added(), 1u);
}

TEST(OverlayGraphTest, AddAppliesToLaterRegistration) {
  Graph g(4, {{0, 1}, {2, 3}});
  OverlayGraph overlay;
  overlay.RegisterNode(0, g.Neighbors(0));
  overlay.AddEdge(0, 2);
  overlay.RegisterNode(2, g.Neighbors(2));
  EXPECT_TRUE(overlay.HasEdge(2, 0));
  EXPECT_EQ(overlay.Degree(2), 2u);
}

TEST(OverlayGraphTest, AddThenRemoveCancels) {
  Graph g(3, {{0, 1}});
  OverlayGraph overlay;
  RegisterAll(overlay, g);
  overlay.AddEdge(0, 2);
  overlay.RemoveEdge(0, 2);
  EXPECT_FALSE(overlay.HasEdge(0, 2));
  EXPECT_EQ(overlay.num_added(), 0u);
  EXPECT_EQ(overlay.num_removed(), 0u);  // cancelled, not recorded twice
}

TEST(OverlayGraphTest, RemoveThenAddCancels) {
  Graph g(3, {{0, 1}});
  OverlayGraph overlay;
  RegisterAll(overlay, g);
  overlay.RemoveEdge(0, 1);
  overlay.AddEdge(0, 1);
  EXPECT_TRUE(overlay.HasEdge(0, 1));
  EXPECT_EQ(overlay.num_removed(), 0u);
}

TEST(OverlayGraphTest, CommonNeighborCountTracksOverlay) {
  Graph g = Complete(5);
  OverlayGraph overlay;
  RegisterAll(overlay, g);
  EXPECT_EQ(CountCommon(overlay.Neighbors(0), overlay.Neighbors(1)), 3u);
  overlay.RemoveEdge(0, 2);  // 2 no longer common to 0 and 1
  EXPECT_EQ(CountCommon(overlay.Neighbors(0), overlay.Neighbors(1)), 2u);
}

TEST(OverlayGraphTest, ProcessedMemoization) {
  OverlayGraph overlay;
  EXPECT_FALSE(overlay.IsProcessed(1, 2));
  overlay.MarkProcessed(2, 1);  // normalized key: order-independent
  EXPECT_TRUE(overlay.IsProcessed(1, 2));
  EXPECT_TRUE(overlay.IsProcessed(2, 1));
}

TEST(OverlayGraphTest, DegreeDeltas) {
  Graph g = Complete(4);
  OverlayGraph overlay;
  RegisterAll(overlay, g);
  overlay.RemoveEdge(0, 1);
  overlay.RemoveEdge(0, 2);
  overlay.AddEdge(1, 2);  // already exists in g... use non-edge instead
  auto deltas = overlay.DegreeDeltas();
  EXPECT_EQ(deltas[0], -2);
  // Node 1: lost (0,1), gained duplicate-add is a no-op only in adjacency;
  // the recorded delta counts it, so compare against overlay degrees.
  for (NodeId v = 0; v < 4; ++v) {
    int expected = static_cast<int>(overlay.Degree(v)) -
                   static_cast<int>(g.Degree(v));
    int got = deltas.count(v) ? deltas[v] : 0;
    EXPECT_EQ(got, expected) << "node " << v;
  }
}

TEST(OverlayGraphTest, InducedOverlayMaterialization) {
  Graph g = Barbell(3);
  OverlayGraph overlay;
  RegisterAll(overlay, g);
  overlay.RemoveEdge(0, 1);
  std::vector<NodeId> mapping;
  Graph induced = overlay.InducedOverlay(&mapping);
  EXPECT_EQ(induced.num_nodes(), g.num_nodes());
  EXPECT_EQ(induced.num_edges(), g.num_edges() - 1);
  ASSERT_EQ(mapping.size(), g.num_nodes());
  EXPECT_FALSE(induced.HasEdge(0, 1));
}

TEST(OverlayGraphTest, InducedOverlayPartialRegistration) {
  Graph g = Complete(5);
  OverlayGraph overlay;
  overlay.RegisterNode(0, g.Neighbors(0));
  overlay.RegisterNode(1, g.Neighbors(1));
  std::vector<NodeId> mapping;
  Graph induced = overlay.InducedOverlay(&mapping);
  // Only nodes 0 and 1 registered; induced graph has their mutual edge.
  EXPECT_EQ(induced.num_nodes(), 2u);
  EXPECT_EQ(induced.num_edges(), 1u);
}

TEST(OverlayGraphTest, UnchangedNodesBorrowTheGraphsLists) {
  Graph g = Complete(5);
  OverlayGraph overlay;
  RegisterAll(overlay, g);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(overlay.Neighbors(v).data(), g.Neighbors(v).data()) << v;
  }
  overlay.RemoveEdge(0, 1);
  overlay.AddEdge(2, 3);  // already an edge: a no-op, so 2 and 3 stay borrowed
  EXPECT_NE(overlay.Neighbors(0).data(), g.Neighbors(0).data());
  EXPECT_NE(overlay.Neighbors(1).data(), g.Neighbors(1).data());
  EXPECT_EQ(overlay.Neighbors(2).data(), g.Neighbors(2).data());
  EXPECT_EQ(overlay.Neighbors(3).data(), g.Neighbors(3).data());

  Graph sparse(4, {{0, 1}, {2, 3}});
  OverlayGraph added;
  RegisterAll(added, sparse);
  added.AddEdge(0, 3);
  EXPECT_NE(added.Neighbors(0).data(), sparse.Neighbors(0).data());
  EXPECT_NE(added.Neighbors(3).data(), sparse.Neighbors(3).data());
  EXPECT_EQ(added.Neighbors(1).data(), sparse.Neighbors(1).data());
}

TEST(OverlayGraphTest, OriginalNeighborsAlwaysAliasTheGraph) {
  Graph g = Complete(5);
  OverlayGraph overlay;
  overlay.RegisterNode(0, g.Neighbors(0));
  overlay.RemoveEdge(0, 1);
  overlay.RemoveEdge(2, 4);  // neither endpoint registered yet
  RegisterAll(overlay, g);
  overlay.AddEdge(1, 3);  // restores nothing: (1, 3) is an edge of g
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(overlay.OriginalNeighbors(v).data(), g.Neighbors(v).data())
        << v;
    EXPECT_EQ(overlay.OriginalDegree(v), g.Degree(v)) << v;
  }
  EXPECT_EQ(overlay.Degree(2), 3u);
  EXPECT_EQ(overlay.Degree(4), 3u);
}

TEST(OverlayGraphTest, RestoredDeltaMatchesIncrementalRegistration) {
  // Additions and removals recorded while an endpoint was unregistered are
  // applied when it registers; a restore installs every record first and
  // then registers in id order. Both must produce the same lists.
  Graph g = Barbell(4);  // cliques {0..3} and {4..7}, bridge (3, 4)
  OverlayGraph incremental;
  incremental.RegisterNode(0, g.Neighbors(0));
  incremental.AddEdge(0, 6);     // 6 registers later
  incremental.RemoveEdge(0, 1);  // 1 registers later
  incremental.RegisterNode(5, g.Neighbors(5));
  incremental.AddEdge(5, 2);  // 2 registers later
  incremental.MarkProcessed(5, 2);
  for (NodeId v : {6u, 2u, 1u, 3u}) {
    incremental.RegisterNode(v, g.Neighbors(v));
  }
  ASSERT_TRUE(incremental.HasEdge(6, 0));
  ASSERT_TRUE(incremental.HasEdge(2, 5));
  ASSERT_FALSE(incremental.HasEdge(1, 0));

  OverlayGraph restored;
  restored.RestoreDelta(incremental.SnapshotDelta(),
                        [&g](NodeId v) { return g.Neighbors(v); });
  EXPECT_EQ(restored.num_registered(), incremental.num_registered());
  EXPECT_EQ(restored.num_added(), 2u);
  EXPECT_EQ(restored.num_removed(), 1u);
  EXPECT_TRUE(restored.IsProcessed(2, 5));
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_EQ(restored.IsRegistered(v), incremental.IsRegistered(v)) << v;
    if (!incremental.IsRegistered(v)) continue;
    const auto want = incremental.Neighbors(v);
    const auto got = restored.Neighbors(v);
    EXPECT_EQ(std::vector<NodeId>(got.begin(), got.end()),
              std::vector<NodeId>(want.begin(), want.end()))
        << v;
    // Unchanged nodes borrow the graph's list on both paths.
    EXPECT_EQ(got.data() == g.Neighbors(v).data(),
              want.data() == g.Neighbors(v).data())
        << v;
  }
  EXPECT_EQ(restored.Neighbors(3).data(), g.Neighbors(3).data());
}

TEST(OverlayGraphTest, AllOnesIdsAndKeysAreOrdinary) {
  // The flat tables mark an empty slot with an all-ones word; a node id or
  // an edge key of that value must behave like any other.
  constexpr NodeId kMax = ~NodeId{0};
  const std::vector<NodeId> max_list{0, 1};
  const std::vector<NodeId> zero_list{kMax};
  auto list_of = [&](NodeId v) {
    return std::span<const NodeId>(v == kMax ? max_list : zero_list);
  };
  OverlayGraph overlay;
  EXPECT_FALSE(overlay.IsRegistered(kMax));
  overlay.RemoveEdge(kMax, 1);  // recorded before kMax registers
  overlay.RegisterNode(kMax, list_of(kMax));
  overlay.RegisterNode(0, list_of(0));
  EXPECT_TRUE(overlay.IsRegistered(kMax));
  EXPECT_EQ(overlay.Degree(kMax), 1u);
  EXPECT_TRUE(overlay.HasEdge(0, kMax));
  EXPECT_FALSE(overlay.IsProcessed(kMax, kMax));
  overlay.MarkProcessed(kMax, kMax);  // the all-ones edge key
  EXPECT_TRUE(overlay.IsProcessed(kMax, kMax));

  const OverlayGraph::Delta delta = overlay.SnapshotDelta();
  EXPECT_EQ(delta.registered, (std::vector<NodeId>{0, kMax}));
  EXPECT_EQ(delta.processed, (std::vector<uint64_t>{~uint64_t{0}}));
  OverlayGraph restored;
  restored.RestoreDelta(delta, list_of);
  EXPECT_EQ(restored.Degree(kMax), 1u);
  EXPECT_TRUE(restored.IsProcessed(kMax, kMax));
  EXPECT_EQ(restored.num_removed(), 1u);
}

/// The overlay's contract on plain ordered containers: the overlay edge set
/// is (original edges \ removed) ∪ added, held as one adjacency set per
/// node whether or not the node is registered.
struct ReferenceOverlay {
  explicit ReferenceOverlay(const Graph& g) : adj(g.num_nodes()) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      adj[v].insert(g.Neighbors(v).begin(), g.Neighbors(v).end());
    }
  }
  static uint64_t Key(NodeId u, NodeId v) {
    if (u > v) std::swap(u, v);
    return (uint64_t{u} << 32) | v;
  }
  void Remove(NodeId u, NodeId v) {
    if (added.erase(Key(u, v)) == 0) removed.insert(Key(u, v));
    adj[u].erase(v);
    adj[v].erase(u);
  }
  void Add(NodeId u, NodeId v) {
    if (removed.erase(Key(u, v)) == 0) added.insert(Key(u, v));
    adj[u].insert(v);
    adj[v].insert(u);
  }
  std::map<NodeId, int> DegreeDeltas() const {
    std::map<NodeId, int> delta;
    for (uint64_t key : removed) {
      --delta[static_cast<NodeId>(key >> 32)];
      --delta[static_cast<NodeId>(key)];
    }
    for (uint64_t key : added) {
      ++delta[static_cast<NodeId>(key >> 32)];
      ++delta[static_cast<NodeId>(key)];
    }
    return delta;
  }

  std::vector<std::set<NodeId>> adj;
  std::set<NodeId> registered;
  std::set<uint64_t> removed, added, processed;
};

template <typename T>
T PickFrom(const std::set<T>& set, Rng& rng) {
  return *std::next(set.begin(),
                    static_cast<std::ptrdiff_t>(rng.UniformInt(set.size())));
}

void ExpectMatches(const OverlayGraph& overlay, const ReferenceOverlay& ref) {
  ASSERT_EQ(overlay.num_registered(), ref.registered.size());
  ASSERT_EQ(overlay.num_removed(), ref.removed.size());
  ASSERT_EQ(overlay.num_added(), ref.added.size());
  for (NodeId v : ref.registered) {
    const auto nbrs = overlay.Neighbors(v);
    ASSERT_TRUE(std::equal(nbrs.begin(), nbrs.end(), ref.adj[v].begin(),
                           ref.adj[v].end()))
        << "node " << v;
  }
  const auto deltas = overlay.DegreeDeltas();
  const std::map<NodeId, int> ordered(deltas.begin(), deltas.end());
  ASSERT_EQ(ordered, ref.DegreeDeltas());
}

/// One seeded random op sequence on a HolmeKim graph of `n` nodes, checked
/// against the reference after every op, then snapshotted and restored.
void RunRandomOps(uint64_t seed, NodeId n, int ops) {
  SCOPED_TRACE("seed " + std::to_string(seed) + " n " + std::to_string(n));
  Rng rng(seed);
  const Graph g = HolmeKim(n, 4, 0.5, rng);
  OverlayGraph overlay;
  ReferenceOverlay ref(g);
  auto random_node = [&] { return static_cast<NodeId>(rng.UniformInt(n)); };
  for (int op = 0; op < ops; ++op) {
    SCOPED_TRACE("op " + std::to_string(op));
    NodeId u = random_node();
    NodeId v = random_node();
    const double r = rng.UniformDouble();
    if (r < 0.12) {  // register a node
      overlay.RegisterNode(u, g.Neighbors(u));
      ref.registered.insert(u);
    } else if (r < 0.37) {  // remove a present edge
      if (ref.adj[u].empty()) continue;
      v = PickFrom(ref.adj[u], rng);
      overlay.RemoveEdge(u, v);
      ref.Remove(u, v);
    } else if (r < 0.52) {  // add a missing edge
      if (u == v || ref.adj[u].count(v) != 0) continue;
      overlay.AddEdge(u, v);
      ref.Add(u, v);
    } else if (r < 0.62) {  // cancel a removal
      if (ref.removed.empty()) continue;
      const uint64_t key = PickFrom(ref.removed, rng);
      u = static_cast<NodeId>(key >> 32);
      v = static_cast<NodeId>(key);
      overlay.AddEdge(v, u);
      ref.Add(u, v);
    } else if (r < 0.72) {  // cancel an addition
      if (ref.added.empty()) continue;
      const uint64_t key = PickFrom(ref.added, rng);
      u = static_cast<NodeId>(key >> 32);
      v = static_cast<NodeId>(key);
      overlay.RemoveEdge(v, u);
      ref.Remove(u, v);
    } else if (r < 0.77) {  // re-add a present edge: a no-op
      if (ref.adj[u].empty() || ref.registered.count(u) == 0) continue;
      v = PickFrom(ref.adj[u], rng);
      overlay.AddEdge(u, v);
    } else {  // classify an arbitrary pair
      overlay.MarkProcessed(u, v);
      ref.processed.insert(ReferenceOverlay::Key(u, v));
    }
    ASSERT_NO_FATAL_FAILURE(ExpectMatches(overlay, ref));
    for (auto [a, b] : {std::pair{u, v}, std::pair{v, u},
                        std::pair{u, random_node()}}) {
      ASSERT_EQ(overlay.IsProcessed(a, b),
                ref.processed.count(ReferenceOverlay::Key(a, b)) != 0);
      if (ref.registered.count(a) != 0) {
        ASSERT_EQ(overlay.HasEdge(a, b), ref.adj[a].count(b) != 0);
      }
    }
  }

  const OverlayGraph::Delta delta = overlay.SnapshotDelta();
  EXPECT_EQ(delta.registered, std::vector<NodeId>(ref.registered.begin(),
                                                  ref.registered.end()));
  EXPECT_EQ(delta.removed,
            std::vector<uint64_t>(ref.removed.begin(), ref.removed.end()));
  EXPECT_EQ(delta.added,
            std::vector<uint64_t>(ref.added.begin(), ref.added.end()));
  EXPECT_EQ(delta.processed, std::vector<uint64_t>(ref.processed.begin(),
                                                   ref.processed.end()));
  OverlayGraph restored;
  restored.RestoreDelta(delta, [&g](NodeId x) { return g.Neighbors(x); });
  ASSERT_NO_FATAL_FAILURE(ExpectMatches(restored, ref));
  for (uint64_t key : ref.processed) {
    ASSERT_TRUE(restored.IsProcessed(static_cast<NodeId>(key),
                                     static_cast<NodeId>(key >> 32)));
  }
  // Registering the rest after the restore still applies every record.
  for (NodeId x = 0; x < n; ++x) {
    restored.RegisterNode(x, g.Neighbors(x));
    ref.registered.insert(x);
  }
  ASSERT_NO_FATAL_FAILURE(ExpectMatches(restored, ref));
}

TEST(OverlayGraphTest, RandomOpsMatchReferenceModel) {
  // Seeded random op sequences against the reference: registrations in
  // random order (many after their edges were rewired), removals, additions,
  // remove/add cancellations in both directions, and classification marks.
  // The long runs end with about 400 removals and 700 marks, so those
  // tables grow six or seven times from 16 slots. The many short runs keep
  // the tables small, where a probe run often wraps past the end, so
  // cancellations erase from wrapped runs: an erase that does not shift
  // entries back across the end of the array fails here.
  for (uint64_t seed = 1; seed <= 2; ++seed) {
    ASSERT_NO_FATAL_FAILURE(RunRandomOps(seed, 500, 3000));
  }
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    ASSERT_NO_FATAL_FAILURE(RunRandomOps(seed, 60, 400));
  }
}

}  // namespace
}  // namespace mto
