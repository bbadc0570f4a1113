#include "src/core/mto_sampler.h"

#include <gtest/gtest.h>

#include <optional>

#include "src/estimate/sampling_distribution.h"
#include "src/graph/builder.h"
#include "src/graph/generators.h"
#include "src/graph/graph_stats.h"
#include "src/net/restricted_interface.h"

namespace mto {
namespace {

MtoConfig RemovalOnly() {
  MtoConfig c;
  c.enable_replacement = false;
  return c;
}

TEST(MtoSamplerTest, NameAndConfig) {
  SocialNetwork net(Cycle(5));
  RestrictedInterface iface(net);
  Rng rng(1);
  MtoSampler mto(iface, rng, 0);
  EXPECT_EQ(mto.name(), "MTO");
  EXPECT_TRUE(mto.config().enable_removal);
}

TEST(MtoSamplerTest, BadConfigThrows) {
  SocialNetwork net(Cycle(5));
  RestrictedInterface iface(net);
  Rng rng(1);
  MtoConfig bad;
  bad.replace_probability = 2.0;
  EXPECT_THROW(MtoSampler(iface, rng, 0, bad), std::invalid_argument);
  MtoConfig bad2;
  bad2.max_inner_iterations = 0;
  EXPECT_THROW(MtoSampler(iface, rng, 0, bad2), std::invalid_argument);
}

TEST(MtoSamplerTest, WalkStaysInsideOverlay) {
  SocialNetwork net(Barbell(6));
  RestrictedInterface iface(net);
  Rng rng(2);
  MtoSampler mto(iface, rng, 0);
  for (int i = 0; i < 500; ++i) {
    NodeId prev = mto.current();
    NodeId next = mto.Step();
    if (next != prev) {
      EXPECT_TRUE(mto.overlay().HasEdge(next, prev))
          << prev << " -> " << next;
    }
  }
}

TEST(MtoSamplerTest, RemovesCliqueEdgesOnBarbell) {
  SocialNetwork net(Barbell(11));
  RestrictedInterface iface(net);
  Rng rng(3);
  MtoSampler mto(iface, rng, 0, RemovalOnly());
  for (int i = 0; i < 3000; ++i) mto.Step();
  // The paper's running example: dense intra-clique edges are provably
  // non-cross-cutting and get removed until shrinking degrees and common-
  // neighbor counts block the criterion (~20 of the 110 clique edges; the
  // fixpoint is order-dependent, see EXPERIMENTS.md "Running example").
  EXPECT_GT(mto.overlay().num_removed(), 10u);
  // The bridge edge (10, 11) must never be removed: its endpoints share no
  // neighbors.
  if (mto.overlay().IsRegistered(10)) {
    EXPECT_TRUE(mto.overlay().HasEdge(10, 11));
  }
}

TEST(MtoSamplerTest, NeverDisconnectsOverlayOnBarbell) {
  SocialNetwork net(Barbell(8));
  RestrictedInterface iface(net);
  Rng rng(4);
  MtoSampler mto(iface, rng, 0);
  for (int i = 0; i < 5000; ++i) mto.Step();
  // Materialize the overlay over visited nodes; the walk must have been able
  // to reach both cliques (bridge preserved).
  std::vector<NodeId> mapping;
  Graph overlay = mto.overlay().InducedOverlay(&mapping);
  EXPECT_EQ(overlay.num_nodes(), 16u);  // all nodes visited
  EXPECT_TRUE(IsConnected(overlay));
}

TEST(MtoSamplerTest, OverlayDegreeDiagnosticReflectsRemovals) {
  SocialNetwork net(Complete(8));
  RestrictedInterface iface(net);
  Rng rng(5);
  MtoSampler mto(iface, rng, 0, RemovalOnly());
  double before = mto.CurrentDegreeForDiagnostic();
  EXPECT_DOUBLE_EQ(before, 7.0);
  for (int i = 0; i < 500; ++i) mto.Step();
  // Removals happened, so some node's diagnostic degree dropped.
  EXPECT_GT(mto.overlay().num_removed(), 0u);
}

TEST(MtoSamplerTest, ReplacementOnlyOnDegreeThree) {
  // Cycle has all degrees 2: replacement never applies, removal never fires
  // (no common neighbors) -> overlay stays identical to the original.
  SocialNetwork net(Cycle(12));
  RestrictedInterface iface(net);
  Rng rng(6);
  MtoSampler mto(iface, rng, 0);
  for (int i = 0; i < 1000; ++i) mto.Step();
  EXPECT_EQ(mto.overlay().num_removed(), 0u);
  EXPECT_EQ(mto.overlay().num_added(), 0u);
}

TEST(MtoSamplerTest, ReplacementRewiresDegreeThreeNeighbors) {
  // Star-of-triangles: build a graph with plenty of degree-3 nodes.
  Rng grng(7);
  Graph g = WattsStrogatz(60, 1, 0.0, grng);  // ring, all degree 2
  GraphBuilder b;
  for (const Edge& e : g.Edges()) b.AddEdge(e.u, e.v);
  // Chords every 4 nodes create degree-3 nodes.
  for (NodeId v = 0; v < 60; v += 4) b.AddEdge(v, (v + 2) % 60);
  SocialNetwork net(b.Build());
  RestrictedInterface iface(net);
  Rng rng(8);
  MtoConfig config;
  config.enable_removal = false;  // isolate the replacement rule
  config.replace_probability = 1.0;
  MtoSampler mto(iface, rng, 0, config);
  for (int i = 0; i < 4000; ++i) mto.Step();
  EXPECT_GT(mto.overlay().num_added(), 0u);
  EXPECT_EQ(mto.overlay().num_added(), mto.overlay().num_removed());
}

TEST(MtoSamplerTest, DisabledRulesKeepOriginalTopology) {
  SocialNetwork net(Barbell(7));
  RestrictedInterface iface(net);
  Rng rng(9);
  MtoConfig config;
  config.enable_removal = false;
  config.enable_replacement = false;
  MtoSampler mto(iface, rng, 0, config);
  for (int i = 0; i < 2000; ++i) mto.Step();
  EXPECT_EQ(mto.overlay().num_removed(), 0u);
  EXPECT_EQ(mto.overlay().num_added(), 0u);
}

TEST(MtoSamplerTest, ImportanceWeightExactModeMatchesOverlayDegree) {
  SocialNetwork net(Complete(10));
  RestrictedInterface iface(net);
  Rng rng(10);
  MtoConfig config = RemovalOnly();
  config.weight_mode = OverlayDegreeMode::kExact;
  MtoSampler mto(iface, rng, 0, config);
  double w = mto.ImportanceWeight();
  // After exact classification the weight is 1/k* for the current node.
  EXPECT_DOUBLE_EQ(w, 1.0 / mto.overlay().Degree(mto.current()));
}

TEST(MtoSamplerTest, ProbedWeightWithinPlausibleRange) {
  Rng grng(11);
  Graph g = HolmeKim(400, 5, 0.7, grng);
  SocialNetwork net(std::move(g));
  RestrictedInterface iface(net);
  Rng rng(12);
  MtoConfig config = RemovalOnly();
  config.weight_mode = OverlayDegreeMode::kProbe;
  config.degree_probe = 4;
  MtoSampler mto(iface, rng, 0, config);
  for (int i = 0; i < 50; ++i) mto.Step();
  double w = mto.ImportanceWeight();
  EXPECT_GT(w, 0.0);
  EXPECT_LE(w, 1.0);
}

TEST(MtoSamplerTest, BudgetExhaustionFreezesWalk) {
  SocialNetwork net(Complete(30));
  RestrictedInterface iface(net);
  iface.SetBudget(5);
  Rng rng(13);
  MtoSampler mto(iface, rng, 0);
  for (int i = 0; i < 200; ++i) mto.Step();
  EXPECT_EQ(iface.QueryCost(), 5u);
}

TEST(MtoSamplerTest, PeekConsumesNoDrawsAndNamesTheOpeningPick) {
  SocialNetwork net(Barbell(6));
  RestrictedInterface iface(net);
  Rng rng(21);
  MtoSampler mto(iface, rng, 0);
  // An uncached start is announced as itself and records no speculation.
  EXPECT_EQ(mto.PeekStep(), std::optional<NodeId>(0));
  mto.Step();  // register the current position
  EXPECT_EQ(mto.speculative_commits(), 0u);
  const auto state_before = rng.SaveState();
  auto peek = mto.PeekStep();
  ASSERT_TRUE(peek.has_value());
  EXPECT_EQ(rng.SaveState(), state_before);  // peeked, not consumed
  // The peek is exactly the pick the step opens with: an overlay edge of
  // the current node, scored by the next Step().
  EXPECT_TRUE(mto.overlay().HasEdge(mto.current(), *peek));
  mto.Step();
  EXPECT_EQ(mto.speculative_commits(), 1u);
}

TEST(MtoSamplerTest, SpeculativeMissStormStaysCorrect) {
  // A dense clique pair is a worst case for speculation: early steps
  // classify (and often remove) nearly every picked edge, invalidating the
  // peeked pick over and over. Misses must be counted and the trajectory
  // must still match the sequential path exactly (walk_program_test's
  // twin test); here we pin that misses actually occur and hits never
  // exceed commits.
  SocialNetwork net(Barbell(11));
  RestrictedInterface iface(net);
  Rng rng(23);
  MtoSampler mto(iface, rng, 0, RemovalOnly());
  for (int i = 0; i < 2000; ++i) {
    if (auto peek = mto.PeekStep()) iface.QueryRef(*peek);
    mto.Step();
  }
  EXPECT_GT(mto.overlay().num_removed(), 10u);  // the storm happened
  EXPECT_GT(mto.speculative_commits(), 0u);
  EXPECT_LT(mto.speculation_hits(), mto.speculative_commits());
  EXPECT_GT(mto.speculation_hits(), 0u);
}

TEST(MtoSamplerTest, OverlaySnapshotRestoreRoundTripsBitIdentically) {
  SocialNetwork net(Barbell(9));
  RestrictedInterface iface(net);
  Rng rng(24);
  MtoSampler original(iface, rng, 0);
  for (int i = 0; i < 1500; ++i) original.Step();

  // Checkpoint: overlay delta + position + RNG state (the service's
  // per-walker image).
  const OverlayGraph::Delta delta = original.SnapshotOverlay();
  EXPECT_FALSE(delta.registered.empty());
  EXPECT_FALSE(delta.removed.empty());
  const NodeId position = original.current();
  const auto rng_state = rng.SaveState();

  // Resume into a fresh sampler over a fresh session (cache replayed the
  // way RestoreSession would: every registered node was once queried).
  RestrictedInterface iface2(net);
  for (NodeId v = 0; v < net.num_users(); ++v) {
    if (iface.IsCached(v)) iface2.QueryRef(v);
  }
  Rng rng2(999);  // arbitrary; overwritten by the restore
  MtoSampler resumed(iface2, rng2, 0);
  resumed.Teleport(position);
  rng2.RestoreState(rng_state);
  resumed.RestoreOverlay(
      delta, [&net](NodeId v) { return net.graph().Neighbors(v); },
      original.frozen());

  // The restored overlay is the original, bit for bit.
  for (NodeId v : delta.registered) {
    ASSERT_TRUE(resumed.overlay().IsRegistered(v));
    const auto resumed_nbrs = resumed.overlay().Neighbors(v);
    const auto original_nbrs = original.overlay().Neighbors(v);
    EXPECT_EQ(std::vector<NodeId>(resumed_nbrs.begin(), resumed_nbrs.end()),
              std::vector<NodeId>(original_nbrs.begin(), original_nbrs.end()))
        << "node " << v;
  }
  EXPECT_EQ(resumed.overlay().num_removed(), original.overlay().num_removed());
  EXPECT_EQ(resumed.overlay().num_added(), original.overlay().num_added());

  // And the continuation is the same walk.
  for (int i = 0; i < 1500; ++i) {
    ASSERT_EQ(original.Step(), resumed.Step()) << "resumed step " << i;
  }
  EXPECT_EQ(iface.QueryCost(), iface2.QueryCost());
}

TEST(MtoSamplerTest, StationaryDistributionMatchesOverlayDegrees) {
  // Long MTO walk on a small graph: empirical visit frequency must match
  // k*_v / 2|E*| of the final overlay (the walk IS an SRW on G*).
  SocialNetwork net(Barbell(5));
  RestrictedInterface iface(net);
  Rng rng(14);
  MtoConfig config = RemovalOnly();
  config.lazy = false;
  MtoSampler mto(iface, rng, 0, config);
  // Warm-up: let the topology converge first (classification is one-shot).
  for (int i = 0; i < 20000; ++i) mto.Step();
  EmpiricalDistribution dist(net.num_users());
  for (int i = 0; i < 400000; ++i) {
    mto.Step();
    dist.Record(mto.current());
  }
  std::vector<NodeId> mapping;
  Graph overlay = mto.overlay().InducedOverlay(&mapping);
  ASSERT_EQ(overlay.num_nodes(), net.num_users());
  auto ideal_overlay = IdealDegreeDistribution(overlay);
  auto p = dist.Probabilities();
  for (NodeId i = 0; i < overlay.num_nodes(); ++i) {
    EXPECT_NEAR(p[mapping[i]], ideal_overlay[i], 0.015)
        << "overlay node " << i << " (original " << mapping[i] << ")";
  }
}

}  // namespace
}  // namespace mto
