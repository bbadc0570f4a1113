// End-to-end tests tying the whole pipeline together, anchored on the
// paper's running example (Sections II-E, III-B, III-C).

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "src/core/full_overlay.h"
#include "src/core/mto_sampler.h"
#include "src/experiments/error_vs_cost.h"
#include "src/experiments/harness.h"
#include "src/graph/builder.h"
#include "src/graph/datasets.h"
#include "src/graph/generators.h"
#include "src/graph/graph_stats.h"
#include "src/graph/io.h"
#include "src/spectral/conductance.h"
#include "src/spectral/eigen.h"
#include "src/spectral/mixing.h"

namespace mto {
namespace {

TEST(RunningExampleTest, OriginalConductanceMatchesPaper) {
  Graph g = Barbell(11);
  // Φ(G) = 1/(C(11,2)+1) = 1/56 ≈ 0.018 (paper Section II-D).
  EXPECT_NEAR(ExactConductance(g), 0.018, 0.0005);
}

TEST(RunningExampleTest, RemovalThenReplacementIncreasesConductance) {
  Graph g = Barbell(11);
  const double phi0 = ExactConductance(g);

  MtoConfig removal_only;
  removal_only.enable_replacement = false;
  Rng rng1(1);
  auto removed = BuildFullOverlay(g, removal_only, rng1);
  const double phi1 = ExactConductance(removed.overlay);
  EXPECT_GT(phi1, phi0);

  MtoConfig both;
  both.replace_probability = 1.0;
  Rng rng2(2);
  auto rewired = BuildFullOverlay(g, both, rng2);
  const double phi2 = ExactConductance(rewired.overlay);
  // Replacement rarely triggers on the barbell (no overlay node settles at
  // degree 3 under this sweep order), so the combined gain is dominated by
  // removals. The paper's illustrative Fig-1 overlay reaches 0.053/0.105;
  // our algorithmic fixpoint reaches ~0.022 — same direction, smaller
  // magnitude (see EXPERIMENTS.md "Running example").
  EXPECT_GT(phi2, phi0 * 1.1);
}

TEST(RunningExampleTest, MixingBoundShrinksLikePaper) {
  // Paper: removal alone reduces the mixing-time bound to ~0.115x.
  Graph g = Barbell(11);
  const double phi0 = ExactConductance(g);
  MtoConfig removal_only;
  removal_only.enable_replacement = false;
  Rng rng(3);
  auto removed = BuildFullOverlay(g, removal_only, rng);
  const double phi1 = ExactConductance(removed.overlay);
  const double ratio = MixingTimeUpperBoundCoefficient(phi1) /
                       MixingTimeUpperBoundCoefficient(phi0);
  // Measured fixpoint: Φ 0.0179 -> 0.0227, bound ratio ~0.62 (the paper's
  // hand-constructed overlay reaches 0.115; see EXPERIMENTS.md).
  EXPECT_LT(ratio, 0.75);
}

TEST(RunningExampleTest, SlemMixingTimeDropsOnOverlay) {
  Graph g = Barbell(11);
  const double t0 = MixingTimeFromSlem(Slem(g, {.laziness = 0.5}));
  MtoConfig config;
  Rng rng(4);
  auto overlay = BuildFullOverlay(g, config, rng);
  ASSERT_TRUE(IsConnected(overlay.overlay));
  const double t1 =
      MixingTimeFromSlem(Slem(overlay.overlay, {.laziness = 0.5}));
  // Measured: 128.8 -> ~107 steps (-17%).
  EXPECT_LT(t1, t0 * 0.95);
}

TEST(PipelineTest, AllFourSamplersEstimateDegreeOnDataset) {
  SocialNetwork net =
      SocialNetwork::WithSyntheticProfiles(MakeDataset("epinions_small"), 3);
  const double truth = net.TrueAverageDegree();
  for (const char* program : {"srw", "mhrw", "random_jump", "mto"}) {
    WalkRunConfig config;
    config.program = program;
    config.num_samples = 1500;
    config.thinning = 4;
    config.max_burn_in_steps = 5000;
    auto result = RunAggregateEstimation(net, config, 1234);
    EXPECT_NEAR(result.final_estimate, truth, truth * 0.3) << program;
    EXPECT_EQ(result.samples.size(), 1500u) << program;
  }
}

TEST(PipelineTest, MtoRemovesManyEdgesOnClusteredDataset) {
  SocialNetwork net(MakeDataset("epinions_small"));
  RestrictedInterface iface(net);
  Rng rng(5);
  MtoSampler mto(iface, rng, 0);
  for (int i = 0; i < 20000; ++i) mto.Step();
  // Clustered powerlaw graphs are exactly where Theorem 3 fires a lot.
  EXPECT_GT(mto.overlay().num_removed(), 100u);
}

TEST(PipelineTest, MtoMatchesSrwAccuracyAtFixedBudget) {
  // Under the paper's unique-query accounting (duplicates answered from
  // cache), our measured reproduction finding is parity-or-better for MTO
  // at equal budget, not the paper's dramatic factors (EXPERIMENTS.md,
  // "Sampler comparison"). This test pins the reproducible part: at a fixed
  // budget MTO's mean absolute error is within 25% of SRW's, and both are
  // accurate in absolute terms.
  SocialNetwork net(MakeDataset("slashdot_b_small"));
  const double truth = net.TrueAverageDegree();
  auto mean_error = [&](const char* program) {
    double total = 0.0;
    const int kRuns = 24;
    for (int r = 0; r < kRuns; ++r) {
      WalkRunConfig config;
      config.program = program;
      config.num_samples = 220;  // ~900-1200 unique queries per run
      config.thinning = 4;
      config.max_burn_in_steps = 4000;
      auto run = RunAggregateEstimation(net, config, 300 + 17 * r);
      total += std::abs(run.final_estimate - truth) / truth;
    }
    return total / kRuns;
  };
  const double srw = mean_error("srw");
  const double mto = mean_error("mto");
  EXPECT_LT(mto, srw * 1.25);
  EXPECT_LT(mto, 0.15);
  EXPECT_LT(srw, 0.15);
}

TEST(PipelineTest, DirectedSnapshotToWalkRoundTrip) {
  // Simulate the paper's Epinions pipeline end to end: a directed edge list
  // is converted to its mutual-undirected core, served through the
  // restricted interface, and walked.
  std::ostringstream directed;
  Rng rng(6);
  const NodeId n = 200;
  for (int i = 0; i < 2000; ++i) {
    NodeId u = static_cast<NodeId>(rng.UniformInt(n));
    NodeId v = static_cast<NodeId>(rng.UniformInt(n));
    if (u == v) continue;
    directed << u << " " << v << "\n";
    if (rng.Bernoulli(0.6)) directed << v << " " << u << "\n";  // reciprocate
  }
  std::istringstream in(directed.str());
  Graph g = LargestComponent(ReadDirectedAsMutual(in, /*compact_ids=*/false));
  ASSERT_GT(g.num_edges(), 50u);
  SocialNetwork net(g);
  RestrictedInterface iface(net);
  Rng wrng(7);
  MtoSampler mto(iface, wrng, 0);
  for (int i = 0; i < 500; ++i) mto.Step();
  EXPECT_GT(iface.QueryCost(), 10u);
}

TEST(PipelineTest, GewekeThresholdTradesCostForBias) {
  // Fig 9's mechanism: a looser Geweke threshold burns in faster.
  SocialNetwork net(MakeDataset("slashdot_b_small"));
  WalkRunConfig strict;
  strict.geweke_threshold = 0.05;
  strict.num_samples = 1;
  strict.max_burn_in_steps = 50000;
  WalkRunConfig loose = strict;
  loose.geweke_threshold = 0.8;
  auto strict_run = RunAggregateEstimation(net, strict, 42);
  auto loose_run = RunAggregateEstimation(net, loose, 42);
  EXPECT_LE(loose_run.burn_in_steps, strict_run.burn_in_steps);
}

TEST(PipelineTest, AttributeAggregatesOnGplusStandIn) {
  SocialNetwork net =
      SocialNetwork::WithSyntheticProfiles(MakeDataset("gplus_small"), 8);
  WalkRunConfig config;
  config.program = "mto";
  config.attribute = Attribute::kDescriptionLength;
  config.num_samples = 2500;
  config.thinning = 4;
  auto result = RunAggregateEstimation(net, config, 77);
  const double truth = net.TrueAverageDescriptionLength();
  EXPECT_NEAR(result.final_estimate, truth, truth * 0.35);
}

}  // namespace
}  // namespace mto
