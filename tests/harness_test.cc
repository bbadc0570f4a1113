#include "src/experiments/harness.h"

#include <gtest/gtest.h>

#include <string>

#include "src/estimate/estimators.h"
#include "src/experiments/error_vs_cost.h"
#include "src/graph/datasets.h"
#include "src/graph/generators.h"
#include "src/walk/walk_program.h"

namespace mto {
namespace {

SocialNetwork SmallNetwork() {
  Rng rng(42);
  return SocialNetwork::WithSyntheticProfiles(HolmeKim(800, 4, 0.6, rng), 7);
}

TEST(HarnessTest, AttributeValuesComeFromProfiles) {
  std::vector<UserProfile> profiles(3);
  profiles[0].description_length = 55;
  profiles[0].age = 30;
  SocialNetwork net(Path(3), profiles);
  RestrictedInterface iface(net);
  Rng rng(2);
  auto s = GetWalkProgram("srw").MakeWalker(iface, rng, 0, WalkProgramParams{});
  EXPECT_DOUBLE_EQ(AttributeValue(*s, Attribute::kDegree), 1.0);
  EXPECT_DOUBLE_EQ(AttributeValue(*s, Attribute::kDescriptionLength), 55.0);
  EXPECT_DOUBLE_EQ(AttributeValue(*s, Attribute::kAge), 30.0);
}

TEST(HarnessTest, RunProducesSamplesAndTrace) {
  SocialNetwork net = SmallNetwork();
  WalkRunConfig config;
  config.num_samples = 50;
  config.thinning = 5;
  config.max_burn_in_steps = 4000;
  WalkRunResult result = RunAggregateEstimation(net, config, 123);
  EXPECT_EQ(result.samples.size(), 50u);
  EXPECT_FALSE(result.trace.empty());
  EXPECT_GT(result.total_query_cost, 0u);
  EXPECT_GE(result.total_query_cost, result.burn_in_query_cost);
  // Trace query costs are non-decreasing.
  for (size_t i = 1; i < result.trace.size(); ++i) {
    EXPECT_GE(result.trace[i].query_cost, result.trace[i - 1].query_cost);
  }
}

TEST(HarnessTest, DeterministicGivenSeed) {
  SocialNetwork net = SmallNetwork();
  WalkRunConfig config;
  config.num_samples = 30;
  auto a = RunAggregateEstimation(net, config, 77);
  auto b = RunAggregateEstimation(net, config, 77);
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_DOUBLE_EQ(a.final_estimate, b.final_estimate);
  auto c = RunAggregateEstimation(net, config, 78);
  EXPECT_NE(a.samples, c.samples);
}

TEST(HarnessTest, SrwEstimatesAverageDegree) {
  SocialNetwork net = SmallNetwork();
  WalkRunConfig config;
  config.num_samples = 2000;
  config.thinning = 3;
  auto result = RunAggregateEstimation(net, config, 5);
  EXPECT_NEAR(result.final_estimate, net.TrueAverageDegree(),
              net.TrueAverageDegree() * 0.2);
}

TEST(HarnessTest, MtoEstimatesAverageDegree) {
  SocialNetwork net = SmallNetwork();
  WalkRunConfig config;
  config.program = "mto";
  config.num_samples = 2000;
  config.thinning = 3;
  config.mto.weight_mode = OverlayDegreeMode::kExact;
  auto result = RunAggregateEstimation(net, config, 6);
  EXPECT_NEAR(result.final_estimate, net.TrueAverageDegree(),
              net.TrueAverageDegree() * 0.2);
}

TEST(HarnessTest, RestartModeRunsBurnInPerSample) {
  SocialNetwork net = SmallNetwork();
  WalkRunConfig config;
  config.num_samples = 5;
  config.restart_per_sample = true;
  config.max_burn_in_steps = 500;
  auto result = RunAggregateEstimation(net, config, 9);
  // Five burn-ins of up to 500 steps each.
  EXPECT_GT(result.total_steps, result.burn_in_steps);
  EXPECT_EQ(result.samples.size(), 5u);
}

TEST(HarnessTest, EmptyNetworkThrows) {
  SocialNetwork net{Graph()};
  EXPECT_THROW(RunAggregateEstimation(net, WalkRunConfig{}, 1),
               std::invalid_argument);
}

TEST(HarnessTest, UnknownProgramThrows) {
  SocialNetwork net = SmallNetwork();
  WalkRunConfig config;
  config.program = "deepwalk";
  EXPECT_THROW(RunAggregateEstimation(net, config, 1), std::invalid_argument);
}

TEST(HarnessKlTest, SrwKlSmallOnLongRun) {
  Rng rng(11);
  SocialNetwork net(HolmeKim(300, 4, 0.5, rng));
  WalkRunConfig config;
  config.num_samples = 60000;
  config.thinning = 2;
  auto result = RunKlExperiment(net, config, 3);
  EXPECT_GT(result.num_samples, 0u);
  EXPECT_LT(result.symmetrized_kl, 1.0);
  EXPECT_GT(result.query_cost, 0u);
}

TEST(HarnessKlTest, MoreSamplesLowerKl) {
  Rng rng(12);
  SocialNetwork net(HolmeKim(200, 4, 0.5, rng));
  WalkRunConfig short_config;
  short_config.num_samples = 2000;
  short_config.thinning = 2;
  WalkRunConfig long_config = short_config;
  long_config.num_samples = 80000;
  auto short_run = RunKlExperiment(net, short_config, 4);
  auto long_run = RunKlExperiment(net, long_config, 4);
  EXPECT_LT(long_run.symmetrized_kl, short_run.symmetrized_kl);
}

TEST(HarnessKlTest, MtoIdealUsesOverlayDegrees) {
  Rng rng(13);
  SocialNetwork net(HolmeKim(200, 4, 0.6, rng));
  WalkRunConfig config;
  config.program = "mto";
  config.num_samples = 50000;
  config.thinning = 2;
  auto result = RunKlExperiment(net, config, 5);
  EXPECT_LT(result.symmetrized_kl, 1.0);
}

TEST(HarnessKlTest, ProgramWithoutIdealDistributionThrows) {
  // node2vec's stationary law depends on (p, q); there is no closed-form
  // ideal to compare against, so the experiment refuses by name.
  SocialNetwork net(Cycle(8));
  WalkRunConfig config;
  config.program = "node2vec";
  try {
    RunKlExperiment(net, config, 1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("node2vec"), std::string::npos);
  }
}

TEST(ErrorVsCostTest, LastCostAboveError) {
  WalkRunResult run;
  run.trace = {{10, 5.0}, {20, 12.0}, {30, 10.5}, {40, 10.05}};
  // truth = 10: errors are 0.5, 0.2, 0.05, 0.005.
  EXPECT_EQ(LastCostAboveError(run, 10.0, 0.3), 10u);
  EXPECT_EQ(LastCostAboveError(run, 10.0, 0.1), 20u);
  EXPECT_EQ(LastCostAboveError(run, 10.0, 0.01), 30u);
  EXPECT_EQ(LastCostAboveError(run, 10.0, 0.001), 40u);
  EXPECT_EQ(LastCostAboveError(run, 10.0, 0.6), 0u);
}

TEST(ErrorVsCostTest, CurveMonotoneThresholds) {
  SocialNetwork net = SmallNetwork();
  WalkRunConfig config;
  config.num_samples = 300;
  config.thinning = 3;
  std::vector<double> thresholds{0.3, 0.2, 0.1};
  auto curve = MeasureErrorVsCost(net, config, net.TrueAverageDegree(),
                                  thresholds, 4, 1000);
  ASSERT_EQ(curve.mean_query_cost.size(), 3u);
  // Tighter thresholds cannot need fewer queries.
  EXPECT_LE(curve.mean_query_cost[0], curve.mean_query_cost[1] + 1e-9);
  EXPECT_LE(curve.mean_query_cost[1], curve.mean_query_cost[2] + 1e-9);
}

TEST(ErrorVsCostTest, SummarizeRuns) {
  WalkRunResult a, b;
  a.final_estimate = 10.0;
  a.total_query_cost = 100;
  a.burn_in_query_cost = 40;
  a.burn_in_converged = true;
  b.final_estimate = 20.0;
  b.total_query_cost = 200;
  b.burn_in_query_cost = 60;
  b.burn_in_converged = false;
  auto s = SummarizeRuns({a, b});
  EXPECT_DOUBLE_EQ(s.mean_final_estimate, 15.0);
  EXPECT_DOUBLE_EQ(s.mean_total_cost, 150.0);
  EXPECT_DOUBLE_EQ(s.mean_burn_in_cost, 50.0);
  EXPECT_DOUBLE_EQ(s.converged_fraction, 0.5);
  EXPECT_DOUBLE_EQ(SummarizeRuns({}).mean_total_cost, 0.0);
}

}  // namespace
}  // namespace mto
