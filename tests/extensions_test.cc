// Tests for the Section VI extensions: parallel walkers and collision-based
// network-size estimation.

#include <gtest/gtest.h>

#include <cmath>

#include "src/core/mto_sampler.h"
#include "src/estimate/size_estimator.h"
#include "src/graph/datasets.h"
#include "src/graph/generators.h"
#include "src/mcmc/diagnostics.h"
#include "src/walk/parallel_walkers.h"
#include "src/walk/srw.h"

namespace mto {
namespace {

TEST(ParallelWalkersTest, SharedCacheSharesCost) {
  SocialNetwork net(Barbell(6));
  RestrictedInterface iface(net);
  Rng rng(1);
  std::vector<std::unique_ptr<Sampler>> ws;
  for (int i = 0; i < 4; ++i) {
    ws.push_back(std::make_unique<SimpleRandomWalk>(iface, rng, 0));
  }
  ParallelWalkers pool(std::move(ws));
  for (int i = 0; i < 200; ++i) pool.StepAll();
  // Four walkers on a 12-node graph: unique cost stays <= 12 regardless of
  // the 800 total steps — the cache is shared.
  EXPECT_LE(iface.QueryCost(), 12u);
  EXPECT_EQ(pool.size(), 4u);
}

TEST(ParallelWalkersTest, PositionsAndStepOne) {
  SocialNetwork net(Cycle(8));
  RestrictedInterface iface(net);
  Rng rng(2);
  std::vector<std::unique_ptr<Sampler>> ws;
  ws.push_back(std::make_unique<SimpleRandomWalk>(iface, rng, 0));
  ws.push_back(std::make_unique<SimpleRandomWalk>(iface, rng, 4));
  ParallelWalkers pool(std::move(ws));
  auto pos = pool.Positions();
  EXPECT_EQ(pos[0], 0u);
  EXPECT_EQ(pos[1], 4u);
  pool.StepOne(0);
  EXPECT_NE(pool.Positions()[0], pos[0]);
  EXPECT_EQ(pool.Positions()[1], 4u);  // untouched
}

TEST(ParallelWalkersTest, EmptyOrNullThrows) {
  EXPECT_THROW(ParallelWalkers({}), std::invalid_argument);
  std::vector<std::unique_ptr<Sampler>> ws;
  ws.push_back(nullptr);
  EXPECT_THROW(ParallelWalkers(std::move(ws)), std::invalid_argument);
}

TEST(ParallelWalkersTest, MultiChainDiagnosticConverges) {
  // The point of parallel walks: R-hat over per-walker degree traces
  // certifies convergence without a single long chain.
  SocialNetwork net(MakeDataset("epinions_small"));
  RestrictedInterface iface(net);
  Rng rng(3);
  std::vector<std::unique_ptr<Sampler>> ws;
  for (int i = 0; i < 4; ++i) {
    ws.push_back(std::make_unique<MtoSampler>(
        iface, rng, static_cast<NodeId>(rng.UniformInt(net.num_users()))));
  }
  ParallelWalkers pool(std::move(ws));
  MultiChainMonitor monitor(4, 1.15, 100, 25);
  bool converged = false;
  for (int step = 0; step < 4000 && !converged; ++step) {
    for (size_t c = 0; c < pool.size(); ++c) {
      pool.StepOne(c);
      monitor.Add(c, pool.walker(c).CurrentDegreeForDiagnostic());
    }
    converged = monitor.Converged();
  }
  EXPECT_TRUE(converged);
}

TEST(ParallelWalkersTest, CollectGathersWeightedSamples) {
  SocialNetwork net(Star(6));
  RestrictedInterface iface(net);
  Rng rng(4);
  std::vector<std::unique_ptr<Sampler>> ws;
  ws.push_back(std::make_unique<SimpleRandomWalk>(iface, rng, 0));
  ws.push_back(std::make_unique<SimpleRandomWalk>(iface, rng, 1));
  ParallelWalkers pool(std::move(ws));
  std::vector<double> values, weights;
  pool.Collect([](Sampler& s) { return double(s.CurrentDegree()); }, values,
               weights);
  ASSERT_EQ(values.size(), 2u);
  EXPECT_DOUBLE_EQ(values[0], 5.0);   // hub
  EXPECT_DOUBLE_EQ(weights[0], 0.2);  // 1/deg
  EXPECT_DOUBLE_EQ(values[1], 1.0);
}

TEST(SizeEstimatorTest, NotReadyBeforeCollision) {
  SizeEstimator est;
  est.Add(1, 4);
  est.Add(2, 4);
  EXPECT_FALSE(est.Ready());
  EXPECT_THROW(est.Estimate(), std::logic_error);
  est.Add(1, 4);  // collision
  EXPECT_TRUE(est.Ready());
  EXPECT_EQ(est.collisions(), 1u);
}

TEST(SizeEstimatorTest, ZeroDegreeThrows) {
  SizeEstimator est;
  EXPECT_THROW(est.Add(0, 0), std::invalid_argument);
}

TEST(SizeEstimatorTest, RegularGraphReducesToBirthdayProblem) {
  // On a d-regular graph the estimator is n²_samples-ish / (2 C) which is
  // the classical birthday estimator; exact identity: (n·d)(n/d)/(2C).
  SizeEstimator est;
  est.Add(5, 3);
  est.Add(9, 3);
  est.Add(5, 3);
  est.Add(9, 3);
  // collisions = 2, samples = 4: estimate = (4*3)*(4/3)/(2*2) = 4.
  EXPECT_DOUBLE_EQ(est.Estimate(), 4.0);
}

TEST(SizeEstimatorTest, EstimatesNetworkSizeFromSrwSamples) {
  SocialNetwork net(MakeDataset("epinions_small"));
  RestrictedInterface iface(net);
  Rng rng(8);
  SimpleRandomWalk walk(iface, rng, 0);
  for (int i = 0; i < 500; ++i) walk.Step();  // burn-in
  // Katzir's estimator assumes (near-)independent draws from π; thin the
  // walk so consecutive samples decorrelate, otherwise the local revisits
  // inflate the collision count and the size is badly under-estimated.
  SizeEstimator est;
  for (int i = 0; i < 3000; ++i) {
    for (int t = 0; t < 25; ++t) walk.Step();
    est.Add(walk.current(), walk.CurrentDegree());
  }
  ASSERT_TRUE(est.Ready());
  double n_hat = est.Estimate();
  double n_true = static_cast<double>(net.num_users());
  EXPECT_NEAR(n_hat, n_true, n_true * 0.35)
      << "collision estimate " << n_hat << " vs true " << n_true;
}

}  // namespace
}  // namespace mto
