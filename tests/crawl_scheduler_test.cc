#include "src/runtime/crawl_scheduler.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/core/mto_sampler.h"
#include "src/graph/builder.h"
#include "src/graph/generators.h"
#include "src/net/social_network.h"
#include "src/runtime/concurrent_interface_cache.h"
#include "src/walk/mhrw.h"
#include "src/walk/srw.h"

namespace mto {
namespace {

constexpr uint64_t kSeed = 0xDECAF;

Graph TestGraph() {
  Rng rng(99);
  return LargestComponent(HolmeKim(400, 3, 0.5, rng));
}

struct CrawlResult {
  std::vector<NodeId> positions;
  std::vector<double> diagnostics;
  uint64_t query_cost = 0;
  uint64_t backend_requests = 0;
};

template <typename Factory>
CrawlResult RunCrawl(const SocialNetwork& net, const CrawlConfig& config,
             size_t rounds, const Factory& factory,
             size_t max_batch = 16) {
  RestrictedInterface base(net);
  base.SetMaxBatchSize(max_batch);
  ConcurrentInterfaceCache session(base);
  CrawlScheduler scheduler(session, config, kSeed, factory);
  CrawlResult run;
  scheduler.RunRounds(rounds, &run.diagnostics);
  run.positions = scheduler.Positions();
  run.query_cost = session.QueryCost();
  run.backend_requests = session.BackendRequests();
  return run;
}

std::unique_ptr<Sampler> SrwFactory(RestrictedInterface& iface, Rng& rng,
                                    size_t i) {
  return std::make_unique<SimpleRandomWalk>(iface, rng,
                                            static_cast<NodeId>(i));
}

std::unique_ptr<Sampler> MhrwFactory(RestrictedInterface& iface, Rng& rng,
                                     size_t i) {
  return std::make_unique<MetropolisHastingsWalk>(iface, rng,
                                                  static_cast<NodeId>(i));
}

std::unique_ptr<Sampler> MtoFactory(RestrictedInterface& iface, Rng& rng,
                                    size_t i) {
  return std::make_unique<MtoSampler>(iface, rng, static_cast<NodeId>(i));
}

TEST(CrawlSchedulerTest, DeterministicAcrossThreadCounts) {
  SocialNetwork net(TestGraph());
  for (bool coalesce : {false, true}) {
    std::vector<CrawlResult> runs;
    for (size_t threads : {1u, 2u, 8u}) {
      CrawlConfig config{/*num_walkers=*/16, /*num_threads=*/threads,
                         /*coalesce_frontier=*/coalesce};
      runs.push_back(RunCrawl(net, config, 150, SrwFactory));
    }
    EXPECT_EQ(runs[0].positions, runs[1].positions) << "coalesce " << coalesce;
    EXPECT_EQ(runs[1].positions, runs[2].positions) << "coalesce " << coalesce;
    EXPECT_EQ(runs[0].diagnostics, runs[1].diagnostics);
    EXPECT_EQ(runs[1].diagnostics, runs[2].diagnostics);
    EXPECT_EQ(runs[0].query_cost, runs[1].query_cost);
    EXPECT_EQ(runs[1].query_cost, runs[2].query_cost);
  }
}

TEST(CrawlSchedulerTest, CoalescedModeIsBitIdenticalToFreeModeAtEqualCost) {
  SocialNetwork net(TestGraph());
  CrawlConfig free_config{16, 2, /*coalesce_frontier=*/false};
  CrawlConfig batch_config{16, 2, /*coalesce_frontier=*/true};
  CrawlResult free_run = RunCrawl(net, free_config, 150, SrwFactory);
  CrawlResult batch_run = RunCrawl(net, batch_config, 150, SrwFactory);
  EXPECT_EQ(free_run.positions, batch_run.positions);
  EXPECT_EQ(free_run.diagnostics, batch_run.diagnostics);
  // Frontier coalescing only prefetches nodes the commits would query
  // anyway: the paper's unique-query cost is untouched...
  EXPECT_EQ(free_run.query_cost, batch_run.query_cost);
  // ...while the crawl pays for them in far fewer backend round trips.
  EXPECT_LT(batch_run.backend_requests, free_run.backend_requests);
}

TEST(CrawlSchedulerTest, MhrwCoalescedMatchesPlainStepping) {
  SocialNetwork net(TestGraph());
  CrawlConfig free_config{8, 1, false};
  CrawlConfig batch_config{8, 4, true};
  CrawlResult a = RunCrawl(net, free_config, 120, MhrwFactory);
  CrawlResult b = RunCrawl(net, batch_config, 120, MhrwFactory);
  EXPECT_EQ(a.positions, b.positions);
  EXPECT_EQ(a.query_cost, b.query_cost);
}

TEST(CrawlSchedulerTest, MtoSpeculativeSteppingIsBitIdenticalAcrossModes) {
  // MtoSampler steps speculatively: PeekStep names the overlay pick its
  // step opens with (consuming no RNG draws) so the scheduler can prefetch
  // it, and the plain Step() then runs the full rewiring step against the
  // warm cache. Positions, diagnostics, and unique-query cost must be
  // bit-identical across 1/2/8 threads and both stepping modes.
  SocialNetwork net(TestGraph());
  std::vector<CrawlResult> runs;
  for (size_t threads : {1u, 2u, 8u}) {
    for (bool coalesce : {false, true}) {
      CrawlConfig config{8, threads, coalesce};
      runs.push_back(RunCrawl(net, config, 120, MtoFactory));
    }
  }
  for (size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[0].positions, runs[i].positions) << "variant " << i;
    EXPECT_EQ(runs[0].diagnostics, runs[i].diagnostics) << "variant " << i;
    EXPECT_EQ(runs[0].query_cost, runs[i].query_cost) << "variant " << i;
  }
  // Coalescing pays for the same unique queries in fewer round trips: the
  // speculated frontier batches, only re-picks fetch individually.
  const CrawlResult& free_run = runs[0];
  const CrawlResult& coalesced = runs[1];
  EXPECT_LT(coalesced.backend_requests, free_run.backend_requests);
}

TEST(CrawlSchedulerTest, MtoSpeculationMostlyHitsAndMissesAreCounted) {
  SocialNetwork net(TestGraph());
  RestrictedInterface base(net);
  base.SetMaxBatchSize(16);
  ConcurrentInterfaceCache session(base);
  CrawlConfig config{8, 2, /*coalesce_frontier=*/true};
  CrawlScheduler scheduler(session, config, kSeed, MtoFactory);
  scheduler.RunRounds(150);
  uint64_t commits = 0, hits = 0;
  for (size_t i = 0; i < scheduler.size(); ++i) {
    auto& walker = dynamic_cast<MtoSampler&>(scheduler.walker(i));
    commits += walker.speculative_commits();
    hits += walker.speculation_hits();
  }
  // Every round but the first speculates (the first peek names the
  // uncached start node itself, which is no speculation), most
  // speculations hit, and rewiring produces at least some misses on this
  // clustered graph.
  EXPECT_GE(commits, 8u * 149u);
  EXPECT_GT(hits, commits / 2);
  EXPECT_LT(hits, commits);
}

TEST(CrawlSchedulerTest, MatchesParallelWalkersPoolSemantics) {
  // The scheduler generalizes walk/ParallelWalkers round-robin stepping:
  // same seed, same per-walker Fork streams => same trajectories as a
  // hand-rolled serial pool (the invariant parallel_walkers_test pins).
  SocialNetwork net(TestGraph());
  RestrictedInterface serial_iface(net);
  Rng parent(kSeed);
  std::vector<std::unique_ptr<Rng>> rngs;
  std::vector<std::unique_ptr<Sampler>> serial;
  for (size_t i = 0; i < 8; ++i) {
    rngs.push_back(std::make_unique<Rng>(parent.Fork(i)));
    serial.push_back(std::make_unique<SimpleRandomWalk>(
        serial_iface, *rngs.back(), static_cast<NodeId>(i)));
  }
  for (int r = 0; r < 100; ++r) {
    for (auto& w : serial) w->Step();
  }
  std::vector<NodeId> serial_positions;
  for (auto& w : serial) serial_positions.push_back(w->current());

  CrawlConfig config{8, 8, false};
  CrawlResult run = RunCrawl(net, config, 100, SrwFactory);
  EXPECT_EQ(run.positions, serial_positions);
  EXPECT_EQ(run.query_cost, serial_iface.QueryCost());
}

TEST(CrawlSchedulerTest, DiagnosticsAreRoundMajorInWalkerOrder) {
  SocialNetwork net(Star(6));
  RestrictedInterface base(net);
  ConcurrentInterfaceCache session(base);
  CrawlConfig config{3, 2, false};
  CrawlScheduler scheduler(session, config, kSeed, SrwFactory);
  std::vector<double> diag;
  scheduler.RunRounds(4, &diag);
  ASSERT_EQ(diag.size(), 12u);
  scheduler.RunRounds(1, &diag);  // appends
  ASSERT_EQ(diag.size(), 15u);
  // Final round's values must equal the walkers' current diagnostics.
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(diag[12 + i],
                     scheduler.walker(i).CurrentDegreeForDiagnostic());
  }
  EXPECT_EQ(scheduler.total_steps(), 15u);
}

TEST(CrawlSchedulerTest, RejectsInvalidConfigs) {
  SocialNetwork net(Cycle(4));
  RestrictedInterface iface(net);
  EXPECT_THROW(CrawlScheduler(iface, CrawlConfig{0, 1, false}, kSeed,
                              SrwFactory),
               std::invalid_argument);
  EXPECT_THROW(CrawlScheduler(iface, CrawlConfig{2, 1, false}, kSeed,
                              CrawlScheduler::WalkerFactory()),
               std::invalid_argument);
  EXPECT_THROW(
      CrawlScheduler(iface, CrawlConfig{2, 1, false}, kSeed,
                     [](RestrictedInterface&, Rng&,
                        size_t) -> std::unique_ptr<Sampler> {
                       return nullptr;
                     }),
      std::invalid_argument);
  // More than one thread needs the thread-safe session: a bare interface
  // would be a silent data race, so the constructor refuses it...
  EXPECT_THROW(CrawlScheduler(iface, CrawlConfig{2, 2, false}, kSeed,
                              SrwFactory),
               std::invalid_argument);
  // ...and accepts the same shape over the concurrent cache.
  ConcurrentInterfaceCache session(iface);
  EXPECT_NO_THROW(CrawlScheduler(session, CrawlConfig{2, 2, false}, kSeed,
                                 SrwFactory));
  // The join lag only exists for coalesced rounds: free-run never fetches
  // a frontier, so a depth without coalescing is refused, not ignored.
  EXPECT_THROW(CrawlScheduler(session, CrawlConfig{2, 2, false, 2}, kSeed,
                              SrwFactory),
               std::invalid_argument);
  EXPECT_NO_THROW(CrawlScheduler(session, CrawlConfig{2, 2, true, 2}, kSeed,
                                 SrwFactory));
}

}  // namespace
}  // namespace mto
