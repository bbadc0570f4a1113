// Pipelined-engine stress: inline misses applied behind in-flight frontier
// batches, forced speculation misses, mid-round faults, and tight budgets,
// checked for conservation invariants — no uncharged and no double-charged
// query in any ledger (exact equivalence on clean schedules is
// pipeline_equivalence_test's job; here the schedules are hostile). Runs
// under ThreadSanitizer via the `runtime` ctest label, which is where the
// lane machinery earns its keep.

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "src/graph/generators.h"
#include "src/runtime/concurrent_interface_cache.h"
#include "src/service/backend_pool.h"
#include "src/service/crawl_service.h"

namespace mto {
namespace {

constexpr uint64_t kFaultSeed = 0xFA57;

std::vector<BackendConfig> FaultyBackends(size_t n,
                                          std::optional<uint64_t> budget) {
  std::vector<BackendConfig> backends(n);
  for (size_t b = 0; b < n; ++b) {
    backends[b].budget = budget;
    backends[b].error_rate = 0.15;
    backends[b].timeout_rate = 0.05;
    backends[b].quota_rate = 0.05;
    backends[b].latency_mean_us = 50;
    backends[b].latency_sigma = 0.3;
  }
  return backends;
}

/// Per-backend conservation: every request either succeeded (one unique
/// query) or failed with exactly one recorded fault kind; budgets are never
/// overdrawn; and pool-wide, every unique query was paid by exactly one
/// backend — a lane batch applied twice, or never, breaks one of these
/// sums.
void ExpectBackendConservation(const BackendPool& pool) {
  uint64_t unique_total = 0;
  for (size_t b = 0; b < pool.num_backends(); ++b) {
    SCOPED_TRACE("backend " + std::to_string(b));
    const BackendStats stats = pool.backend_stats(b);
    EXPECT_EQ(stats.requests, stats.unique_queries + stats.failed_requests);
    EXPECT_EQ(stats.failed_requests,
              stats.timeouts + stats.transient_errors + stats.quota_rejections);
    if (pool.backend_config(b).budget) {
      EXPECT_LE(stats.unique_queries, *pool.backend_config(b).budget);
    }
    unique_total += stats.unique_queries;
  }
  EXPECT_EQ(unique_total, pool.QueryCost());
}

TEST(PipelineStressTest, InvalidationStormMatchesSequentialTwinExactly) {
  // Hostile coordinator schedule against a sequential depth-0 twin: every
  // round pipeline-fetches a frontier and, while up to two rounds of its
  // lane batches are still in flight, hammers the commit-phase QueryRef path
  // from four threads (disjoint per-thread node sets, so logical fetch
  // sequences are comparable). Their inline misses apply their ledger ops
  // behind the queued frontier batches. Because outcomes are pure
  // per-(backend, node, attempt) draws and pacing is off, the final
  // ledgers must match the twin's bit for bit.
  SocialNetwork net(Grid(24, 24));  // 576 nodes
  RetryPolicy retry;
  retry.max_attempts_per_backend = 4;
  BackendPool pipelined_pool(net, FaultyBackends(3, std::nullopt), retry,
                             BackendSelection::kRendezvous, kFaultSeed);
  ConcurrentInterfaceCache pipelined(pipelined_pool);
  pipelined.SetPipelineDepth(2);
  BackendPool twin_pool(net, FaultyBackends(3, std::nullopt), retry,
                        BackendSelection::kRendezvous, kFaultSeed);
  ConcurrentInterfaceCache twin(twin_pool);

  const NodeId n = net.num_users();
  const NodeId quarter = n / 4;
  constexpr size_t kRounds = 40;
  constexpr size_t kBurst = 6;
  auto frontier_of = [&](size_t r) {
    std::vector<NodeId> frontier;
    for (size_t k = 0; k < 8; ++k) {
      frontier.push_back(static_cast<NodeId>((r * 37 + k * 61) % n));
    }
    return frontier;
  };
  auto burst_of = [&](size_t r, size_t t) {
    // Thread t draws only from its own quarter of the id space: bursts are
    // disjoint across threads, so the twin can replay them sequentially.
    std::vector<NodeId> burst;
    for (size_t k = 0; k < kBurst; ++k) {
      burst.push_back(static_cast<NodeId>((r * 53 + k * 17) % quarter +
                                          t * quarter));
    }
    return burst;
  };

  for (size_t r = 0; r < kRounds; ++r) {
    // Coordinator phase: fetch this round's uncached frontier.
    pipelined.FetchFrontier(frontier_of(r));
    // Commit phase: concurrent single-node queries through the live
    // pipeline (inline misses applied behind in-flight lane batches, cache
    // hits).
    std::vector<std::thread> workers;
    for (size_t t = 0; t < 4; ++t) {
      workers.emplace_back([&, t] {
        for (NodeId v : burst_of(r, t)) pipelined.QueryRef(v);
      });
    }
    for (auto& w : workers) w.join();
  }
  pipelined.DrainPipeline();

  // Sequential twin replays the same logical schedule.
  for (size_t r = 0; r < kRounds; ++r) {
    twin.FetchFrontier(frontier_of(r));
    for (size_t t = 0; t < 4; ++t) {
      for (NodeId v : burst_of(r, t)) twin.QueryRef(v);
    }
  }

  ExpectBackendConservation(pipelined_pool);
  EXPECT_EQ(pipelined.QueryCost(), twin.QueryCost());
  EXPECT_EQ(pipelined.BackendRequests(), twin.BackendRequests());
  EXPECT_EQ(pipelined_pool.FailedFetches(), twin_pool.FailedFetches());
  for (size_t b = 0; b < pipelined_pool.num_backends(); ++b) {
    SCOPED_TRACE("backend " + std::to_string(b));
    const BackendStats p = pipelined_pool.backend_stats(b);
    const BackendStats s = twin_pool.backend_stats(b);
    EXPECT_EQ(p.unique_queries, s.unique_queries);
    EXPECT_EQ(p.requests, s.requests);
    EXPECT_EQ(p.failed_requests, s.failed_requests);
    EXPECT_EQ(p.timeouts, s.timeouts);
    EXPECT_EQ(p.transient_errors, s.transient_errors);
    EXPECT_EQ(p.quota_rejections, s.quota_rejections);
    EXPECT_EQ(p.budget_refusals, s.budget_refusals);
    EXPECT_EQ(p.simulated_us, s.simulated_us);
  }
  // The storm actually stormed: faults fired and something was cached.
  uint64_t faults = 0;
  for (size_t b = 0; b < pipelined_pool.num_backends(); ++b) {
    faults += pipelined_pool.backend_stats(b).failed_requests;
  }
  EXPECT_GT(faults, 0u);
  EXPECT_GT(pipelined.QueryCost(), 0u);
}

TEST(PipelineStressTest, PipelinedCrawlUnderFaultsAndTightBudgetsConserves) {
  // Full service crawl with everything hostile at once: speculative MTO
  // stepping, four threads, depth-2 pipelining, rendezvous routing, fault
  // injection, and per-backend budgets tight enough to exhaust mid-crawl
  // (which voids bit-equality — the documented caveat — but must never
  // break conservation or overdraw a key).
  ScenarioConfig config;
  config.dataset = "epinions_small";
  config.seed = 0x57E55;
  config.program.name = "mto";
  config.num_walkers = 8;
  config.num_threads = 4;
  config.coalesce_frontier = true;
  config.pipeline_depth = 2;
  config.strategy = BackendSelection::kRendezvous;
  config.geweke_check_every = 20;
  config.geweke_min_length = 40;
  config.max_burn_in_rounds = 100;
  config.num_samples = 12;
  config.thinning = 3;
  config.fault_seed = 0xFA17;
  config.retry.max_attempts_per_backend = 3;
  config.backends = FaultyBackends(4, 300);
  CrawlService service(config);
  const ServiceResult result = service.Run();
  ExpectBackendConservation(service.pool());
  EXPECT_LE(service.pool().QueryCost(), 4 * 300u);
  EXPECT_GT(result.total_steps, 0u);
}

TEST(PipelineStressTest, FreeRunPipelineUnderBudgetsConserves) {
  // Plain (non-coalesced) stepping: walker misses plan and apply
  // concurrently from four threads. Budgets are tight and faults on — the
  // single-miss path must neither lose nor double-charge a request.
  ScenarioConfig config;
  config.dataset = "epinions_small";
  config.seed = 0xF4EE;
  config.program.name = "srw";
  config.num_walkers = 8;
  config.num_threads = 4;
  config.coalesce_frontier = false;
  config.strategy = BackendSelection::kRendezvous;
  config.geweke_check_every = 20;
  config.geweke_min_length = 40;
  config.max_burn_in_rounds = 100;
  config.num_samples = 12;
  config.thinning = 3;
  config.fault_seed = 0xFA17;
  config.retry.max_attempts_per_backend = 3;
  config.backends = FaultyBackends(3, 400);
  CrawlService service(config);
  const ServiceResult result = service.Run();
  ExpectBackendConservation(service.pool());
  EXPECT_LE(service.pool().QueryCost(), 3 * 400u);
  EXPECT_GT(result.total_steps, 0u);
}

}  // namespace
}  // namespace mto
