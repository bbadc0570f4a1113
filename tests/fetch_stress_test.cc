// Backend-pool contention stress: many walkers hammering few backends
// through the cache's plan/apply fetch path with fault injection on,
// checked for conservation invariants rather than exact values (exact
// equivalence is fetch_equivalence_test's job). Runs under ThreadSanitizer via the
// `runtime` ctest label, which is where the fine-grained ledger locking
// earns its keep.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/graph/generators.h"
#include "src/runtime/concurrent_interface_cache.h"
#include "src/service/backend_pool.h"
#include "src/util/rng.h"

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
/// overdrawn; refusals never issue requests.
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
  // Pool-level: every unique query was paid by exactly one backend.
  EXPECT_EQ(unique_total, pool.QueryCost());
}

TEST(FetchStressTest, WalkersHammeringBackendsKeepLedgersConserved) {
  SocialNetwork net(Grid(24, 24));  // 576 nodes
  RetryPolicy retry;
  retry.max_attempts_per_backend = 4;
  BackendPool pool(net, FaultyBackends(3, std::nullopt), retry,
                   BackendSelection::kSharded, kFaultSeed);
  ConcurrentInterfaceCache session(pool);

  constexpr size_t kWalkers = 8;
  constexpr size_t kStepsPerWalker = 400;
  std::atomic<uint64_t> answered{0};
  std::vector<std::thread> walkers;
  for (size_t w = 0; w < kWalkers; ++w) {
    walkers.emplace_back([&session, &answered, w] {
      Rng rng(Rng(0xBEEF).Fork(w));
      const NodeId n = session.num_users();
      for (size_t step = 0; step < kStepsPerWalker; ++step) {
        // Single reads, and every third step a burst of four reads as a
        // batch-minded caller would issue them.
        const NodeId v = static_cast<NodeId>(rng.UniformInt(n));
        if (step % 3 != 2) {
          if (session.QueryRef(v)) answered.fetch_add(1);
          continue;
        }
        for (int k = 0; k < 4; ++k) {
          const NodeId id = static_cast<NodeId>(rng.UniformInt(n));
          if (session.QueryRef(id)) answered.fetch_add(1);
        }
      }
    });
  }
  for (auto& walker : walkers) walker.join();

  EXPECT_GT(answered.load(), 0u);
  ExpectBackendConservation(pool);
  // The shared cache dedupes: unique cost never exceeds the node count,
  // and the fault injector actually fired under this seed.
  EXPECT_LE(session.QueryCost(), net.num_users());
  uint64_t faults = 0;
  for (size_t b = 0; b < pool.num_backends(); ++b) {
    faults += pool.backend_stats(b).failed_requests;
  }
  EXPECT_GT(faults, 0u);
}

TEST(FetchStressTest, BudgetedBackendsNeverOverdrawUnderContention) {
  SocialNetwork net(Grid(24, 24));
  RetryPolicy retry;
  retry.max_attempts_per_backend = 3;
  // Tight per-backend budgets plus a pool-wide cap above their sum, so the
  // keys exhaust first and fetches get permanently refused while walkers
  // are still racing.
  BackendPool pool(net, FaultyBackends(4, 60), retry,
                   BackendSelection::kBudgetAware, kFaultSeed);
  pool.SetBudget(400);
  ConcurrentInterfaceCache session(pool);

  std::vector<std::thread> walkers;
  for (size_t w = 0; w < 8; ++w) {
    walkers.emplace_back([&session, w] {
      Rng rng(Rng(0xD00D).Fork(w));
      const NodeId n = session.num_users();
      for (size_t step = 0; step < 300; ++step) {
        for (int k = 0; k < 8; ++k) {
          session.QueryRef(static_cast<NodeId>(rng.UniformInt(n)));
        }
      }
    });
  }
  for (auto& walker : walkers) walker.join();

  ExpectBackendConservation(pool);
  EXPECT_LE(session.QueryCost(), 4 * 60u);  // sum of the per-key budgets
  // With every key capped at 60 and faults on, some fetches must have been
  // permanently refused — and each refusal left its node uncached.
  EXPECT_GT(pool.FailedFetches(), 0u);
}

TEST(FetchStressTest, CachedPlainSessionPaysBareCostAndTrips) {
  // The paper's one perfect backend plans like the pool, so behind the
  // cache the same queries pay the same unique queries and round trips as
  // on a bare interface: single misses, chunked frontiers with hits and
  // duplicates, and a budget that runs out in the middle of a frontier.
  SocialNetwork net(Cycle(64));
  RestrictedInterface bare(net);
  RestrictedInterface wrapped(net);
  wrapped.SetSimulatedLatency(std::chrono::microseconds(5));
  ConcurrentInterfaceCache cached(wrapped);
  const auto run = [](RestrictedInterface& session) {
    session.SetMaxBatchSize(4);
    session.SetBudget(40);
    std::vector<bool> answered;
    for (NodeId v = 0; v < 10; ++v) {
      answered.push_back(session.QueryRef(v).has_value());
    }
    // Two hits, one duplicate, nine distinct misses: three chunks.
    const std::vector<NodeId> mixed = {3, 10, 11, 12, 10, 13, 14,
                                       15, 16, 17, 18, 5};
    session.FetchFrontier(mixed);
    for (NodeId v : mixed) answered.push_back(session.IsCached(v));
    // 21 units of budget left for 30 misses: 21 admitted in six chunks.
    std::vector<NodeId> over_budget;
    for (NodeId v = 20; v < 50; ++v) over_budget.push_back(v);
    session.FetchFrontier(over_budget);
    for (NodeId v : over_budget) answered.push_back(session.IsCached(v));
    answered.push_back(session.QueryRef(60).has_value());  // budget spent
    return answered;
  };
  EXPECT_EQ(run(cached), run(bare));
  EXPECT_EQ(cached.QueryCost(), bare.QueryCost());
  EXPECT_EQ(cached.BackendRequests(), bare.BackendRequests());
  EXPECT_EQ(bare.QueryCost(), 40u);
  EXPECT_EQ(bare.BackendRequests(), 10u + 3u + 6u);
}

}  // namespace
}  // namespace mto
