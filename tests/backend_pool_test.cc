#include "src/service/backend_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "src/graph/generators.h"
#include "src/runtime/concurrent_interface_cache.h"
#include "src/util/thread_pool.h"

namespace mto {
namespace {

constexpr uint64_t kFaultSeed = 0xFA17;

SocialNetwork TestNet() { return SocialNetwork(Cycle(64)); }

std::vector<BackendConfig> PerfectBackends(size_t n) {
  return std::vector<BackendConfig>(n);
}

TEST(BackendPoolTest, PerfectBackendBehavesLikeBaseInterface) {
  SocialNetwork net = TestNet();
  BackendPool pool(net, PerfectBackends(1), RetryPolicy{},
                   BackendSelection::kSharded, kFaultSeed);
  auto r = pool.QueryRef(5);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->user, 5u);
  pool.QueryRef(5);
  EXPECT_EQ(pool.QueryCost(), 1u);
  EXPECT_EQ(pool.TotalRequests(), 2u);
  EXPECT_EQ(pool.BackendRequests(), 1u);
  EXPECT_EQ(pool.backend_stats(0).unique_queries, 1u);
  EXPECT_EQ(pool.FailedFetches(), 0u);
}

TEST(BackendPoolTest, ShardedSelectionAssignsByNodeId) {
  SocialNetwork net = TestNet();
  BackendPool pool(net, PerfectBackends(4), RetryPolicy{},
                   BackendSelection::kSharded, kFaultSeed);
  for (NodeId v = 0; v < 16; ++v) pool.QueryRef(v);
  for (size_t b = 0; b < 4; ++b) {
    EXPECT_EQ(pool.backend_stats(b).unique_queries, 4u) << "backend " << b;
  }
}

TEST(BackendPoolTest, RoundRobinRotatesAcrossKeys) {
  SocialNetwork net = TestNet();
  BackendPool pool(net, PerfectBackends(3), RetryPolicy{},
                   BackendSelection::kRoundRobin, kFaultSeed);
  for (NodeId v = 0; v < 9; ++v) pool.QueryRef(v);
  for (size_t b = 0; b < 3; ++b) {
    EXPECT_EQ(pool.backend_stats(b).unique_queries, 3u);
  }
}

TEST(BackendPoolTest, LeastLoadedBalancesRequests) {
  SocialNetwork net = TestNet();
  BackendPool pool(net, PerfectBackends(2), RetryPolicy{},
                   BackendSelection::kLeastLoaded, kFaultSeed);
  for (NodeId v = 0; v < 10; ++v) pool.QueryRef(v);
  EXPECT_EQ(pool.backend_stats(0).requests, 5u);
  EXPECT_EQ(pool.backend_stats(1).requests, 5u);
}

TEST(BackendPoolTest, BudgetAwarePrefersDeepestRemainingBudget) {
  SocialNetwork net = TestNet();
  std::vector<BackendConfig> backends(2);
  backends[0].budget = 2;  // shallow key
  // backends[1] unlimited
  BackendPool pool(net, backends, RetryPolicy{},
                   BackendSelection::kBudgetAware, kFaultSeed);
  for (NodeId v = 0; v < 8; ++v) pool.QueryRef(v);
  // The unlimited key should absorb everything.
  EXPECT_EQ(pool.backend_stats(1).unique_queries, 8u);
  EXPECT_EQ(pool.backend_stats(0).unique_queries, 0u);
}

TEST(BackendPoolTest, BudgetExhaustionFailsOverToNextBackend) {
  SocialNetwork net = TestNet();
  std::vector<BackendConfig> backends(2);
  backends[0].budget = 3;
  backends[1].budget = 3;
  BackendPool pool(net, backends, RetryPolicy{}, BackendSelection::kSharded,
                   kFaultSeed);
  // Nodes 0,2,4,... shard to backend 0; drain both budgets.
  for (NodeId v = 0; v < 6; ++v) EXPECT_TRUE(pool.QueryRef(2 * v).has_value());
  EXPECT_EQ(pool.backend_stats(0).unique_queries, 3u);
  EXPECT_EQ(pool.backend_stats(1).unique_queries, 3u);
  // All keys spent: the fetch is permanently refused, node stays uncached.
  EXPECT_FALSE(pool.QueryRef(13).has_value());
  EXPECT_FALSE(pool.IsCached(13));
  EXPECT_EQ(pool.FailedFetches(), 1u);
  EXPECT_GE(pool.backend_stats(0).budget_refusals, 1u);
}

TEST(BackendPoolTest, TransientFaultsAreRetriedAndMaskedFromCallers) {
  SocialNetwork net = TestNet();
  std::vector<BackendConfig> backends(1);
  backends[0].error_rate = 0.4;
  RetryPolicy retry;
  retry.max_attempts_per_backend = 20;  // enough to mask p=0.4 w.h.p.
  BackendPool pool(net, backends, retry, BackendSelection::kSharded,
                   kFaultSeed);
  for (NodeId v = 0; v < 64; ++v) {
    EXPECT_TRUE(pool.QueryRef(v).has_value()) << "node " << v;
  }
  const BackendStats stats = pool.backend_stats(0);
  EXPECT_EQ(stats.unique_queries, 64u);
  EXPECT_GT(stats.transient_errors, 0u);
  EXPECT_EQ(stats.requests, 64u + stats.failed_requests);
  EXPECT_EQ(pool.FailedFetches(), 0u);
}

TEST(BackendPoolTest, FaultDrawsArePureFunctionsOfNodeAndAttempt) {
  SocialNetwork net = TestNet();
  std::vector<BackendConfig> backends(2);
  backends[0].error_rate = 0.3;
  backends[1].timeout_rate = 0.2;
  auto run = [&](std::vector<NodeId> order) {
    BackendPool pool(net, backends, RetryPolicy{}, BackendSelection::kSharded,
                     kFaultSeed);
    for (NodeId v : order) pool.QueryRef(v);
    std::vector<uint64_t> uniques;
    for (size_t b = 0; b < 2; ++b) {
      uniques.push_back(pool.backend_stats(b).unique_queries);
    }
    return std::make_pair(uniques, pool.FailedFetches());
  };
  std::vector<NodeId> forward(32), reverse(32);
  std::iota(forward.begin(), forward.end(), 0);
  std::iota(reverse.begin(), reverse.end(), 0);
  std::reverse(reverse.begin(), reverse.end());
  // Arrival order must not change which backend pays for which node.
  EXPECT_EQ(run(forward), run(reverse));
}

TEST(BackendPoolTest, TimeoutsBurnSimulatedTime) {
  SocialNetwork net = TestNet();
  std::vector<BackendConfig> backends(1);
  backends[0].timeout_rate = 1.0;  // every attempt times out
  backends[0].timeout_us = 1000;
  RetryPolicy retry;
  retry.max_attempts_per_backend = 2;
  retry.jitter = 0.0;
  retry.base_backoff_us = 500;
  BackendPool pool(net, backends, retry, BackendSelection::kSharded,
                   kFaultSeed);
  EXPECT_FALSE(pool.QueryRef(0).has_value());
  const BackendStats stats = pool.backend_stats(0);
  EXPECT_EQ(stats.timeouts, 2u);
  EXPECT_EQ(stats.failed_requests, 2u);
  // 2 timeouts (1000us each) + backoffs 500us and 1000us.
  EXPECT_EQ(stats.simulated_us, 2 * 1000u + 500u + 1000u);
  EXPECT_EQ(pool.SimulatedTimeUs(), stats.simulated_us);
}

TEST(BackendPoolTest, TokenBucketPacesOnSimulatedClock) {
  SocialNetwork net = TestNet();
  std::vector<BackendConfig> backends(1);
  backends[0].rate_per_sec = 1000.0;  // 1 request per 1000us
  backends[0].burst = 2.0;
  BackendPool pool(net, backends, RetryPolicy{}, BackendSelection::kSharded,
                   kFaultSeed);
  for (NodeId v = 0; v < 10; ++v) pool.QueryRef(v);
  const BackendStats stats = pool.backend_stats(0);
  // First two ride the burst; the rest wait ~1000us each.
  EXPECT_EQ(stats.pacing_waits, 8u);
  EXPECT_GE(stats.simulated_us, 8 * 999u);
  EXPECT_EQ(stats.unique_queries, 10u);
}

TEST(BackendPoolTest, SplitFetchAppliesLedgerOpsInPlanOrder) {
  // A concurrent wrapper may apply planned batches in any order from any
  // thread; each backend's ledger must still see its ops in plan order.
  // A one-token bucket whose refill interval (400us) sits inside the
  // latency spread makes the ledger order-sensitive — a request waits
  // only when its predecessor's latency was short — so applying the
  // batches in reverse must still reproduce the inline twin exactly.
  SocialNetwork net = TestNet();
  std::vector<BackendConfig> backends(1);
  backends[0].latency_mean_us = 400;
  backends[0].latency_sigma = 0.8;
  backends[0].rate_per_sec = 2500.0;
  backends[0].burst = 1.0;
  const NodeId nodes[] = {3, 5, 8, 13, 21};
  BackendPool inline_pool(net, backends, RetryPolicy{},
                          BackendSelection::kSharded, kFaultSeed);
  for (NodeId v : nodes) ASSERT_TRUE(inline_pool.QueryRef(v).has_value());

  BackendPool split(net, backends, RetryPolicy{}, BackendSelection::kSharded,
                    kFaultSeed);
  std::vector<FetchPlan> plans(std::size(nodes));
  for (size_t i = 0; i < std::size(nodes); ++i) {
    split.PlanFetchMisses({&nodes[i], 1}, plans[i]);
    ASSERT_EQ(plans[i].batches.size(), 1u);
    EXPECT_EQ(plans[i].fetched[0], 1);
  }
  EXPECT_EQ(split.QueryCost(), std::size(nodes));  // charged at plan time
  for (size_t i = std::size(nodes); i-- > 0;) {
    split.ApplyFetchBatch(plans[i].batches[0]);
  }

  const BackendLedger want = inline_pool.SnapshotBackends().ledgers[0];
  const BackendLedger got = split.SnapshotBackends().ledgers[0];
  EXPECT_EQ(got.stats.requests, want.stats.requests);
  EXPECT_EQ(got.stats.pacing_waits, want.stats.pacing_waits);
  EXPECT_EQ(got.stats.simulated_us, want.stats.simulated_us);
  EXPECT_EQ(got.clock_us, want.clock_us);
  EXPECT_EQ(got.bucket_tokens, want.bucket_tokens);  // bitwise double
  EXPECT_EQ(got.last_refill_us, want.last_refill_us);
  // Not vacuous: serving the same fetches in reverse order inline moves
  // the pacing-bearing fields.
  BackendPool reversed(net, backends, RetryPolicy{},
                       BackendSelection::kSharded, kFaultSeed);
  for (size_t i = std::size(nodes); i-- > 0;) {
    ASSERT_TRUE(reversed.QueryRef(nodes[i]).has_value());
  }
  EXPECT_NE(reversed.SnapshotBackends().ledgers[0].clock_us, want.clock_us);
  // Every queued op is spoken for: a batch that was never planned throws.
  EXPECT_THROW(split.ApplyFetchBatch(plans[0].batches[0]), std::logic_error);
}

TEST(BackendPoolTest, LatencyDistributionIsDeterministicAndCharged) {
  SocialNetwork net = TestNet();
  std::vector<BackendConfig> backends(1);
  backends[0].latency_mean_us = 200;
  backends[0].latency_sigma = 0.5;
  auto run = [&] {
    BackendPool pool(net, backends, RetryPolicy{}, BackendSelection::kSharded,
                     kFaultSeed);
    for (NodeId v = 0; v < 32; ++v) pool.QueryRef(v);
    return pool.backend_stats(0).simulated_us;
  };
  const uint64_t a = run();
  EXPECT_EQ(a, run());  // bit-reproducible
  EXPECT_GT(a, 0u);
}

TEST(BackendPoolTest, SnapshotRestoreRoundTripsLedgers) {
  SocialNetwork net = TestNet();
  std::vector<BackendConfig> backends(2);
  backends[0].error_rate = 0.3;
  backends[0].rate_per_sec = 100.0;
  BackendPool pool(net, backends, RetryPolicy{},
                   BackendSelection::kRoundRobin, kFaultSeed);
  for (NodeId v = 0; v < 20; ++v) pool.QueryRef(v);

  const SessionSnapshot session = pool.SnapshotSession();
  const BackendPool::PoolSnapshot snapshot = pool.SnapshotBackends();

  BackendPool restored(net, backends, RetryPolicy{},
                       BackendSelection::kRoundRobin, kFaultSeed);
  restored.RestoreSession(session);
  restored.RestoreBackends(snapshot);
  EXPECT_EQ(restored.QueryCost(), pool.QueryCost());
  EXPECT_EQ(restored.BackendRequests(), pool.BackendRequests());
  for (size_t b = 0; b < 2; ++b) {
    EXPECT_EQ(restored.backend_stats(b).requests,
              pool.backend_stats(b).requests);
    EXPECT_EQ(restored.backend_stats(b).simulated_us,
              pool.backend_stats(b).simulated_us);
  }
  // The restored pool continues exactly like the original.
  auto a = pool.QueryRef(40);
  auto b = restored.QueryRef(40);
  ASSERT_EQ(a.has_value(), b.has_value());
  EXPECT_EQ(pool.backend_stats(0).requests, restored.backend_stats(0).requests);
  EXPECT_EQ(pool.backend_stats(1).requests, restored.backend_stats(1).requests);

  BackendPool wrong(net, PerfectBackends(3), RetryPolicy{},
                    BackendSelection::kSharded, kFaultSeed);
  EXPECT_THROW(wrong.RestoreBackends(snapshot), std::invalid_argument);
}

TEST(BackendPoolTest, WorksUnderConcurrentInterfaceCache) {
  SocialNetwork net = TestNet();
  std::vector<BackendConfig> backends(2);
  backends[0].error_rate = 0.2;
  RetryPolicy retry;
  retry.max_attempts_per_backend = 16;
  BackendPool pool(net, backends, retry, BackendSelection::kSharded,
                   kFaultSeed);
  ConcurrentInterfaceCache cache(pool);
  ThreadPool threads(4);
  threads.Run([&](size_t t) {
    for (NodeId v = 0; v < 64; ++v) {
      auto r = cache.QueryRef((v + 16 * t) % 64);
      EXPECT_TRUE(r.has_value());
    }
  });
  EXPECT_EQ(cache.QueryCost(), 64u);
  EXPECT_EQ(pool.backend_stats(0).unique_queries, 32u);
  EXPECT_EQ(pool.backend_stats(1).unique_queries, 32u);
}

TEST(BackendPoolTest, ValidatesConfigs) {
  SocialNetwork net = TestNet();
  EXPECT_THROW(BackendPool(net, {}, RetryPolicy{},
                           BackendSelection::kSharded, 1),
               std::invalid_argument);
  std::vector<BackendConfig> bad(1);
  bad[0].error_rate = 0.8;
  bad[0].timeout_rate = 0.5;  // rates sum > 1
  EXPECT_THROW(BackendPool(net, bad, RetryPolicy{},
                           BackendSelection::kSharded, 1),
               std::invalid_argument);
  std::vector<BackendConfig> named(1);
  BackendPool pool(net, named, RetryPolicy{}, BackendSelection::kSharded, 1);
  EXPECT_EQ(pool.backend_config(0).name, "key-0");
}

}  // namespace
}  // namespace mto
