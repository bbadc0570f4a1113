#include "src/runtime/concurrent_interface_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/graph/generators.h"
#include "src/net/social_network.h"
#include "src/obs/metrics.h"

namespace mto {
namespace {

TEST(ConcurrentInterfaceCacheTest, SingleThreadSemanticsMatchBase) {
  SocialNetwork net(Barbell(4));
  RestrictedInterface plain(net);
  RestrictedInterface base(net);
  ConcurrentInterfaceCache cache(base);

  for (NodeId v : {0u, 1u, 0u, 5u, 1u}) {
    auto expected = plain.QueryRef(v);
    auto actual = cache.QueryRef(v);
    ASSERT_TRUE(actual.has_value());
    EXPECT_EQ(actual->user, expected->user);
    EXPECT_EQ(std::vector<NodeId>(actual->neighbors.begin(),
                                  actual->neighbors.end()),
              std::vector<NodeId>(expected->neighbors.begin(),
                                  expected->neighbors.end()));
  }
  EXPECT_EQ(cache.QueryCost(), plain.QueryCost());
  EXPECT_EQ(cache.TotalRequests(), plain.TotalRequests());
  EXPECT_TRUE(cache.IsCached(0));
  EXPECT_FALSE(cache.IsCached(7));
  EXPECT_EQ(*cache.CachedDegree(5), net.graph().Degree(5));
  EXPECT_FALSE(cache.CachedDegree(7).has_value());
}

TEST(ConcurrentInterfaceCacheTest, OutOfRangeIdsAreNotCachedAndThrow) {
  SocialNetwork net(Cycle(6));
  RestrictedInterface base(net);
  ConcurrentInterfaceCache cache(base);
  EXPECT_FALSE(cache.IsCached(1000000));
  EXPECT_FALSE(cache.CachedDegree(1000000).has_value());
  EXPECT_THROW(cache.QueryRef(6), std::invalid_argument);
  const std::vector<NodeId> frontier = {0, 6};
  EXPECT_THROW(cache.FetchFrontier(frontier), std::invalid_argument);
  EXPECT_FALSE(cache.IsCached(0));  // validated before any fetch
  EXPECT_EQ(cache.QueryCost(), 0u);
  EXPECT_EQ(cache.TotalRequests(), 0u);
}

TEST(ConcurrentInterfaceCacheTest, HonorsWarmBaseCache) {
  SocialNetwork net(Cycle(6));
  RestrictedInterface base(net);
  base.QueryRef(3);
  ConcurrentInterfaceCache cache(base);
  EXPECT_TRUE(cache.IsCached(3));
  cache.QueryRef(3);
  EXPECT_EQ(cache.QueryCost(), 1u);  // no re-pay for the warm node
}

TEST(ConcurrentInterfaceCacheTest, SharesTheWrappedSessionsLedger) {
  // The cache is built over its wrapped session's ledger: a budget set on
  // the cache binds the base, cost and cache flags read the same from
  // both, and the base keeps its latency (the cache sleeps it and never
  // runs the base's inline fetch, so no trip is paid twice).
  SocialNetwork net(Cycle(6));
  RestrictedInterface base(net);
  base.SetSimulatedLatency(std::chrono::microseconds(100));
  ConcurrentInterfaceCache cache(base);
  EXPECT_EQ(base.simulated_latency().count(), 100);
  EXPECT_EQ(cache.simulated_latency().count(), 100);
  cache.SetBudget(1);
  cache.SetMaxBatchSize(5);
  EXPECT_EQ(base.max_batch_size(), 5u);
  ASSERT_TRUE(cache.QueryRef(2).has_value());
  EXPECT_TRUE(base.IsCached(2));
  EXPECT_FALSE(base.IsCached(3));
  EXPECT_EQ(base.QueryCost(), 1u);
  EXPECT_EQ(cache.QueryCost(), 1u);
  EXPECT_EQ(base.BackendRequests(), 1u);
  EXPECT_EQ(cache.BackendRequests(), 1u);
  EXPECT_FALSE(base.QueryRef(3).has_value());  // the cache's budget binds
  EXPECT_FALSE(cache.QueryRef(3).has_value());
  EXPECT_EQ(cache.QueryCost(), 1u);
}

TEST(ConcurrentInterfaceCacheTest, DemandMissIsPublishedOnlyAfterItsRoundTrip) {
  // A demand miss is charged when it is planned but cached only once its
  // round trip is over. In between, a second walker must not read the node
  // as cached: it waits on the in-flight claim and shares the response.
  SocialNetwork net(Cycle(8));
  RestrictedInterface base(net);
  base.SetSimulatedLatency(std::chrono::milliseconds(200));
  ConcurrentInterfaceCache cache(base);
  obs::MetricsRegistry registry;
  cache.SetObservability(&registry, nullptr);
  constexpr NodeId kNode = 3;
  std::optional<QueryView> first;
  std::thread fetcher([&] { first = cache.QueryRef(kNode); });
  // BackendRequests takes the ledger lock: it reads 1 once the plan ran.
  while (cache.BackendRequests() == 0) std::this_thread::yield();
  EXPECT_FALSE(cache.IsCached(kNode));
  EXPECT_FALSE(base.IsCached(kNode));
  std::optional<QueryView> second;
  std::thread waiter([&] { second = cache.QueryRef(kNode); });
  fetcher.join();
  waiter.join();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->user, kNode);
  EXPECT_EQ(second->neighbors.data(), first->neighbors.data());
  EXPECT_EQ(registry.GetCounter("cache.dedupe_waits")->Value(), 1u);
  EXPECT_EQ(cache.QueryCost(), 1u);
  EXPECT_EQ(cache.BackendRequests(), 1u);
  EXPECT_TRUE(cache.IsCached(kNode));
}

TEST(ConcurrentInterfaceCacheTest, ClaimedMissReadsUncachedToEveryReader) {
  // While a demand miss sleeps its round trip its flag is "claimed", and
  // every non-fetching reader must see the node as uncached.
  SocialNetwork net(Cycle(8));
  RestrictedInterface base(net);
  base.SetSimulatedLatency(std::chrono::milliseconds(200));
  ConcurrentInterfaceCache cache(base);
  constexpr NodeId kNode = 5;
  std::optional<QueryView> fetched;
  std::thread fetcher([&] { fetched = cache.QueryRef(kNode); });
  while (cache.BackendRequests() == 0) std::this_thread::yield();
  EXPECT_FALSE(cache.IsCached(kNode));
  EXPECT_FALSE(cache.PeekCached(kNode).has_value());
  EXPECT_FALSE(cache.CachedDegree(kNode).has_value());
  EXPECT_TRUE(cache.SnapshotSession().cached_ids.empty());
  EXPECT_TRUE(base.SnapshotSession().cached_ids.empty());
  fetcher.join();
  ASSERT_TRUE(fetched.has_value());
  EXPECT_TRUE(cache.IsCached(kNode));
  EXPECT_TRUE(cache.PeekCached(kNode).has_value());
  EXPECT_EQ(*cache.CachedDegree(kNode), net.graph().Degree(kNode));
  EXPECT_EQ(cache.SnapshotSession().cached_ids, (std::vector<NodeId>{kNode}));
}

/// A bare session whose plans wait at a gate, so a test can hold a claimed
/// miss inside its plan for as long as it needs.
class GatedSession final : public RestrictedInterface {
 public:
  using RestrictedInterface::RestrictedInterface;

  void PlanFetchMisses(std::span<const NodeId> misses,
                       FetchPlan& plan) override {
    plans.fetch_add(1);
    while (!open.load()) std::this_thread::yield();
    RestrictedInterface::PlanFetchMisses(misses, plan);
  }

  std::atomic<int> plans{0};
  std::atomic<bool> open{false};
};

TEST(ConcurrentInterfaceCacheTest, RefusedClaimReopensTheNodeAndWakesWaiters) {
  // A claim the budget refuses puts the flag back to uncached and wakes
  // the walker already waiting on it; that walker claims the node itself
  // and is refused too, and nobody hangs.
  SocialNetwork net(Cycle(8));
  GatedSession base(net);
  ConcurrentInterfaceCache cache(base);
  obs::MetricsRegistry registry;
  cache.SetObservability(&registry, nullptr);
  const obs::Counter* dedupe = registry.GetCounter("cache.dedupe_waits");
  cache.SetBudget(0);
  constexpr NodeId kNode = 3;
  std::optional<QueryView> first;
  std::optional<QueryView> second;
  std::thread fetcher([&] { first = cache.QueryRef(kNode); });
  while (base.plans.load() == 0) std::this_thread::yield();
  std::thread waiter([&] { second = cache.QueryRef(kNode); });
  while (dedupe->Value() == 0) std::this_thread::yield();
  // Let the waiter reach its wait on the flag before the refusal lands.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  base.open.store(true);
  fetcher.join();
  waiter.join();
  EXPECT_FALSE(first.has_value());
  EXPECT_FALSE(second.has_value());
  EXPECT_EQ(base.plans.load(), 2);  // the waiter planned its own claim
  EXPECT_EQ(dedupe->Value(), 1u);   // one waiting episode
  EXPECT_EQ(registry.GetCounter("cache.misses")->Value(), 2u);
  EXPECT_FALSE(cache.IsCached(kNode));
  EXPECT_EQ(cache.QueryCost(), 0u);
  // The flag is uncached, not stuck claimed: with budget, the node fetches.
  cache.SetBudget(1);
  ASSERT_TRUE(cache.QueryRef(kNode).has_value());
  EXPECT_TRUE(cache.IsCached(kNode));
  EXPECT_EQ(cache.QueryCost(), 1u);
  EXPECT_EQ(dedupe->Value(), 1u);
}

TEST(ConcurrentInterfaceCacheTest, PlanLockWaitsCountOnlyParkedPlans) {
  // A plan held open at the gate outlasts the second miss's spin phase, so
  // that miss parks on the plan lock: one cache.plan_lock_waits, published
  // once, and uncontended misses add nothing.
  SocialNetwork net(Cycle(8));
  GatedSession base(net);
  ConcurrentInterfaceCache cache(base);
  obs::MetricsRegistry registry;
  cache.SetObservability(&registry, nullptr);
  const obs::Counter* waits = registry.GetCounter("cache.plan_lock_waits");
  std::thread holder([&] { cache.QueryRef(1); });
  while (base.plans.load() == 0) std::this_thread::yield();
  std::thread parker([&] { cache.QueryRef(2); });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (waits->Value() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    cache.PublishMetrics();  // reads only atomics: safe mid-crawl
  }
  EXPECT_EQ(waits->Value(), 1u);
  base.open.store(true);
  holder.join();
  parker.join();
  cache.QueryRef(3);
  cache.PublishMetrics();
  cache.PublishMetrics();
  EXPECT_EQ(waits->Value(), 1u);
  EXPECT_EQ(cache.QueryCost(), 3u);
}

TEST(ConcurrentInterfaceCacheTest, OneUniqueQueryPerNodeUnderContention) {
  // 8 threads race over the same node set, with enough simulated latency
  // that fetches of one node genuinely overlap: the in-flight claim must
  // collapse every race to a single paid query.
  SocialNetwork net(Complete(24));
  RestrictedInterface base(net);
  base.SetSimulatedLatency(std::chrono::microseconds(300));
  ConcurrentInterfaceCache cache(base);

  constexpr size_t kThreads = 8;
  std::atomic<size_t> failures{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &failures, &net] {
      for (NodeId v = 0; v < net.num_users(); ++v) {
        auto r = cache.QueryRef(v);
        if (!r || r->user != v) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(cache.QueryCost(), net.num_users());
  EXPECT_EQ(cache.TotalRequests(), kThreads * net.num_users());
}

TEST(ConcurrentInterfaceCacheTest, BudgetEnforcedExactlyAcrossThreads) {
  SocialNetwork net(Complete(64));
  RestrictedInterface base(net);
  ConcurrentInterfaceCache cache(base);
  constexpr uint64_t kBudget = 40;
  cache.SetBudget(kBudget);

  constexpr size_t kThreads = 8;
  std::atomic<uint64_t> granted{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    // Disjoint id ranges: every successful query is a unique paid fetch.
    threads.emplace_back([&cache, &granted, t] {
      for (NodeId v = static_cast<NodeId>(t * 8);
           v < static_cast<NodeId>(t * 8 + 8); ++v) {
        if (cache.QueryRef(v)) granted.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(cache.QueryCost(), kBudget);
  EXPECT_EQ(granted.load(), kBudget);
  // Cached nodes still answer after exhaustion; new nodes do not.
  uint64_t hits = 0;
  for (NodeId v = 0; v < 64; ++v) {
    if (cache.IsCached(v)) {
      EXPECT_TRUE(cache.QueryRef(v).has_value());
      ++hits;
    }
  }
  EXPECT_EQ(hits, kBudget);
  EXPECT_EQ(cache.QueryCost(), kBudget);
}

TEST(ConcurrentInterfaceCacheTest, FetchFrontierEmptyFrontierIsFree) {
  SocialNetwork net(Cycle(8));
  RestrictedInterface base(net);
  ConcurrentInterfaceCache cache(base);
  cache.FetchFrontier({});
  EXPECT_EQ(cache.QueryCost(), 0u);
  EXPECT_EQ(cache.TotalRequests(), 0u);
  EXPECT_EQ(cache.BackendRequests(), 0u);
}

TEST(ConcurrentInterfaceCacheTest, FetchFrontierDuplicateIdsCostOne) {
  SocialNetwork net(Cycle(8));
  RestrictedInterface base(net);
  ConcurrentInterfaceCache cache(base);
  std::vector<NodeId> ids = {5, 5, 5, 2, 5};
  cache.FetchFrontier(ids);
  EXPECT_TRUE(cache.IsCached(5));
  EXPECT_TRUE(cache.IsCached(2));
  EXPECT_TRUE(base.IsCached(5));
  EXPECT_EQ(cache.QueryCost(), 2u);
  EXPECT_EQ(cache.TotalRequests(), 2u);  // one request per fetched id
  EXPECT_EQ(cache.BackendRequests(), 1u);
}

TEST(ConcurrentInterfaceCacheTest, FetchFrontierPaysOneRoundTripPerChunk) {
  // 24 misses in chunks of 8: three round trips, slept once each by the
  // depth-0 join, where a trip per miss would sleep 24.
  SocialNetwork net(Complete(32));
  RestrictedInterface base(net);
  base.SetMaxBatchSize(8);
  base.SetSimulatedLatency(std::chrono::milliseconds(10));
  ConcurrentInterfaceCache cache(base);
  std::vector<NodeId> ids;
  for (NodeId v = 0; v < 24; ++v) ids.push_back(v);
  const auto start = std::chrono::steady_clock::now();
  cache.FetchFrontier(ids);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(cache.BackendRequests(), 3u);
  EXPECT_EQ(cache.QueryCost(), 24u);
  EXPECT_GE(elapsed, std::chrono::milliseconds(30));
  EXPECT_LT(elapsed, std::chrono::milliseconds(200));
  // Re-fetching is free: every id is a hit now.
  cache.FetchFrontier(ids);
  EXPECT_EQ(cache.BackendRequests(), 3u);
  EXPECT_EQ(cache.TotalRequests(), 24u);
}

TEST(ConcurrentInterfaceCacheTest, FetchFrontierBudgetRunsOutMidChunk) {
  SocialNetwork net(Cycle(8));
  RestrictedInterface base(net);
  base.SetMaxBatchSize(4);
  ConcurrentInterfaceCache cache(base);
  cache.SetBudget(2);
  std::vector<NodeId> ids = {0, 1, 2, 3};
  cache.FetchFrontier(ids);
  EXPECT_TRUE(cache.IsCached(0));
  EXPECT_TRUE(cache.IsCached(1));
  EXPECT_FALSE(cache.IsCached(2));
  EXPECT_FALSE(cache.IsCached(3));
  EXPECT_FALSE(cache.QueryRef(2).has_value());
  EXPECT_EQ(cache.QueryCost(), 2u);
  EXPECT_EQ(cache.BackendRequests(), 1u);  // the refusals pay no trip
}

TEST(ConcurrentInterfaceCacheTest, QueryRefHitPathIsLockFreeAndCounted) {
  SocialNetwork net(Cycle(8));
  RestrictedInterface base(net);
  ConcurrentInterfaceCache cache(base);
  auto miss = cache.QueryRef(3);  // miss goes through the full machinery
  ASSERT_TRUE(miss.has_value());
  EXPECT_EQ(cache.QueryCost(), 1u);
  auto hit = cache.QueryRef(3);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->degree(), net.graph().Degree(3));
  EXPECT_EQ(cache.QueryCost(), 1u);
  EXPECT_EQ(cache.TotalRequests(), 2u);
}

TEST(ConcurrentInterfaceCacheTest, SessionSnapshotRoundTripsThroughWrapper) {
  SocialNetwork net(Cycle(8));
  RestrictedInterface base(net);
  ConcurrentInterfaceCache cache(base);
  cache.QueryRef(1);
  cache.QueryRef(1);  // wrapper-level hit the base never sees
  cache.QueryRef(4);
  const SessionSnapshot snapshot = cache.SnapshotSession();
  EXPECT_EQ(snapshot.cached_ids, (std::vector<NodeId>{1, 4}));
  EXPECT_EQ(snapshot.total_requests, 3u);  // wrapper counter, not base's

  RestrictedInterface other_base(net);
  ConcurrentInterfaceCache other(other_base);
  other.RestoreSession(snapshot);
  EXPECT_TRUE(other.IsCached(1));
  EXPECT_TRUE(other.IsCached(4));
  EXPECT_FALSE(other.IsCached(0));
  EXPECT_EQ(other.QueryCost(), 2u);
  EXPECT_EQ(other.TotalRequests(), 3u);
  // Restored hits are answered locally without new cost.
  EXPECT_TRUE(other.QueryRef(1).has_value());
  EXPECT_EQ(other.QueryCost(), 2u);
}

TEST(ConcurrentInterfaceCacheTest, RestoreRejectsInconsistentSnapshots) {
  // The wrapped session validates before it changes anything, so a refused
  // snapshot leaves the shared ledger and the request count as they were.
  SocialNetwork net(Cycle(8));
  RestrictedInterface base(net);
  ConcurrentInterfaceCache cache(base);
  cache.QueryRef(1);
  cache.QueryRef(4);
  cache.QueryRef(4);
  const SessionSnapshot good = cache.SnapshotSession();
  SessionSnapshot descending = good;
  descending.cached_ids = {4, 1};
  SessionSnapshot rewritten = good;
  rewritten.unique_queries = 7;
  rewritten.total_requests = 99;
  for (const SessionSnapshot& bad : {descending, rewritten}) {
    EXPECT_THROW(cache.RestoreSession(bad), std::invalid_argument);
    EXPECT_TRUE(cache.IsCached(1));
    EXPECT_TRUE(cache.IsCached(4));
    EXPECT_FALSE(cache.IsCached(0));
    EXPECT_EQ(cache.QueryCost(), 2u);
    EXPECT_EQ(base.QueryCost(), 2u);
    EXPECT_EQ(cache.TotalRequests(), 3u);
    EXPECT_EQ(cache.BackendRequests(), 2u);
  }
}

TEST(ConcurrentInterfaceCacheTest, ResetClearsWrapperAndBase) {
  SocialNetwork net(Cycle(8));
  RestrictedInterface base(net);
  ConcurrentInterfaceCache cache(base);
  cache.QueryRef(1);
  cache.QueryRef(2);
  cache.Reset();
  EXPECT_EQ(cache.QueryCost(), 0u);
  EXPECT_EQ(cache.TotalRequests(), 0u);
  EXPECT_FALSE(cache.IsCached(1));
  EXPECT_FALSE(base.IsCached(1));
}

TEST(ConcurrentInterfaceCacheTest, RequestTotalIsExactAtQuiescentPoints) {
  // Every thread counts into its own request slot; the total must be exact
  // whenever no thread is counting, including across a snapshot, a restore
  // onto slots that still hold counts, more counting on threads the cache
  // has never seen, and a reset.
  SocialNetwork net(Complete(32));
  RestrictedInterface base(net);
  ConcurrentInterfaceCache cache(base);
  constexpr size_t kThreads = 8;
  const auto count_on_fresh_threads = [&](size_t reads_per_thread) {
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&cache, &net, t, reads_per_thread] {
        for (size_t i = 0; i < reads_per_thread; ++i) {
          cache.QueryRef(static_cast<NodeId>((t + i) % net.num_users()));
        }
      });
    }
    for (auto& th : threads) th.join();
  };

  count_on_fresh_threads(500);
  EXPECT_EQ(cache.TotalRequests(), kThreads * 500);
  const SessionSnapshot snapshot = cache.SnapshotSession();
  EXPECT_EQ(snapshot.total_requests, kThreads * 500);

  count_on_fresh_threads(300);  // counts the restore below must discard
  EXPECT_EQ(cache.TotalRequests(), kThreads * 800);
  cache.RestoreSession(snapshot);
  EXPECT_EQ(cache.TotalRequests(), kThreads * 500);
  EXPECT_EQ(cache.SnapshotSession().total_requests, kThreads * 500);

  count_on_fresh_threads(200);
  cache.QueryRef(0);  // and one on this thread
  EXPECT_EQ(cache.TotalRequests(), kThreads * 700 + 1);

  cache.Reset();
  EXPECT_EQ(cache.TotalRequests(), 0u);
  count_on_fresh_threads(100);
  EXPECT_EQ(cache.TotalRequests(), kThreads * 100);
  EXPECT_EQ(cache.QueryCost(), net.num_users());  // refetched after Reset
}

}  // namespace
}  // namespace mto
