#include "src/runtime/concurrent_interface_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "src/graph/generators.h"
#include "src/net/social_network.h"

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

TEST(ConcurrentInterfaceCacheTest, ImportsWarmBaseCache) {
  SocialNetwork net(Cycle(6));
  RestrictedInterface base(net);
  base.QueryRef(3);
  ConcurrentInterfaceCache cache(base);
  EXPECT_TRUE(cache.IsCached(3));
  cache.QueryRef(3);
  EXPECT_EQ(cache.QueryCost(), 1u);  // no re-pay for the warm node
}

TEST(ConcurrentInterfaceCacheTest, TakesOverLatencySimulation) {
  SocialNetwork net(Cycle(6));
  RestrictedInterface base(net);
  base.SetSimulatedLatency(std::chrono::microseconds(100));
  ConcurrentInterfaceCache cache(base);
  EXPECT_EQ(base.simulated_latency().count(), 0);
  EXPECT_EQ(cache.simulated_latency().count(), 100);
}

TEST(ConcurrentInterfaceCacheTest, OneUniqueQueryPerNodeUnderContention) {
  // 8 threads race over the same node set, with enough simulated latency
  // that fetches of one node genuinely overlap: the in-flight table must
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

}  // namespace
}  // namespace mto
