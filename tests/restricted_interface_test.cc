#include "src/net/restricted_interface.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <vector>

#include "src/graph/generators.h"

namespace mto {
namespace {

class RestrictedInterfaceTest : public testing::Test {
 protected:
  RestrictedInterfaceTest() : net_(Barbell(4)), iface_(net_) {}
  SocialNetwork net_;
  RestrictedInterface iface_;
};

TEST_F(RestrictedInterfaceTest, QueryReturnsNeighbors) {
  auto r = iface_.QueryRef(0);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->user, 0u);
  EXPECT_EQ(r->degree(), net_.graph().Degree(0));
  for (NodeId v : r->neighbors) EXPECT_TRUE(net_.graph().HasEdge(0, v));
}

TEST_F(RestrictedInterfaceTest, UniqueQueryCostOnly) {
  iface_.QueryRef(0);
  iface_.QueryRef(0);
  iface_.QueryRef(0);
  EXPECT_EQ(iface_.QueryCost(), 1u);
  EXPECT_EQ(iface_.TotalRequests(), 3u);
  iface_.QueryRef(1);
  EXPECT_EQ(iface_.QueryCost(), 2u);
}

TEST_F(RestrictedInterfaceTest, CachedDegreeOnlyAfterQuery) {
  EXPECT_FALSE(iface_.CachedDegree(2).has_value());
  iface_.QueryRef(2);
  ASSERT_TRUE(iface_.CachedDegree(2).has_value());
  EXPECT_EQ(*iface_.CachedDegree(2), net_.graph().Degree(2));
}

TEST_F(RestrictedInterfaceTest, IsCachedTracksQueries) {
  EXPECT_FALSE(iface_.IsCached(3));
  iface_.QueryRef(3);
  EXPECT_TRUE(iface_.IsCached(3));
}

TEST_F(RestrictedInterfaceTest, BudgetBlocksNewQueriesOnly) {
  iface_.SetBudget(2);
  EXPECT_TRUE(iface_.QueryRef(0).has_value());
  EXPECT_TRUE(iface_.QueryRef(1).has_value());
  EXPECT_FALSE(iface_.QueryRef(2).has_value());   // budget exhausted
  EXPECT_TRUE(iface_.QueryRef(0).has_value());    // cache hit still answers
  EXPECT_EQ(iface_.QueryCost(), 2u);
}

TEST_F(RestrictedInterfaceTest, UnknownUserThrows) {
  EXPECT_THROW(iface_.QueryRef(100), std::invalid_argument);
}

TEST_F(RestrictedInterfaceTest, RandomUserCostsOneQuery) {
  Rng rng(5);
  auto r = iface_.RandomUser(rng);
  ASSERT_TRUE(r.has_value());
  EXPECT_LT(r->user, net_.num_users());
  EXPECT_TRUE(iface_.IsCached(r->user));
  EXPECT_EQ(iface_.QueryCost(), 1u);
  EXPECT_EQ(iface_.TotalRequests(), 1u);
}

TEST_F(RestrictedInterfaceTest, ResetClearsState) {
  iface_.QueryRef(0);
  iface_.QueryRef(1);
  iface_.Reset();
  EXPECT_EQ(iface_.QueryCost(), 0u);
  EXPECT_EQ(iface_.TotalRequests(), 0u);
  EXPECT_FALSE(iface_.IsCached(0));
}

TEST_F(RestrictedInterfaceTest, NumUsersPublic) {
  EXPECT_EQ(iface_.num_users(), 8u);
}

TEST_F(RestrictedInterfaceTest, OutOfRangeIdsAreSimplyNotCached) {
  // Regression: IsCached/CachedDegree used to index cached_[v] unchecked,
  // so any id >= num_users() was undefined behavior.
  EXPECT_FALSE(iface_.IsCached(8));
  EXPECT_FALSE(iface_.IsCached(0xFFFFFFFFu));
  EXPECT_FALSE(iface_.CachedDegree(8).has_value());
  EXPECT_FALSE(iface_.CachedDegree(0xFFFFFFFFu).has_value());
}

TEST_F(RestrictedInterfaceTest, FetchFrontierFetchesEachDistinctMissOnce) {
  std::vector<NodeId> ids = {0, 1, 1, 2, 0};
  iface_.FetchFrontier(ids);
  for (NodeId v : ids) EXPECT_TRUE(iface_.IsCached(v));
  EXPECT_EQ(iface_.QueryCost(), 3u);      // unique ids only
  EXPECT_EQ(iface_.TotalRequests(), 3u);  // one request per fetched id
  EXPECT_EQ(iface_.BackendRequests(), 1u);
  // The reads that follow are hits: requests, no cost.
  for (NodeId v : ids) {
    auto r = iface_.QueryRef(v);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->user, v);
    EXPECT_EQ(r->degree(), net_.graph().Degree(v));
  }
  EXPECT_EQ(iface_.QueryCost(), 3u);
  EXPECT_EQ(iface_.TotalRequests(), 8u);
}

TEST_F(RestrictedInterfaceTest, FetchFrontierPaysOneRoundTripPerChunk) {
  iface_.SetMaxBatchSize(3);
  std::vector<NodeId> ids = {0, 1, 2, 3, 4, 5, 6};
  iface_.FetchFrontier(ids);
  // 7 misses in chunks of 3 -> 3 round trips; re-fetching is free.
  EXPECT_EQ(iface_.BackendRequests(), 3u);
  iface_.FetchFrontier(ids);
  EXPECT_EQ(iface_.BackendRequests(), 3u);
  EXPECT_EQ(iface_.TotalRequests(), 7u);
  // Single-user queries pay one trip per miss.
  iface_.QueryRef(7);
  EXPECT_EQ(iface_.BackendRequests(), 4u);
}

TEST(RestrictedInterfaceLatencyTest, FetchFrontierSleepsOncePerChunk) {
  // 24 misses in chunks of 8: three round trips slept, where a trip per
  // miss would sleep 24.
  SocialNetwork net(Complete(32));
  RestrictedInterface iface(net);
  iface.SetMaxBatchSize(8);
  iface.SetSimulatedLatency(std::chrono::milliseconds(10));
  std::vector<NodeId> ids;
  for (NodeId v = 0; v < 24; ++v) ids.push_back(v);
  const auto start = std::chrono::steady_clock::now();
  iface.FetchFrontier(ids);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(iface.BackendRequests(), 3u);
  EXPECT_GE(elapsed, std::chrono::milliseconds(30));
  EXPECT_LT(elapsed, std::chrono::milliseconds(200));
}

TEST_F(RestrictedInterfaceTest, FetchFrontierHonorsBudgetPerId) {
  iface_.SetBudget(2);
  std::vector<NodeId> ids = {0, 1, 2, 0};
  iface_.FetchFrontier(ids);
  EXPECT_TRUE(iface_.IsCached(0));
  EXPECT_TRUE(iface_.IsCached(1));
  EXPECT_FALSE(iface_.IsCached(2));  // budget ran out
  EXPECT_EQ(iface_.QueryCost(), 2u);
  EXPECT_FALSE(iface_.QueryRef(2).has_value());
  EXPECT_TRUE(iface_.QueryRef(0).has_value());  // cached id still answers
}

TEST_F(RestrictedInterfaceTest, FetchFrontierRejectsUnknownIdsAndZeroBatch) {
  std::vector<NodeId> ids = {0, 100};
  EXPECT_THROW(iface_.FetchFrontier(ids), std::invalid_argument);
  EXPECT_EQ(iface_.QueryCost(), 0u);  // validated before any fetch
  EXPECT_EQ(iface_.TotalRequests(), 0u);
  EXPECT_FALSE(iface_.IsCached(0));
  EXPECT_THROW(iface_.SetMaxBatchSize(0), std::invalid_argument);
}

TEST_F(RestrictedInterfaceTest, FetchFrontierEmptyFrontierIsFree) {
  iface_.FetchFrontier({});
  EXPECT_EQ(iface_.QueryCost(), 0u);
  EXPECT_EQ(iface_.TotalRequests(), 0u);
  EXPECT_EQ(iface_.BackendRequests(), 0u);
}

TEST_F(RestrictedInterfaceTest, FetchFrontierDuplicatesShareOneChunkSlot) {
  iface_.SetMaxBatchSize(2);
  // Three distinct misses among duplicates: chunks {0,1},{2} -> 2 trips,
  // and the duplicate of 0 must not consume a chunk slot.
  std::vector<NodeId> ids = {0, 0, 1, 2, 1};
  iface_.FetchFrontier(ids);
  for (NodeId v : ids) EXPECT_TRUE(iface_.IsCached(v));
  EXPECT_EQ(iface_.QueryCost(), 3u);
  EXPECT_EQ(iface_.TotalRequests(), 3u);
  EXPECT_EQ(iface_.BackendRequests(), 2u);
}

TEST_F(RestrictedInterfaceTest, FetchFrontierBudgetRunsOutMidChunk) {
  iface_.SetMaxBatchSize(3);
  iface_.SetBudget(2);
  std::vector<NodeId> ids = {0, 1, 2, 3};
  iface_.FetchFrontier(ids);
  EXPECT_TRUE(iface_.IsCached(0));
  EXPECT_TRUE(iface_.IsCached(1));
  EXPECT_FALSE(iface_.IsCached(2));
  EXPECT_FALSE(iface_.IsCached(3));
  // The chunk's round trip was already paid when its first miss was
  // admitted; the refusals must not pay another.
  EXPECT_EQ(iface_.BackendRequests(), 1u);
  EXPECT_EQ(iface_.QueryCost(), 2u);
  // Lifting the budget fetches the stragglers in a fresh trip.
  iface_.SetBudget(std::nullopt);
  iface_.FetchFrontier(ids);
  EXPECT_TRUE(iface_.IsCached(2));
  EXPECT_TRUE(iface_.IsCached(3));
  EXPECT_EQ(iface_.BackendRequests(), 2u);
  EXPECT_EQ(iface_.QueryCost(), 4u);
}

TEST_F(RestrictedInterfaceTest, PlanChargesTripsAndFillsPlanLikeThePool) {
  // The one perfect backend settles its only ledger, the trip counter, at
  // plan time: one batch on backend 0, applying it changes nothing.
  iface_.SetMaxBatchSize(2);
  iface_.SetBudget(3);
  const std::vector<NodeId> misses = {4, 0, 6, 2};
  FetchPlan plan;
  iface_.PlanFetchMisses(misses, plan);
  EXPECT_EQ(plan.fetched, (std::vector<uint8_t>{1, 1, 1, 0}));
  ASSERT_EQ(plan.batches.size(), 1u);
  EXPECT_EQ(plan.batches[0].backend, 0u);
  EXPECT_EQ(plan.batches[0].trips, 2u);  // ceil(3 admitted / 2)
  EXPECT_EQ(iface_.QueryCost(), 3u);
  EXPECT_EQ(iface_.BackendRequests(), 2u);
  EXPECT_TRUE(iface_.IsCached(6));
  EXPECT_FALSE(iface_.IsCached(2));
  iface_.ApplyFetchBatch(plan.batches[0]);
  EXPECT_EQ(iface_.BackendRequests(), 2u);
  // A fully refused plan has no batch and costs nothing.
  const NodeId refused[1] = {2};
  iface_.PlanFetchMisses(refused, plan);
  EXPECT_TRUE(plan.batches.empty());
  EXPECT_EQ(plan.fetched, (std::vector<uint8_t>{0}));
  EXPECT_EQ(iface_.BackendRequests(), 2u);
}

TEST_F(RestrictedInterfaceTest, QueryRefHitCountsARequestButNoCost) {
  auto first = iface_.QueryRef(0);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(iface_.QueryCost(), 1u);
  auto hit = iface_.QueryRef(0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->user, 0u);
  // Both views borrow the same backing store.
  EXPECT_EQ(hit->neighbors.data(), first->neighbors.data());
  EXPECT_EQ(hit->neighbors.size(), net_.graph().Degree(0));
  EXPECT_EQ(hit->profile, first->profile);
  EXPECT_EQ(iface_.QueryCost(), 1u);      // hit: no extra unique query
  EXPECT_EQ(iface_.TotalRequests(), 2u);  // but both requests counted
}

TEST_F(RestrictedInterfaceTest, QueryRefHonorsBudget) {
  iface_.SetBudget(1);
  EXPECT_TRUE(iface_.QueryRef(0).has_value());
  EXPECT_FALSE(iface_.QueryRef(1).has_value());
  EXPECT_TRUE(iface_.QueryRef(0).has_value());  // cache hit still answers
  EXPECT_THROW(iface_.QueryRef(100), std::invalid_argument);
}

TEST_F(RestrictedInterfaceTest, SessionSnapshotRoundTrips) {
  iface_.QueryRef(0);
  iface_.QueryRef(3);
  iface_.QueryRef(0);
  const SessionSnapshot snapshot = iface_.SnapshotSession();
  EXPECT_EQ(snapshot.cached_ids, (std::vector<NodeId>{0, 3}));
  EXPECT_EQ(snapshot.unique_queries, 2u);
  EXPECT_EQ(snapshot.total_requests, 3u);
  EXPECT_EQ(snapshot.backend_requests, 2u);

  RestrictedInterface other(net_);
  other.RestoreSession(snapshot);
  EXPECT_TRUE(other.IsCached(0));
  EXPECT_TRUE(other.IsCached(3));
  EXPECT_FALSE(other.IsCached(1));
  EXPECT_EQ(other.QueryCost(), 2u);
  EXPECT_EQ(other.TotalRequests(), 3u);
  EXPECT_EQ(other.BackendRequests(), 2u);

  SessionSnapshot bad = snapshot;
  bad.cached_ids.push_back(1000);
  EXPECT_THROW(other.RestoreSession(bad), std::invalid_argument);
}

TEST(RestrictedInterfaceProfileTest, ProfileSurfacedThroughQueryRef) {
  std::vector<UserProfile> profiles(3);
  profiles[2].description_length = 123;
  SocialNetwork net(Path(3), profiles);
  RestrictedInterface iface(net);
  auto r = iface.QueryRef(2);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->profile->description_length, 123u);
}

}  // namespace
}  // namespace mto
