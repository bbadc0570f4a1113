// Rendezvous (highest-random-weight) routing — unit tests for the
// balance-aware backend selection the pipelined engine routes through:
// stable assignment under fleet changes (minimal disruption), deterministic
// tie-breaks, load balance on skewed node-id populations where `v % N`
// aliases, and budget-exhausted exclusion without refusal churn. Every
// assignment is observed through a real fetch on a fault-free fleet: the
// backend whose unique_queries rose is the one that served the node.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/graph/generators.h"
#include "src/service/backend_pool.h"

namespace mto {
namespace {

constexpr uint64_t kFaultSeed = 0x5C0;

std::vector<BackendConfig> NamedBackends(
    const std::vector<std::string>& names) {
  std::vector<BackendConfig> backends(names.size());
  for (size_t b = 0; b < names.size(); ++b) backends[b].name = names[b];
  return backends;
}

/// Fetches `v` for real and returns the index of the backend that served
/// it (the one whose unique_queries rose), or SIZE_MAX when none did.
size_t FetchAndReportBackend(BackendPool& pool, NodeId v) {
  std::vector<uint64_t> before;
  for (size_t b = 0; b < pool.num_backends(); ++b) {
    before.push_back(pool.backend_stats(b).unique_queries);
  }
  pool.QueryRef(v);
  for (size_t b = 0; b < pool.num_backends(); ++b) {
    if (pool.backend_stats(b).unique_queries > before[b]) return b;
  }
  return SIZE_MAX;
}

/// Assignment of each id under a rendezvous pool with this fleet, reported
/// as backend *names* so fleets of different sizes compare. With distinct
/// names and no budgets the routing counters never enter the order, so one
/// pool serves every id as a fresh one would.
std::vector<std::string> AssignmentsByName(
    const SocialNetwork& net, const std::vector<std::string>& names,
    const std::vector<NodeId>& ids) {
  BackendPool pool(net, NamedBackends(names), RetryPolicy{},
                   BackendSelection::kRendezvous, kFaultSeed);
  std::vector<std::string> out;
  out.reserve(ids.size());
  for (NodeId v : ids) {
    const size_t b = FetchAndReportBackend(pool, v);
    out.push_back(b == SIZE_MAX ? "<none>" : names[b]);
  }
  return out;
}

TEST(RoutingTest, AddingABackendOnlyMovesNodesItWins) {
  // The rendezvous property: growing the fleet from {alpha, beta, gamma}
  // to {alpha, beta, gamma, delta} reassigns exactly the nodes whose new
  // top scorer is delta — every other node keeps its backend. (`v % N`
  // remaps ~3/4 of all nodes on the same change.)
  SocialNetwork net(Grid(32, 32));  // 1024 nodes
  std::vector<NodeId> ids;
  for (NodeId v = 0; v < 500; ++v) ids.push_back(v);
  const auto small = AssignmentsByName(net, {"alpha", "beta", "gamma"}, ids);
  const auto grown =
      AssignmentsByName(net, {"alpha", "beta", "gamma", "delta"}, ids);
  size_t moved = 0;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (grown[i] == "delta") {
      ++moved;
    } else {
      EXPECT_EQ(grown[i], small[i]) << "node " << ids[i] << " moved between "
                                    << "surviving backends";
    }
  }
  // delta should win roughly 1/4 of the nodes (binomial around 125/500) —
  // wide bounds, this pins the hash spreads rather than an exact share.
  EXPECT_GE(moved, 80u);
  EXPECT_LE(moved, 170u);
}

TEST(RoutingTest, RemovingABackendOnlyMovesItsOwnNodes) {
  SocialNetwork net(Grid(32, 32));
  std::vector<NodeId> ids;
  for (NodeId v = 0; v < 500; ++v) ids.push_back(v);
  const auto full = AssignmentsByName(net, {"alpha", "beta", "gamma"}, ids);
  const auto shrunk = AssignmentsByName(net, {"alpha", "beta"}, ids);
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_NE(full[i], "<none>") << "node " << ids[i];
    if (full[i] != "gamma") {
      EXPECT_EQ(shrunk[i], full[i])
          << "node " << ids[i] << " moved though its backend survived";
    }
  }
}

TEST(RoutingTest, DuplicateNameTiesBreakByLoadThenIndex) {
  // Two backends sharing a name score identically for every node, so the
  // tie-break chain is fully exercised: equal planned load → lower index;
  // after the lower-index twin absorbs a request, the other twin leads.
  SocialNetwork net(Grid(32, 32));
  const std::vector<std::string> names = {"dup", "dup", "unique"};
  const auto fresh_pool = [&] {
    return BackendPool(net, NamedBackends(names), RetryPolicy{},
                       BackendSelection::kRendezvous, kFaultSeed);
  };
  std::vector<NodeId> dup_nodes;
  size_t unique_wins = 0;
  for (NodeId v = 0; v < 200; ++v) {
    // On a fresh pool every dup-vs-dup tie resolves to index 0 — index 1
    // must never serve while loads are equal.
    BackendPool pool = fresh_pool();
    const size_t b = FetchAndReportBackend(pool, v);
    EXPECT_NE(b, 1u) << "node " << v;
    if (b == 0u) dup_nodes.push_back(v);
    if (b == 2u) ++unique_wins;
  }
  ASSERT_GE(dup_nodes.size(), 2u);  // both outcomes actually occur
  EXPECT_GT(unique_wins, 0u);
  // Once index 0 has served a dup-won node, the plan-time load tie-break
  // prefers the idle twin (index 1) for the next dup-won node.
  BackendPool pool = fresh_pool();
  ASSERT_EQ(FetchAndReportBackend(pool, dup_nodes[0]), 0u);
  EXPECT_EQ(FetchAndReportBackend(pool, dup_nodes[1]), 1u);
}

TEST(RoutingTest, SpreadsStridedNodeIdsWhereShardingAliases) {
  // Node-id populations with structure — every 4th id, as a partitioned
  // crawl would produce — collapse onto one backend under `v % N` but
  // spread uniformly under the rendezvous hash.
  SocialNetwork net(Grid(32, 32));
  const std::vector<std::string> names = {"a", "b", "c", "d"};
  std::vector<NodeId> ids;
  for (NodeId v = 0; v < 1024; v += 4) ids.push_back(v);  // 256 ids, all ≡ 0 (mod 4)

  BackendPool sharded(net, NamedBackends(names), RetryPolicy{},
                      BackendSelection::kSharded, kFaultSeed);
  for (NodeId v : ids) EXPECT_EQ(FetchAndReportBackend(sharded, v), 0u);
  EXPECT_EQ(sharded.backend_stats(0).unique_queries, ids.size());  // aliasing

  BackendPool rendezvous(net, NamedBackends(names), RetryPolicy{},
                         BackendSelection::kRendezvous, kFaultSeed);
  for (NodeId v : ids) ASSERT_LT(FetchAndReportBackend(rendezvous, v), 4u);
  for (size_t b = 0; b < 4; ++b) {
    // Expected 64 of 256 per backend; ±5σ bounds.
    const uint64_t count = rendezvous.backend_stats(b).unique_queries;
    EXPECT_GE(count, 32u) << "backend " << b;
    EXPECT_LE(count, 104u) << "backend " << b;
  }
}

TEST(RoutingTest, SpentBudgetExcludesBackendWithoutRefusals) {
  // A rendezvous backend whose budget is spent is partitioned out of
  // primary duty: its nodes route to the next scorer with a clean request,
  // not via a refusal op. (Sharded keeps the historical refusal-then-fail-
  // over behavior; the contrast is asserted below.)
  SocialNetwork net(Grid(32, 32));
  std::vector<BackendConfig> backends = NamedBackends({"alpha", "beta"});
  // Collect nodes whose top scorer is alpha, on an unbudgeted twin fleet.
  std::vector<NodeId> alpha_nodes;
  {
    BackendPool probe(net, backends, RetryPolicy{},
                      BackendSelection::kRendezvous, kFaultSeed);
    for (NodeId v = 0; v < 200 && alpha_nodes.size() < 4; ++v) {
      if (FetchAndReportBackend(probe, v) == 0u) alpha_nodes.push_back(v);
    }
  }
  ASSERT_EQ(alpha_nodes.size(), 4u);
  backends[0].budget = 2;
  BackendPool pool(net, backends, RetryPolicy{},
                   BackendSelection::kRendezvous, kFaultSeed);
  ASSERT_EQ(FetchAndReportBackend(pool, alpha_nodes[0]), 0u);
  ASSERT_EQ(FetchAndReportBackend(pool, alpha_nodes[1]), 0u);
  EXPECT_EQ(pool.backend_stats(0).unique_queries, 2u);  // budget spent
  // alpha's nodes now go to beta...
  EXPECT_EQ(FetchAndReportBackend(pool, alpha_nodes[2]), 1u);
  // ...with zero refusal ops charged anywhere (no faults in this fleet).
  EXPECT_EQ(pool.backend_stats(0).budget_refusals, 0u);
  EXPECT_EQ(pool.backend_stats(1).budget_refusals, 0u);
  EXPECT_LE(pool.backend_stats(0).unique_queries, 2u);  // never overdrawn

  // Sharded twin under the same exhaustion pattern: the spent primary
  // answers with a refusal before failing over — the churn rendezvous
  // avoids.
  std::vector<BackendConfig> sharded_backends = NamedBackends({"alpha", "beta"});
  sharded_backends[0].budget = 2;
  BackendPool sharded(net, sharded_backends, RetryPolicy{},
                      BackendSelection::kSharded, kFaultSeed);
  ASSERT_TRUE(sharded.QueryRef(0).has_value());  // even ids shard to alpha
  ASSERT_TRUE(sharded.QueryRef(2).has_value());
  ASSERT_TRUE(sharded.QueryRef(4).has_value());  // spent: refusal, then beta
  EXPECT_GT(sharded.backend_stats(0).budget_refusals, 0u);
}

TEST(RoutingTest, AllBudgetsSpentPlansNothingAndRefusesLoudly) {
  SocialNetwork net(Grid(32, 32));
  std::vector<BackendConfig> backends = NamedBackends({"alpha", "beta"});
  backends[0].budget = 1;
  backends[1].budget = 1;
  BackendPool pool(net, backends, RetryPolicy{},
                   BackendSelection::kRendezvous, kFaultSeed);
  ASSERT_TRUE(pool.QueryRef(0).has_value());
  ASSERT_TRUE(pool.QueryRef(1).has_value());
  EXPECT_EQ(pool.QueryCost(), 2u);
  // Both keys spent: the plan issues no real request for any id, only
  // refusal ops (the spent keys stay reachable as a last resort so an
  // all-spent pool fails loudly rather than silently)...
  const NodeId probe = 7;
  FetchPlan plan;
  pool.PlanFetchMisses({&probe, 1}, plan);
  EXPECT_EQ(plan.fetched[0], 0);
  ASSERT_FALSE(plan.batches.empty());
  for (const FetchPlan::Batch& batch : plan.batches) {
    EXPECT_EQ(batch.trips, 0u) << "backend " << batch.backend;
    pool.ApplyFetchBatch(batch);
  }
  EXPECT_GT(pool.backend_stats(0).budget_refusals +
                pool.backend_stats(1).budget_refusals,
            0u);
  // ...and a real fetch is permanently refused, with the refusals recorded
  // on the ledgers.
  EXPECT_FALSE(pool.QueryRef(probe).has_value());
  EXPECT_GT(pool.FailedFetches(), 0u);
  EXPECT_EQ(pool.backend_stats(0).requests + pool.backend_stats(1).requests,
            2u);  // no request beyond the two that spent the keys
  EXPECT_EQ(pool.QueryCost(), 2u);  // refused fetches cost nothing
}

}  // namespace
}  // namespace mto
