// One-fetch-engine equivalence (DESIGN.md §9): how a miss is executed is
// pure execution shape. The reference is the plainest crawl there is — a
// 1-thread free-run CrawlScheduler over a *bare* BackendPool, with no cache
// in between, so every miss plans and applies inline. The same crawl
// through ConcurrentInterfaceCache (misses planned under the ledger lock
// and applied outside it, frontier batches on per-backend lanes, lag-k
// joins) must reproduce the reference's positions,
// diagnostic stream, QueryCost, BackendRequests, FailedFetches and full
// per-backend ledgers for 1 and 4 threads x {plain, coalesced, MTO
// speculative, pipelined depth 2} x {clean, faults}.
//
// The paper's one perfect backend (a plain RestrictedInterface) runs the
// same engine: its cached crawls at 1 and 4 threads x {free-run,
// coalesced, coalesced depth 2} must reproduce a bare plain reference with
// the same stepping — positions, diagnostics, QueryCost and
// BackendRequests (chunked round trips make the trip count depend on the
// stepping, never on the thread count or depth).
//
// Ledger caveat, pinned precisely: with token-bucket pacing enabled the
// pacing fields (bucket level, clocks, waits) depend on per-backend arrival
// order, which multi-threaded stepping does not fix — so 1-thread sweep
// points run with pacing on and compare every field, while 4-thread points
// run pacing-free, where every ledger field is a pure sum of
// per-(backend, node, attempt) draws. Pacing runs compare against a
// reference with the same stepping (free-run steps walker-major within a
// RunRounds call, coalesced rounds round-major, so the two present the
// pool different arrival orders).

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/graph/datasets.h"
#include "src/graph/generators.h"
#include "src/runtime/concurrent_interface_cache.h"
#include "src/runtime/crawl_scheduler.h"
#include "src/service/backend_pool.h"
#include "src/service/crawl_service.h"
#include "src/walk/walk_program.h"

namespace mto {
namespace {

constexpr uint64_t kSeed = 0x5EED5;
constexpr uint64_t kFaultSeed = 0xFA17;
constexpr size_t kWalkers = 8;
constexpr size_t kChunks = 6;
constexpr size_t kRoundsPerChunk = 20;

/// An execution shape of the cached crawl.
struct Shape {
  const char* name;
  const char* program;
  bool coalesce;
  size_t pipeline_depth;
};

constexpr Shape kShapes[] = {
    {"plain", "srw", false, 0},
    {"coalesced", "srw", true, 0},
    {"speculative", "mto", true, 0},
    {"pipelined", "mto", true, 2},
};

struct Sweep {
  size_t shape;  ///< index into kShapes
  size_t threads;
  bool faults;
};

std::string SweepName(const testing::TestParamInfo<Sweep>& info) {
  return std::string(kShapes[info.param.shape].name) + "_" +
         std::to_string(info.param.threads) + "threads_" +
         (info.param.faults ? "faults" : "clean");
}

const SocialNetwork& Network() {
  static const SocialNetwork& net =
      *new SocialNetwork(MakeDataset("epinions_small"));
  return net;
}

/// Three backends with distinct latency draws; faults and pacing optional.
std::vector<BackendConfig> Backends(bool faults, bool pacing) {
  std::vector<BackendConfig> backends(3);
  backends[0].latency_mean_us = 150;
  backends[0].latency_sigma = 0.4;
  backends[1].latency_mean_us = 80;
  backends[2].latency_mean_us = 200;
  if (faults) {
    backends[0].error_rate = 0.2;
    backends[1].timeout_rate = 0.1;
    backends[2].quota_rate = 0.15;
  }
  if (pacing) {
    // Slow refill, small burst: the bucket drains within a handful of
    // ~80us-latency requests, so waits actually occur.
    backends[1].rate_per_sec = 1000.0;
    backends[1].burst = 4.0;
  }
  return backends;
}

struct Crawl {
  std::vector<NodeId> positions;
  std::vector<double> diagnostics;
  uint64_t query_cost = 0;
  uint64_t backend_requests = 0;
  uint64_t failed_fetches = 0;
  BackendPool::PoolSnapshot ledgers;
};

/// Runs kChunks x kRoundsPerChunk rounds of `program` over `base`, through
/// a ConcurrentInterfaceCache when `cached`, else over the bare session
/// (1 thread only). Fills everything but the pool-only fields.
Crawl Drive(RestrictedInterface& base, const char* program, bool coalesce,
            size_t pipeline_depth, size_t threads, bool cached) {
  // Real (small) round trips, so lane sleeps are live.
  base.SetSimulatedLatency(std::chrono::microseconds(cached ? 5 : 0));
  std::unique_ptr<ConcurrentInterfaceCache> cache;
  if (cached) cache = std::make_unique<ConcurrentInterfaceCache>(base);
  RestrictedInterface& session =
      cached ? static_cast<RestrictedInterface&>(*cache) : base;
  CrawlConfig config;
  config.num_walkers = kWalkers;
  config.num_threads = threads;
  config.coalesce_frontier = coalesce;
  config.pipeline_depth = pipeline_depth;
  const WalkProgram& walk = GetWalkProgram(program);
  CrawlScheduler scheduler(
      session, config, kSeed,
      [&walk](RestrictedInterface& iface, Rng& rng, size_t) {
        const NodeId start =
            static_cast<NodeId>(rng.UniformInt(iface.num_users()));
        return walk.MakeWalker(iface, rng, start, WalkProgramParams{});
      });
  Crawl out;
  for (size_t chunk = 0; chunk < kChunks; ++chunk) {
    scheduler.RunRounds(kRoundsPerChunk, &out.diagnostics);
  }
  out.positions = scheduler.Positions();
  out.query_cost = session.QueryCost();
  out.backend_requests = session.BackendRequests();
  return out;
}

/// Drive over a fresh three-backend pool, plus its ledgers.
Crawl RunCrawl(const char* program, bool coalesce, size_t pipeline_depth,
               size_t threads, bool faults, bool pacing, bool cached) {
  RetryPolicy retry;
  retry.max_attempts_per_backend = 10;
  BackendPool pool(Network(), Backends(faults, pacing), retry,
                   BackendSelection::kSharded, kFaultSeed);
  Crawl out = Drive(pool, program, coalesce, pipeline_depth, threads, cached);
  out.failed_fetches = pool.FailedFetches();
  out.ledgers = pool.SnapshotBackends();
  return out;
}

/// Drive over a fresh plain interface: one perfect backend serving up to 8
/// ids per round trip.
Crawl RunPlainCrawl(bool coalesce, size_t pipeline_depth, size_t threads,
                    bool cached) {
  RestrictedInterface plain(Network());
  plain.SetMaxBatchSize(8);
  return Drive(plain, "srw", coalesce, pipeline_depth, threads, cached);
}

/// The bare-pool 1-thread reference, computed once per key.
const Crawl& Reference(const char* program, bool coalesce, bool faults,
                       bool pacing) {
  using Key = std::tuple<std::string, bool, bool, bool>;
  static std::map<Key, Crawl>& cache = *new std::map<Key, Crawl>();
  const Key key{program, coalesce, faults, pacing};
  auto it = cache.find(key);
  if (it == cache.end()) {
    it = cache
             .emplace(key, RunCrawl(program, coalesce, 0, 1, faults, pacing,
                                    /*cached=*/false))
             .first;
  }
  return it->second;
}

void ExpectLedgersBitIdentical(const BackendPool::PoolSnapshot& want,
                               const BackendPool::PoolSnapshot& got) {
  EXPECT_EQ(want.round_robin_cursor, got.round_robin_cursor);
  EXPECT_EQ(want.failed_fetches, got.failed_fetches);
  ASSERT_EQ(want.ledgers.size(), got.ledgers.size());
  for (size_t b = 0; b < want.ledgers.size(); ++b) {
    SCOPED_TRACE("backend " + std::to_string(b));
    const BackendLedger& w = want.ledgers[b];
    const BackendLedger& g = got.ledgers[b];
    EXPECT_EQ(w.stats.unique_queries, g.stats.unique_queries);
    EXPECT_EQ(w.stats.requests, g.stats.requests);
    EXPECT_EQ(w.stats.failed_requests, g.stats.failed_requests);
    EXPECT_EQ(w.stats.timeouts, g.stats.timeouts);
    EXPECT_EQ(w.stats.transient_errors, g.stats.transient_errors);
    EXPECT_EQ(w.stats.quota_rejections, g.stats.quota_rejections);
    EXPECT_EQ(w.stats.budget_refusals, g.stats.budget_refusals);
    EXPECT_EQ(w.stats.pacing_waits, g.stats.pacing_waits);
    EXPECT_EQ(w.stats.simulated_us, g.stats.simulated_us);
    EXPECT_EQ(w.clock_us, g.clock_us);
    EXPECT_EQ(w.bucket_tokens, g.bucket_tokens);  // bitwise double
    EXPECT_EQ(w.last_refill_us, g.last_refill_us);
  }
}

void ExpectCrawlsBitIdentical(const Crawl& want, const Crawl& got) {
  EXPECT_EQ(want.positions, got.positions);
  EXPECT_EQ(want.diagnostics, got.diagnostics);  // bitwise doubles
  EXPECT_EQ(want.query_cost, got.query_cost);
  EXPECT_EQ(want.backend_requests, got.backend_requests);
  EXPECT_EQ(want.failed_fetches, got.failed_fetches);
  ExpectLedgersBitIdentical(want.ledgers, got.ledgers);
}

class FetchEquivalenceTest : public testing::TestWithParam<Sweep> {};

TEST_P(FetchEquivalenceTest, CachedCrawlMatchesBarePoolReference) {
  const Sweep& sweep = GetParam();
  const Shape& shape = kShapes[sweep.shape];
  const bool pacing = sweep.threads == 1;
  const Crawl got =
      RunCrawl(shape.program, shape.coalesce, shape.pipeline_depth,
               sweep.threads, sweep.faults, pacing, /*cached=*/true);
  // Pacing fields follow arrival order, so a pacing run needs a reference
  // that presents the pool the same order: same stepping, 1 thread.
  const Crawl& reference =
      Reference(shape.program, pacing && shape.coalesce, sweep.faults, pacing);
  ExpectCrawlsBitIdentical(reference, got);
  if (sweep.faults) {
    EXPECT_GT(got.ledgers.ledgers[0].stats.failed_requests, 0u);
  }
  // The pacing path actually fired, or the 1-thread points pin nothing.
  if (pacing) {
    EXPECT_GT(got.ledgers.ledgers[1].stats.pacing_waits, 0u);
  }
}

std::vector<Sweep> AllSweeps() {
  std::vector<Sweep> sweeps;
  for (size_t shape = 0; shape < std::size(kShapes); ++shape) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      for (bool faults : {false, true}) {
        sweeps.push_back({shape, threads, faults});
      }
    }
  }
  return sweeps;
}

INSTANTIATE_TEST_SUITE_P(Sweep, FetchEquivalenceTest,
                         testing::ValuesIn(AllSweeps()), SweepName);

/// An execution shape of the cached plain crawl.
struct PlainSweep {
  const char* name;
  bool coalesce;
  size_t pipeline_depth;
  size_t threads;
};

class PlainFetchEquivalenceTest : public testing::TestWithParam<PlainSweep> {
};

TEST_P(PlainFetchEquivalenceTest, CachedCrawlMatchesBarePlainReference) {
  const PlainSweep& sweep = GetParam();
  const Crawl got = RunPlainCrawl(sweep.coalesce, sweep.pipeline_depth,
                                  sweep.threads, /*cached=*/true);
  const Crawl reference =
      RunPlainCrawl(sweep.coalesce, 0, 1, /*cached=*/false);
  EXPECT_EQ(reference.positions, got.positions);
  EXPECT_EQ(reference.diagnostics, got.diagnostics);  // bitwise doubles
  EXPECT_EQ(reference.query_cost, got.query_cost);
  EXPECT_EQ(reference.backend_requests, got.backend_requests);
  // Not vacuous: coalesced frontiers share round trips, free-run misses
  // pay one each.
  if (sweep.coalesce) {
    EXPECT_LT(got.backend_requests, got.query_cost);
  } else {
    EXPECT_EQ(got.backend_requests, got.query_cost);
  }
}

std::vector<PlainSweep> AllPlainSweeps() {
  std::vector<PlainSweep> sweeps;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    sweeps.push_back({"freerun", false, 0, threads});
    sweeps.push_back({"coalesced", true, 0, threads});
    sweeps.push_back({"pipelined", true, 2, threads});
  }
  return sweeps;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PlainFetchEquivalenceTest, testing::ValuesIn(AllPlainSweeps()),
    [](const testing::TestParamInfo<PlainSweep>& info) {
      return std::string(info.param.name) + "_" +
             std::to_string(info.param.threads) + "threads";
    });

TEST(FetchEquivalenceExtrasTest, FrontierChargesOnlyDistinctMisses) {
  // Every session serves FetchFrontier the same way: a cached or repeated
  // id is answered from cache and charged nothing, so only the distinct
  // misses count requests, unique queries and round trips. The bare
  // interface chunks its misses into one trip per max_batch_size(); the
  // pool pays one request per unique fetch.
  SocialNetwork net(Cycle(64));
  const auto make_pool = [&net] {
    return BackendPool(net, std::vector<BackendConfig>(2), RetryPolicy{},
                       BackendSelection::kSharded, kFaultSeed);
  };
  RestrictedInterface plain(net);
  RestrictedInterface plain_base(net);
  ConcurrentInterfaceCache cached_plain(plain_base);
  BackendPool pool = make_pool();
  BackendPool pool_base = make_pool();
  ConcurrentInterfaceCache cached_pool(pool_base);
  struct Case {
    const char* name;
    RestrictedInterface* session;
    uint64_t trips_after_second;
  };
  const Case cases[] = {
      {"plain", &plain, 3},
      {"cached_plain", &cached_plain, 3},
      {"pool", &pool, 4},
      {"cached_pool", &cached_pool, 4},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    RestrictedInterface* session = c.session;
    ASSERT_TRUE(session->QueryRef(3).has_value());
    const std::vector<NodeId> first = {3, 7, 7};  // a hit, a repeated miss
    session->FetchFrontier(first);
    EXPECT_EQ(session->QueryCost(), 2u);
    EXPECT_EQ(session->BackendRequests(), 2u);
    EXPECT_EQ(session->TotalRequests(), 2u);
    // Hits, repeats and two fresh misses, interleaved.
    const std::vector<NodeId> second = {7, 9, 3, 9, 11, 7};
    session->FetchFrontier(second);
    EXPECT_EQ(session->QueryCost(), 4u);
    EXPECT_EQ(session->BackendRequests(), c.trips_after_second);
    EXPECT_EQ(session->TotalRequests(), 4u);
    for (NodeId v : {3u, 7u, 9u, 11u}) EXPECT_TRUE(session->IsCached(v));
  }
}

TEST(FetchEquivalenceExtrasTest, PacingIsArrivalOrderDependent) {
  // The pinned counterexample behind the 1-thread-only pacing assertion
  // above (DESIGN.md §9): token-bucket state is a function of per-backend
  // arrival *order*, which multi-threaded stepping does not fix in any
  // fetch mode — two walker threads racing their first-touch misses reach
  // the pool in whichever order the OS schedules, sync and async alike.
  // Twin pools serve the same two fetches in opposite orders: every count
  // matches (requests, uniques, pacing waits — the draws are pure per
  // (backend, node, attempt)), but the wait *lengths*, and with them the
  // backend clock and simulated time, differ. No 4-thread equivalence
  // assertion over pacing fields can therefore hold; it would compare two
  // runs of an order-dependent quantity with unpinned orders.
  SocialNetwork net(Grid(8, 8));
  auto make_pool = [&net] {
    BackendConfig backend;
    backend.latency_mean_us = 300;
    backend.latency_sigma = 0.5;     // distinct per-node latency draws
    backend.rate_per_sec = 1000.0;   // 1 token/ms: the second fetch waits
    backend.burst = 1.0;
    return BackendPool(net, {backend}, RetryPolicy{},
                       BackendSelection::kSharded, 0xFA17);
  };
  BackendPool ab = make_pool();
  ASSERT_TRUE(ab.QueryRef(0).has_value());
  ASSERT_TRUE(ab.QueryRef(1).has_value());
  BackendPool ba = make_pool();
  ASSERT_TRUE(ba.QueryRef(1).has_value());
  ASSERT_TRUE(ba.QueryRef(0).has_value());
  const BackendStats s_ab = ab.backend_stats(0);
  const BackendStats s_ba = ba.backend_stats(0);
  // Order-independent counts agree...
  EXPECT_EQ(s_ab.requests, s_ba.requests);
  EXPECT_EQ(s_ab.unique_queries, s_ba.unique_queries);
  EXPECT_EQ(s_ab.failed_requests, s_ba.failed_requests);
  EXPECT_EQ(s_ab.pacing_waits, s_ba.pacing_waits);
  EXPECT_EQ(s_ab.pacing_waits, 1u);  // the bucket actually throttled
  // ...but the pacing-bearing fields depend on which node arrived first:
  // the wait absorbed by the second fetch is a function of the first's
  // latency draw, and node 0 and node 1 draw different latencies.
  EXPECT_NE(s_ab.simulated_us, s_ba.simulated_us);
  EXPECT_NE(ab.SnapshotBackends().ledgers[0].clock_us,
            ba.SnapshotBackends().ledgers[0].clock_us);
}

/// Three-backend service scenario for the observability twin below.
ScenarioConfig ObservedScenario() {
  ScenarioConfig config;
  config.dataset = "epinions_small";
  config.seed = kSeed;
  config.num_walkers = kWalkers;
  config.num_threads = 4;
  config.coalesce_frontier = true;
  config.program.name = "mto";
  config.geweke_check_every = 20;
  config.geweke_min_length = 40;
  config.max_burn_in_rounds = 120;
  config.num_samples = 16;
  config.thinning = 3;
  config.fault_seed = kFaultSeed;
  config.retry.max_attempts_per_backend = 10;
  config.backends = Backends(/*faults=*/true, /*pacing=*/false);
  return config;
}

TEST(FetchEquivalenceExtrasTest, ObservabilityOnIsBitIdenticalToOff) {
  // The observability passivity contract (DESIGN.md §11): metrics,
  // tracing, periodic snapshots, and the run report draw no randomness,
  // issue no queries, and mutate no session state, so a fully observed
  // crawl is bit-identical — results and per-backend ledgers — to the
  // unobserved one.
  const ScenarioConfig config = ObservedScenario();
  CrawlService plain(config);
  const ServiceResult plain_result = plain.Run();

  ScenarioConfig observed_config = config;
  observed_config.observability.metrics = true;
  observed_config.observability.snapshot_every_units = 2;
  observed_config.observability.http_port = 0;  // live exporter on too
  const std::string trace_path =
      testing::TempDir() + "/fetch_equivalence_obs.trace.json";
  const std::string report_path =
      testing::TempDir() + "/fetch_equivalence_obs.report.json";
  observed_config.observability.trace_path = trace_path;
  observed_config.observability.report_path = report_path;
  CrawlService observed(observed_config);
  const ServiceResult observed_result = observed.Run();

  EXPECT_EQ(plain_result.samples, observed_result.samples);
  ASSERT_EQ(plain_result.trace.size(), observed_result.trace.size());
  for (size_t i = 0; i < plain_result.trace.size(); ++i) {
    EXPECT_EQ(plain_result.trace[i].query_cost,
              observed_result.trace[i].query_cost);
    EXPECT_EQ(plain_result.trace[i].estimate,
              observed_result.trace[i].estimate);
  }
  EXPECT_EQ(plain_result.final_estimate, observed_result.final_estimate);
  EXPECT_EQ(plain_result.total_query_cost, observed_result.total_query_cost);
  EXPECT_EQ(plain_result.backend_requests, observed_result.backend_requests);
  EXPECT_EQ(plain_result.failed_fetches, observed_result.failed_fetches);
  EXPECT_EQ(plain_result.simulated_time_us,
            observed_result.simulated_time_us);
  ExpectLedgersBitIdentical(plain.pool().SnapshotBackends(),
                            observed.pool().SnapshotBackends());
  // Telemetry actually materialized: snapshots were taken and both output
  // files exist and parse as JSON.
  EXPECT_FALSE(observed.snapshots().empty());
  EXPECT_NO_THROW(ParseJsonFile(trace_path));
  EXPECT_NO_THROW(ParseJsonFile(report_path));
  std::remove(trace_path.c_str());
  std::remove(report_path.c_str());
}

}  // namespace
}  // namespace mto
