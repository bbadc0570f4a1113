// src/obs primitives: histogram bucket geometry, sharded counter merging,
// registry naming/labeling, snapshot JSON — plus the counter conservation
// laws the instrumentation relies on, pinned against a faulty multi-backend
// crawl (the audit that backs DESIGN.md §11's "sourced from existing
// ledgers" claim).

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "src/graph/datasets.h"
#include "src/obs/metrics.h"
#include "src/service/crawl_service.h"

namespace mto {
namespace {

TEST(HistogramTest, BucketIndexEdges) {
  // Bucket 0 holds exactly 0; bucket k (k >= 1) holds [2^(k-1), 2^k - 1].
  EXPECT_EQ(obs::Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(obs::Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(obs::Histogram::BucketIndex(2), 2u);
  EXPECT_EQ(obs::Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(obs::Histogram::BucketIndex(4), 3u);
  EXPECT_EQ(obs::Histogram::BucketIndex(7), 3u);
  EXPECT_EQ(obs::Histogram::BucketIndex(8), 4u);
  EXPECT_EQ(obs::Histogram::BucketIndex(1023), 10u);
  EXPECT_EQ(obs::Histogram::BucketIndex(1024), 11u);
  EXPECT_EQ(obs::Histogram::BucketIndex(UINT64_MAX), 64u);
}

TEST(HistogramTest, BucketUpperBounds) {
  EXPECT_EQ(obs::Histogram::BucketUpperBound(0), 0u);
  EXPECT_EQ(obs::Histogram::BucketUpperBound(1), 1u);
  EXPECT_EQ(obs::Histogram::BucketUpperBound(2), 3u);
  EXPECT_EQ(obs::Histogram::BucketUpperBound(3), 7u);
  EXPECT_EQ(obs::Histogram::BucketUpperBound(10), 1023u);
  EXPECT_EQ(obs::Histogram::BucketUpperBound(obs::Histogram::kBuckets - 1), UINT64_MAX);
  // Every value lands in the bucket whose bound covers it and whose
  // predecessor's does not — the invariant rendering code relies on.
  for (uint64_t v : {0ull, 1ull, 2ull, 100ull, 65536ull, (1ull << 40) + 7}) {
    const size_t i = obs::Histogram::BucketIndex(v);
    EXPECT_LE(v, obs::Histogram::BucketUpperBound(i)) << v;
    if (i > 0) {
      EXPECT_GT(v, obs::Histogram::BucketUpperBound(i - 1)) << v;
    }
  }
}

TEST(HistogramTest, SnapMergesRecordsAcrossValues) {
  obs::Histogram h;
  h.Record(0);
  h.Record(1);
  h.Record(5);
  h.Record(5);
  h.Record(1000);
  const obs::Histogram::Snapshot snap = h.Snap();
  EXPECT_EQ(snap.count, 5u);
  EXPECT_EQ(snap.sum, 0u + 1 + 5 + 5 + 1000);
  // Only occupied buckets appear, sorted by bound: 0, 1, [4,7], [512,1023].
  ASSERT_EQ(snap.buckets.size(), 4u);
  EXPECT_EQ(snap.buckets[0], (std::pair<uint64_t, uint64_t>{0, 1}));
  EXPECT_EQ(snap.buckets[1], (std::pair<uint64_t, uint64_t>{1, 1}));
  EXPECT_EQ(snap.buckets[2], (std::pair<uint64_t, uint64_t>{7, 2}));
  EXPECT_EQ(snap.buckets[3], (std::pair<uint64_t, uint64_t>{1023, 1}));
}

TEST(HistogramTest, QuantilesInterpolateWithinBuckets) {
  // 100 records of exact value 10 land in bucket [8, 15]: every quantile
  // must stay inside that bucket's range regardless of interpolation.
  obs::Histogram h;
  for (int i = 0; i < 100; ++i) h.Record(10);
  const obs::Histogram::Snapshot snap = h.Snap();
  for (double q : {0.5, 0.95, 0.99}) {
    const double v = snap.Quantile(q);
    EXPECT_GE(v, 9.0) << q;   // bucket lower edge 8/2+1
    EXPECT_LE(v, 15.0) << q;  // bucket upper bound
  }
  EXPECT_EQ(snap.p50, snap.Quantile(0.5));
  EXPECT_EQ(snap.p95, snap.Quantile(0.95));
  EXPECT_EQ(snap.p99, snap.Quantile(0.99));
}

TEST(HistogramTest, QuantileBucketEdges) {
  // 90 zeros + 10 values in [512, 1023]: p50 sits in the zero bucket
  // (exactly 0), p95/p99 in the tail bucket.
  obs::Histogram h;
  for (int i = 0; i < 90; ++i) h.Record(0);
  for (int i = 0; i < 10; ++i) h.Record(1000);
  const obs::Histogram::Snapshot snap = h.Snap();
  EXPECT_EQ(snap.p50, 0.0);
  EXPECT_GE(snap.p95, 513.0);  // tail bucket lower edge 1023/2+1
  EXPECT_LE(snap.p95, 1023.0);
  EXPECT_GE(snap.p99, snap.p95);  // monotone within one bucket
  EXPECT_LE(snap.p99, 1023.0);
  // Degenerate cases: empty histogram and out-of-range q are total.
  EXPECT_EQ(obs::Histogram().Snap().Quantile(0.5), 0.0);
  EXPECT_EQ(snap.Quantile(-1.0), snap.Quantile(0.0));
  EXPECT_EQ(snap.Quantile(2.0), snap.Quantile(1.0));
}

TEST(HistogramTest, QuantilesSurviveJsonRoundTrip) {
  obs::MetricsRegistry registry;
  obs::Histogram* h = registry.GetHistogram("lat.us");
  for (uint64_t v = 1; v <= 64; ++v) h->Record(v);
  const obs::StatsSnapshot snap = registry.Snapshot(1);
  const JsonValue json = snap.ToJson();
  const JsonValue& hist = json.At("histograms").At("lat.us");
  EXPECT_EQ(hist.At("p50").AsDouble(), snap.metrics[0].histogram.p50);
  EXPECT_EQ(hist.At("p95").AsDouble(), snap.metrics[0].histogram.p95);
  EXPECT_EQ(hist.At("p99").AsDouble(), snap.metrics[0].histogram.p99);
  EXPECT_GT(hist.At("p50").AsDouble(), 0.0);
}

TEST(RegistryTest, DoubleGaugeRoundTrips) {
  obs::MetricsRegistry registry;
  registry.GetDoubleGauge("estimate.geweke_z")->Set(0.125);
  registry.GetDoubleGauge("estimate.geweke_z")->Set(0.0625);  // same gauge
  EXPECT_EQ(registry.DoubleGaugeValue("estimate.geweke_z"), 0.0625);
  EXPECT_EQ(registry.DoubleGaugeValue("missing"), 0.0);
  const obs::StatsSnapshot snap = registry.Snapshot(0);
  ASSERT_EQ(snap.metrics.size(), 1u);
  EXPECT_EQ(snap.metrics[0].kind, obs::MetricSnapshot::Kind::kDoubleGauge);
  EXPECT_EQ(snap.metrics[0].dgauge, 0.0625);
  // Double gauges publish into the snapshot's "gauges" JSON object.
  EXPECT_EQ(snap.ToJson().At("gauges").At("estimate.geweke_z").AsDouble(),
            0.0625);
}

TEST(CounterTest, ConcurrentIncrementsMergeExactly) {
  // 8 threads x 100k increments across the per-thread shards; Value() must
  // see every one once the writers join. The TSan CI job runs this test
  // (label "runtime"), which also proves the shards race-free.
  obs::Counter counter;
  obs::Histogram histogram;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter, &histogram] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        counter.Add();
        if (i % 1000 == 0) histogram.Record(i);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
  EXPECT_EQ(histogram.Snap().count, kThreads * (kPerThread / 1000));
}

TEST(RegistryTest, GetIsIdempotentAndLabelsSeparate) {
  obs::MetricsRegistry registry;
  obs::Counter* a = registry.GetCounter("cache.hits");
  obs::Counter* b = registry.GetCounter("cache.hits");
  EXPECT_EQ(a, b);  // same object: resolve-once pointers stay valid
  obs::Counter* labeled = registry.GetCounter("cache.hits", "backend", "key-0");
  EXPECT_NE(a, labeled);
  a->Add(3);
  labeled->Add(5);
  EXPECT_EQ(registry.CounterValue("cache.hits"), 3u);
  EXPECT_EQ(registry.CounterValue("cache.hits{backend=key-0}"), 5u);
  EXPECT_EQ(registry.CounterValue("absent"), 0u);
  EXPECT_EQ(obs::MetricsRegistry::LabeledName("n", "k", "v"), "n{k=v}");
}

TEST(RegistryTest, SnapshotRoundTripsThroughJson) {
  obs::MetricsRegistry registry;
  registry.GetCounter("c")->Add(7);
  registry.GetGauge("g")->Set(-3);
  registry.GetHistogram("h")->Record(5);
  const obs::StatsSnapshot snap = registry.Snapshot(42);
  EXPECT_EQ(snap.unit, 42u);
  const JsonValue json = snap.ToJson();
  EXPECT_EQ(json.At("unit").AsUint(), 42u);
  EXPECT_EQ(json.At("counters").At("c").AsUint(), 7u);
  EXPECT_EQ(json.At("gauges").At("g").AsDouble(), -3.0);
  EXPECT_EQ(json.At("histograms").At("h").At("count").AsUint(), 1u);
  // The writer prints counters digit-exact and the parser reads them back.
  const JsonValue reparsed = ParseJson(DumpJson(json, 2));
  EXPECT_EQ(reparsed.At("counters").At("c").AsUint(), 7u);
}

// ---------------------------------------------------------------------------
// Conservation laws. The audited invariants of the existing ledgers (no
// retry/failover double-counting anywhere in BackendPool):
//   per backend:  requests == unique_queries + failed_requests
//                 failed_requests == timeouts + transient_errors
//                                    + quota_rejections
//                 (budget refusals never issue a request)
//   pool:         BackendRequests() == sum of per-backend requests
//                 QueryCost() == sum of per-backend unique_queries
//   cache:        hits + misses == TotalRequests()  (hits derived at
//                 publish time from the session's total-request counter —
//                 the lock-free hit path carries zero telemetry work)
// ---------------------------------------------------------------------------

TEST(ConservationTest, FaultyMultiBackendCrawlBalancesItsBooks) {
  ScenarioConfig config;
  config.dataset = "epinions_small";
  config.seed = 0x5EED5;
  config.num_walkers = 8;
  config.num_threads = 4;
  config.coalesce_frontier = true;
  config.program.name = "srw";
  config.geweke_check_every = 20;
  config.geweke_min_length = 40;
  config.max_burn_in_rounds = 80;
  config.num_samples = 16;
  config.thinning = 3;
  config.fault_seed = 0xFA17;
  config.retry.max_attempts_per_backend = 4;
  config.backends.resize(3);
  config.backends[0].error_rate = 0.2;
  config.backends[1].timeout_rate = 0.15;
  config.backends[2].quota_rate = 0.15;
  config.backends[2].budget = 400;  // force refusals + failover into play
  config.observability.metrics = true;
  CrawlService service(config);
  const ServiceResult result = service.Run();

  uint64_t sum_requests = 0;
  uint64_t sum_unique = 0;
  bool any_faults = false;
  for (const BackendStats& s : result.backend_stats) {
    EXPECT_EQ(s.requests, s.unique_queries + s.failed_requests);
    EXPECT_EQ(s.failed_requests,
              s.timeouts + s.transient_errors + s.quota_rejections);
    sum_requests += s.requests;
    sum_unique += s.unique_queries;
    any_faults = any_faults || s.failed_requests > 0;
  }
  EXPECT_TRUE(any_faults);  // the fault path actually fired
  EXPECT_EQ(result.backend_requests, sum_requests);
  EXPECT_EQ(result.total_query_cost, sum_unique);

  // Registry view agrees with the ledgers (PublishMetrics ran at the final
  // snapshot), and the cache's hit/miss split covers every request.
  obs::MetricsRegistry& registry = *service.metrics();
  uint64_t gauge_requests = 0;
  for (size_t b = 0; b < service.pool().num_backends(); ++b) {
    gauge_requests += static_cast<uint64_t>(registry.GaugeValue(
        obs::MetricsRegistry::LabeledName("backend.requests", "backend",
                                     service.pool().backend_config(b).name)));
  }
  EXPECT_EQ(gauge_requests, sum_requests);
  EXPECT_EQ(
      static_cast<uint64_t>(registry.GaugeValue("pool.backend_requests")),
      sum_requests);

  const uint64_t hits =
      static_cast<uint64_t>(registry.GaugeValue("cache.hits"));
  const uint64_t misses = registry.CounterValue("cache.misses");
  EXPECT_EQ(hits + misses, service.session().TotalRequests());
  EXPECT_GT(hits, 0u);
  EXPECT_GT(misses, 0u);
}

TEST(ConservationTest, BudgetRefusalsNeverCountAsRequests) {
  // A backend whose budget is exhausted turns fetches away at the door:
  // refusals are tallied separately and the request/unique/failed balance
  // still holds exactly.
  SocialNetwork net(MakeDataset("epinions_small"));
  BackendConfig tiny;
  tiny.budget = 5;
  BackendPool pool(net, {tiny}, RetryPolicy{}, BackendSelection::kSharded,
                   0xFA17);
  for (NodeId v = 0; v < 50; ++v) pool.QueryRef(v);
  const BackendStats s = pool.backend_stats(0);
  EXPECT_EQ(s.unique_queries, 5u);
  EXPECT_EQ(s.requests, s.unique_queries + s.failed_requests);
  EXPECT_GT(s.budget_refusals, 0u);
  EXPECT_EQ(pool.FailedFetches(), s.budget_refusals);
  EXPECT_EQ(pool.BackendRequests(), s.requests);
}

}  // namespace
}  // namespace mto
