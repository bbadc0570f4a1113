// The live introspection surface: Prometheus rendering, the progress
// watchdog's three health rules, the HTTP endpoints of a real CrawlService
// run (including /healthz flipping unhealthy under an injected stall and
// /quitquitquit's graceful checkpoint-then-stop resuming bit-identically),
// and a TSan-visible scrape storm that must not perturb the crawl.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/exporter.h"
#include "src/obs/watchdog.h"
#include "src/service/crawl_service.h"

namespace mto {
namespace {

struct HttpResponse {
  int status = 0;  ///< 0 = transport failure
  std::string body;
};

/// Sends raw bytes to 127.0.0.1:port and parses whatever comes back
/// (status 0 on transport failure). Raw on purpose: the malformed-request
/// regression below needs request lines no well-behaved client would send.
HttpResponse HttpExchange(uint16_t port, const std::string& request) {
  HttpResponse response;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return response;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return response;
  }
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string raw;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    raw.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  // "HTTP/1.1 200 OK\r\n...\r\n\r\n<body>"
  if (raw.size() < 12 || raw.compare(0, 5, "HTTP/") != 0) return response;
  response.status = std::atoi(raw.c_str() + 9);
  const size_t split = raw.find("\r\n\r\n");
  if (split != std::string::npos) response.body = raw.substr(split + 4);
  return response;
}

/// Minimal blocking HTTP GET against 127.0.0.1:port.
HttpResponse HttpGet(uint16_t port, const std::string& path) {
  return HttpExchange(port, "GET " + path +
                                " HTTP/1.1\r\nHost: localhost\r\n"
                                "Connection: close\r\n\r\n");
}

ScenarioConfig LiveScenario() {
  ScenarioConfig config;
  config.dataset = "epinions_small";
  config.seed = 0x11FE;
  config.num_walkers = 8;
  config.num_threads = 4;
  config.coalesce_frontier = true;
  config.program.name = "mto";
  config.geweke_check_every = 20;
  config.geweke_min_length = 40;
  config.max_burn_in_rounds = 80;
  config.num_samples = 16;
  config.thinning = 3;
  config.fault_seed = 0xFA17;
  config.backends.resize(2);
  config.backends[0].error_rate = 0.1;
  config.backends[1].latency_mean_us = 100;
  config.observability.metrics = true;
  config.observability.snapshot_every_units = 1;
  config.observability.http_port = 0;  // ephemeral
  return config;
}

// ---------------------------------------------------------------------------
// RenderPrometheus

TEST(RenderPrometheusTest, FormatsEveryMetricKind) {
  obs::MetricsRegistry registry;
  registry.GetCounter("scheduler.rounds")->Add(5);
  registry.GetGauge("backend.requests", "backend", "us-east")->Set(7);
  registry.GetDoubleGauge("estimate.geweke_z")->Set(0.25);
  obs::Histogram* h = registry.GetHistogram("fetch.us");
  h->Record(1);
  h->Record(2);
  h->Record(1000);

  const std::string text = RenderPrometheus(registry.Snapshot(3));

  // Names sanitize (dots to underscores); the baked label becomes a real
  // Prometheus label; every family gets exactly one TYPE header.
  EXPECT_NE(text.find("# TYPE scheduler_rounds counter\n"), std::string::npos);
  EXPECT_NE(text.find("scheduler_rounds 5\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE backend_requests gauge\n"), std::string::npos);
  EXPECT_NE(text.find("backend_requests{backend=\"us-east\"} 7\n"),
            std::string::npos);
  EXPECT_NE(text.find("estimate_geweke_z 0.25\n"), std::string::npos);

  // Histogram: cumulative buckets (1; 1+1 under le=3; all 3 under le=1023),
  // the mandatory +Inf series equal to _count, then sum/count and the
  // companion quantile gauges.
  EXPECT_NE(text.find("# TYPE fetch_us histogram\n"), std::string::npos);
  EXPECT_NE(text.find("fetch_us_bucket{le=\"1\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("fetch_us_bucket{le=\"3\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("fetch_us_bucket{le=\"1023\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("fetch_us_bucket{le=\"+Inf\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("fetch_us_sum 1003\n"), std::string::npos);
  EXPECT_NE(text.find("fetch_us_count 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE fetch_us_p50 gauge\n"), std::string::npos);
  EXPECT_NE(text.find("fetch_us_p50 "), std::string::npos);
  EXPECT_NE(text.find("fetch_us_p99 "), std::string::npos);
}

TEST(RenderPrometheusTest, LabeledHistogramsShareOneTypeHeader) {
  obs::MetricsRegistry registry;
  registry.GetHistogram("fetch.us", "backend", "a")->Record(4);
  registry.GetHistogram("fetch.us", "backend", "b")->Record(8);
  const std::string text = RenderPrometheus(registry.Snapshot(0));
  // One family header despite two labeled series.
  size_t first = text.find("# TYPE fetch_us histogram");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find("# TYPE fetch_us histogram", first + 1),
            std::string::npos);
  EXPECT_NE(text.find("fetch_us_bucket{backend=\"a\",le=\"7\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("fetch_us_bucket{backend=\"b\",le=\"15\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("fetch_us_count{backend=\"a\"} 1\n"), std::string::npos);
}

// ---------------------------------------------------------------------------
// ProgressWatchdog rules

TEST(WatchdogTest, StallRuleFiresRearmsAndDisarmsOnDone) {
  obs::ProgressWatchdog::Options options;
  options.stall_timeout_ms = 1;
  obs::ProgressWatchdog watchdog(options);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  obs::ProgressWatchdog::Verdict verdict = watchdog.Evaluate();
  EXPECT_FALSE(verdict.healthy);
  ASSERT_EQ(verdict.reasons.size(), 1u);
  EXPECT_NE(verdict.reasons[0].find("stalled"), std::string::npos);

  watchdog.NoteUnitComplete();  // progress re-arms the clock
  EXPECT_TRUE(watchdog.Evaluate().healthy);

  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(watchdog.Evaluate().healthy);
  watchdog.NoteDone();  // a finished run is healthy forever
  verdict = watchdog.Evaluate();
  EXPECT_TRUE(verdict.healthy);
  EXPECT_TRUE(verdict.done);
}

obs::StatsSnapshot LaneSnapshot(int64_t depth, int64_t peak) {
  obs::MetricsRegistry registry;
  registry.GetGauge("pipeline.lane_depth", "lane", "0")->Set(depth);
  registry.GetGauge("pipeline.lane_depth_peak", "lane", "0")->Set(peak);
  return registry.Snapshot(0);
}

TEST(WatchdogTest, LaneStarvationNeedsConsecutivePinnedSnapshots) {
  obs::ProgressWatchdog::Options options;
  options.starved_snapshots = 2;
  obs::ProgressWatchdog watchdog(options);

  // First sight of depth==peak establishes the streak baseline only.
  watchdog.ObserveSnapshot(LaneSnapshot(4, 4));
  EXPECT_TRUE(watchdog.Evaluate().healthy);
  // Second consecutive pinned snapshot: one full streak interval.
  watchdog.ObserveSnapshot(LaneSnapshot(4, 4));
  EXPECT_TRUE(watchdog.Evaluate().healthy);
  // Third: streak reaches the threshold.
  watchdog.ObserveSnapshot(LaneSnapshot(4, 4));
  const obs::ProgressWatchdog::Verdict verdict = watchdog.Evaluate();
  EXPECT_FALSE(verdict.healthy);
  ASSERT_EQ(verdict.reasons.size(), 1u);
  EXPECT_NE(verdict.reasons[0].find("lane starved"), std::string::npos);

  // Any depth movement clears the streak; an empty lane never starves.
  watchdog.ObserveSnapshot(LaneSnapshot(3, 4));
  EXPECT_TRUE(watchdog.Evaluate().healthy);
  watchdog.ObserveSnapshot(LaneSnapshot(0, 4));
  watchdog.ObserveSnapshot(LaneSnapshot(0, 4));
  watchdog.ObserveSnapshot(LaneSnapshot(0, 4));
  EXPECT_TRUE(watchdog.Evaluate().healthy);
}

TEST(WatchdogTest, BudgetRuleNeedsEveryBackendMeteredAndSpent) {
  obs::ProgressWatchdog watchdog({});

  obs::MetricsRegistry partial;  // b is unmetered: rule must stay quiet
  partial.GetGauge("backend.requests", "backend", "a")->Set(10);
  partial.GetGauge("backend.budget_remaining", "backend", "a")->Set(0);
  partial.GetGauge("backend.requests", "backend", "b")->Set(10);
  watchdog.ObserveSnapshot(partial.Snapshot(0));
  EXPECT_TRUE(watchdog.Evaluate().healthy);

  obs::MetricsRegistry spent;  // fully metered, fully exhausted
  spent.GetGauge("backend.requests", "backend", "a")->Set(10);
  spent.GetGauge("backend.budget_remaining", "backend", "a")->Set(0);
  spent.GetGauge("backend.requests", "backend", "b")->Set(10);
  spent.GetGauge("backend.budget_remaining", "backend", "b")->Set(0);
  watchdog.ObserveSnapshot(spent.Snapshot(0));
  const obs::ProgressWatchdog::Verdict verdict = watchdog.Evaluate();
  EXPECT_FALSE(verdict.healthy);
  ASSERT_EQ(verdict.reasons.size(), 1u);
  EXPECT_NE(verdict.reasons[0].find("budget"), std::string::npos);

  obs::MetricsRegistry alive;  // one budget regains headroom
  alive.GetGauge("backend.requests", "backend", "a")->Set(10);
  alive.GetGauge("backend.budget_remaining", "backend", "a")->Set(3);
  alive.GetGauge("backend.requests", "backend", "b")->Set(10);
  alive.GetGauge("backend.budget_remaining", "backend", "b")->Set(0);
  watchdog.ObserveSnapshot(alive.Snapshot(0));
  EXPECT_TRUE(watchdog.Evaluate().healthy);
}

// ---------------------------------------------------------------------------
// End-to-end endpoints

TEST(ExporterTest, EndpointsServeARealRun) {
  ScenarioConfig config = LiveScenario();
  CrawlService service(config);
  ASSERT_TRUE(service.http_port().has_value());
  const uint16_t port = *service.http_port();
  ASSERT_GT(port, 0u);  // ephemeral pick resolved

  service.Run();

  const HttpResponse metrics = HttpGet(port, "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("# TYPE scheduler_rounds counter"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("_bucket{"), std::string::npos);
  EXPECT_NE(metrics.body.find("le=\"+Inf\""), std::string::npos);
  // The mcmc bridge published estimator-quality gauges.
  EXPECT_NE(metrics.body.find("estimate_geweke_z"), std::string::npos);
  EXPECT_NE(metrics.body.find("estimate_ess"), std::string::npos);
  EXPECT_NE(metrics.body.find("estimate_ci_halfwidth"), std::string::npos);
  EXPECT_NE(metrics.body.find("estimate_current"), std::string::npos);

  const HttpResponse report = HttpGet(port, "/report");
  EXPECT_EQ(report.status, 200);
  const JsonValue parsed = ParseJson(report.body);
  EXPECT_EQ(parsed.At("live").At("http_port").AsUint(), port);
  EXPECT_TRUE(parsed.At("status").At("finished").AsBool());
  EXPECT_EQ(parsed.At("status").At("phase").AsString(), "done");
  EXPECT_GT(parsed.At("result").At("num_samples").AsUint(), 0u);

  const HttpResponse health = HttpGet(port, "/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_NE(health.body.find("\"healthy\": true"), std::string::npos);

  EXPECT_EQ(HttpGet(port, "/nope").status, 404);
  // allow_quit defaults off: a scrape can never stop the crawl.
  EXPECT_EQ(HttpGet(port, "/quitquitquit").status, 403);
  EXPECT_FALSE(service.exporter()->QuitRequested());
}

TEST(ExporterTest, MalformedRequestLinesGet400NotGarbageRoutes) {
  // Regression: "GET/metrics HTTP/1.1" (missing the space after the
  // method) used to split into method="GET/metrics", path="HTTP/1.1" —
  // request lines without three well-formed tokens must 400, never be
  // derived into a route or a 404/405 for a path the client never named.
  ScenarioConfig config = LiveScenario();
  CrawlService service(config);
  const uint16_t port = *service.http_port();
  const char* kMalformed[] = {
      "GET/metrics HTTP/1.1",    // one space: no third token
      "GET/metrics HTTP/1.1 x",  // two spaces, path "HTTP/1.1"
      "GET metrics HTTP/1.1",    // path not absolute
      " /metrics HTTP/1.1",      // empty method
      "GET  HTTP/1.1",           // empty path
      "GET",                     // no spaces at all
  };
  for (const char* line : kMalformed) {
    SCOPED_TRACE(line);
    EXPECT_EQ(HttpExchange(port, std::string(line) +
                                     "\r\nConnection: close\r\n\r\n")
                  .status,
              400);
  }
  // Control: the same exchange path with a well-formed line still routes.
  EXPECT_EQ(
      HttpExchange(port, "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
          .status,
      200);
  service.Run();
}

TEST(ExporterTest, ReportIsLiveMidRun) {
  ScenarioConfig config = LiveScenario();
  CrawlService service(config);
  const uint16_t port = *service.http_port();

  // Before any unit: the seeded image must already be coherent.
  HttpResponse report = HttpGet(port, "/report");
  ASSERT_EQ(report.status, 200);
  EXPECT_FALSE(ParseJson(report.body).At("status").At("finished").AsBool());

  for (int i = 0; i < 3; ++i) ASSERT_TRUE(service.Advance());
  report = HttpGet(port, "/report");
  ASSERT_EQ(report.status, 200);
  const JsonValue parsed = ParseJson(report.body);
  EXPECT_FALSE(parsed.At("status").At("finished").AsBool());
  EXPECT_EQ(parsed.At("status").At("units").AsUint(), 3u);
  EXPECT_GT(parsed.At("result").At("total_query_cost").AsUint(), 0u);
  service.Finish();
}

TEST(ExporterTest, HealthzFlipsUnhealthyUnderInjectedStall) {
  ScenarioConfig config = LiveScenario();
  config.observability.watchdog_stall_ms = 1;
  CrawlService service(config);
  const uint16_t port = *service.http_port();

  // The service sits idle past the deadline: an injected stall.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const HttpResponse stalled = HttpGet(port, "/healthz");
  EXPECT_EQ(stalled.status, 503);
  EXPECT_NE(stalled.body.find("\"healthy\": false"), std::string::npos);
  EXPECT_NE(stalled.body.find("stalled"), std::string::npos);

  // Finishing disarms the rule: a completed run is healthy forever.
  service.Run();
  const HttpResponse done = HttpGet(port, "/healthz");
  EXPECT_EQ(done.status, 200);
  EXPECT_NE(done.body.find("\"done\": true"), std::string::npos);
}

TEST(ExporterTest, QuitStopsGracefullyAndResumesBitIdentical) {
  const std::string ckpt = testing::TempDir() + "/exporter_quit.ckpt";

  ScenarioConfig reference_config = LiveScenario();
  CrawlService reference(reference_config);
  const ServiceResult expected = reference.Run();

  ScenarioConfig config = LiveScenario();
  config.observability.allow_quit = true;
  config.checkpoint.path = ckpt;
  ServiceResult partial;
  {
    CrawlService service(config);
    const HttpResponse quit = HttpGet(*service.http_port(), "/quitquitquit");
    EXPECT_EQ(quit.status, 200);
    EXPECT_TRUE(service.exporter()->QuitRequested());
    // Run honors the flag at the first unit boundary: checkpoint, stop.
    partial = service.Run();
  }
  EXPECT_LT(partial.samples.size(), expected.samples.size());

  CrawlService resumed(config);
  resumed.LoadCheckpoint(ckpt);
  const ServiceResult result = resumed.Run();
  EXPECT_EQ(expected.samples, result.samples);
  EXPECT_EQ(expected.final_estimate, result.final_estimate);
  EXPECT_EQ(expected.total_query_cost, result.total_query_cost);
  EXPECT_EQ(expected.backend_requests, result.backend_requests);
  EXPECT_EQ(expected.total_steps, result.total_steps);
  std::remove(ckpt.c_str());
}

// ---------------------------------------------------------------------------
// Scrape storm (runtime label: runs under TSan in CI)

TEST(ExporterTest, ScrapeStormDoesNotPerturbTheCrawl) {
  // Exporter-off twin: the ground truth this faulted 4-thread crawl must
  // reproduce bit-for-bit while four clients hammer its endpoints.
  ScenarioConfig off_config = LiveScenario();
  off_config.observability.http_port.reset();
  CrawlService off(off_config);
  const ServiceResult expected = off.Run();

  ScenarioConfig config = LiveScenario();
  CrawlService service(config);
  const uint16_t port = *service.http_port();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> ok_scrapes{0};
  std::vector<std::thread> scrapers;
  for (int t = 0; t < 4; ++t) {
    scrapers.emplace_back([&, t] {
      while (!stop.load(std::memory_order_relaxed)) {
        const HttpResponse r =
            HttpGet(port, t % 2 == 0 ? "/metrics" : "/healthz");
        if (r.status == 200 || r.status == 503) {
          ok_scrapes.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  const ServiceResult result = service.Run();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : scrapers) t.join();
  EXPECT_GT(ok_scrapes.load(), 0u);

  EXPECT_EQ(expected.samples, result.samples);
  ASSERT_EQ(expected.trace.size(), result.trace.size());
  for (size_t i = 0; i < expected.trace.size(); ++i) {
    EXPECT_EQ(expected.trace[i].query_cost, result.trace[i].query_cost);
    EXPECT_EQ(expected.trace[i].estimate, result.trace[i].estimate);
  }
  EXPECT_EQ(expected.final_estimate, result.final_estimate);
  EXPECT_EQ(expected.total_query_cost, result.total_query_cost);
  EXPECT_EQ(expected.backend_requests, result.backend_requests);
  EXPECT_EQ(expected.failed_fetches, result.failed_fetches);
  EXPECT_EQ(expected.simulated_time_us, result.simulated_time_us);
}

}  // namespace
}  // namespace mto
