// Fault-tolerant crawl with checkpoint/resume (src/service).
//
// A scenario JSON wires up three flaky API keys — one slow-but-reliable,
// one fast-but-faulty, one rate-limited — behind sharded selection and
// bounded-backoff retries. The crawl runs with periodic checkpoints, is
// "killed" mid-flight, resumed from disk in a fresh process image, and the
// resumed run's estimate, samples, and per-backend ledgers are verified
// bit-identical to an uninterrupted run of the same scenario.
//
// An alternative scenario file can be passed as an argument (every key is
// documented in docs/scenario_schema.md):
//
//   ./build/examples/resilient_crawl examples/scenarios/mto_crawl.json
//
// ctest runs it both ways: with the embedded SRW scenario, and with the
// MTO scenario above — whose mutable overlay rides along in the
// checkpoint since format v2.
//
// --unit-delay-ms=N stretches every Advance unit by N ms of wall clock
// (results are bit-identical — the delay is outside the crawl) so the live
// introspection endpoints of an observability.http_port scenario can be
// scraped mid-run; CI does exactly that against
// examples/scenarios/observed_crawl.json.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#include "src/service/crawl_service.h"
#include "src/util/table.h"

int main(int argc, char** argv) {
  using namespace mto;

  const std::string scenario_json = R"({
    "dataset": "epinions_small",
    "seed": 7,
    "program": {"name": "srw"},
    "attribute": "degree",
    "walkers": 16,
    "threads": 4,
    "geweke": {"threshold": 0.1, "min_length": 100, "check_every": 25},
    "max_burn_in_rounds": 600,
    "num_samples": 96,
    "thinning": 10,
    "routing": "sharded",
    "fault_seed": 1337,
    "retry": {"max_attempts_per_backend": 8, "base_backoff_us": 1000,
              "multiplier": 2.0, "max_backoff_us": 64000, "jitter": 0.5},
    "backends": [
      {"name": "slow-reliable", "latency_us": 900, "latency_sigma": 0.2},
      {"name": "fast-flaky", "latency_us": 150, "latency_sigma": 0.4,
       "error_rate": 0.15, "timeout_rate": 0.05, "timeout_us": 30000},
      {"name": "rate-limited", "latency_us": 200, "rate_per_sec": 2000,
       "burst": 32, "quota_rate": 0.05}
    ]
  })";

  std::string scenario_path;
  size_t unit_delay_ms = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--unit-delay-ms=", 16) == 0) {
      unit_delay_ms = static_cast<size_t>(std::atoll(argv[i] + 16));
    } else {
      scenario_path = argv[i];
    }
  }
  ScenarioConfig config = !scenario_path.empty()
                              ? ScenarioConfig::FromFile(scenario_path)
                              : ScenarioConfig::FromJsonText(scenario_json);
  const std::string checkpoint_path =
      config.checkpoint.path.empty() ? "/tmp/resilient_crawl.ckpt"
                                     : config.checkpoint.path;

  // Run() with an optional per-unit wall-clock stretch; the delay sits
  // between units, outside the crawl, so results stay bit-identical.
  const auto run = [&](CrawlService& service) {
    if (unit_delay_ms == 0) return service.Run();
    size_t units = 0;
    while (service.Advance()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(unit_delay_ms));
      ++units;
      if (config.checkpoint.every_units > 0 &&
          units % config.checkpoint.every_units == 0 && !service.Done()) {
        service.SaveCheckpoint(checkpoint_path);
      }
    }
    return service.Finish();
  };

  std::cout << "=== Uninterrupted reference run ===\n";
  CrawlService reference_service(config);
  if (const auto port = reference_service.http_port()) {
    std::cout << "live introspection: curl http://127.0.0.1:" << *port
              << "/metrics (also /report, /healthz)\n";
  }
  ServiceResult reference = run(reference_service);
  std::cout << "estimate " << reference.final_estimate << " (truth "
            << reference_service.network().TrueAverageDegree()
            << "), cost " << reference.total_query_cost << " unique queries, "
            << reference.backend_requests << " requests\n\n";

  std::cout << "=== Crash after 5 units, checkpoint on disk ===\n";
  {
    CrawlService victim(config);
    for (int unit = 0; unit < 5 && victim.Advance(); ++unit) {
    }
    victim.SaveCheckpoint(checkpoint_path);
    std::cout << "killed at phase "
              << (victim.phase() == CrawlPhase::kBurnIn ? "burn-in"
                                                        : "sampling")
              << ", round " << victim.rounds() << "\n";
    // The service object dies here: everything in memory is lost.
  }

  std::cout << "\n=== Resume from " << checkpoint_path << " ===\n";
  CrawlService resumed(config);
  resumed.LoadCheckpoint(checkpoint_path);
  while (resumed.Advance()) {
  }
  ServiceResult result = resumed.Finish();
  std::cout << "estimate " << result.final_estimate << ", cost "
            << result.total_query_cost << " unique queries\n\n";

  Table table({"backend", "unique", "requests", "failed", "timeouts",
               "errors", "quota", "paced", "sim ms"});
  for (size_t b = 0; b < result.backend_stats.size(); ++b) {
    const BackendStats& s = result.backend_stats[b];
    table.AddRow({resumed.pool().backend_config(b).name,
                  std::to_string(s.unique_queries),
                  std::to_string(s.requests),
                  std::to_string(s.failed_requests),
                  std::to_string(s.timeouts),
                  std::to_string(s.transient_errors),
                  std::to_string(s.quota_rejections),
                  std::to_string(s.pacing_waits),
                  Table::Num(static_cast<double>(s.simulated_us) / 1000.0,
                             1)});
  }
  table.PrintText(std::cout);

  const bool identical =
      result.samples == reference.samples &&
      result.final_estimate == reference.final_estimate &&
      result.total_query_cost == reference.total_query_cost;
  std::cout << "\nresume vs uninterrupted: "
            << (identical ? "bit-identical (samples, estimate, cost)"
                          : "MISMATCH")
            << "\n";
  std::remove(checkpoint_path.c_str());
  return identical ? 0 : 1;
}
