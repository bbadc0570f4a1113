// Pipelined/depth-0 equivalence — the pipelining tentpole's headline
// invariant (DESIGN.md §10): `pipeline_depth`, like `num_threads`, is pure
// execution shape. For every stepping mode, thread count, depth, and fault
// setting, a pipelined crawl must produce bit-identical samples, trace,
// estimates, costs, and per-backend ledgers to the depth-0 crawl ("sync" in
// the test names: every frontier joined before its commit phase). Both run
// the same plan in the same coordinator order; only the latency *payment*
// stays in flight on the per-backend lanes. Plain (free-run) stepping never
// joins a frontier, so it runs at depth 0 only — a depth >= 1 without
// coalescing is a configuration error.
//
// Pacing stays off in the sweep scenario for the same reason as in
// fetch_equivalence_test: pacing fields are arrival-order dependent under
// multi-threaded stepping at every depth (see DESIGN.md §9 and the pinned
// counterexample there).

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "src/service/crawl_service.h"

namespace mto {
namespace {

enum class Stepping { kPlain, kCoalesced, kMtoCoalesced };

const char* SteppingName(Stepping stepping) {
  switch (stepping) {
    case Stepping::kPlain: return "plain";
    case Stepping::kCoalesced: return "coalesced";
    case Stepping::kMtoCoalesced: return "mto_coalesced";
  }
  return "?";
}

struct Sweep {
  size_t threads;
  Stepping stepping;
  size_t depth;
  bool faults;
};

std::string SweepName(const testing::TestParamInfo<Sweep>& info) {
  return std::string(SteppingName(info.param.stepping)) + "_" +
         std::to_string(info.param.threads) + "threads_depth" +
         std::to_string(info.param.depth) + "_" +
         (info.param.faults ? "faults" : "clean");
}

/// Three-backend scenario, pacing off (see file comment). Its fleet matches
/// fetch_equivalence_test's, so the two suites pin the same backends.
ScenarioConfig BaseScenario(size_t threads, Stepping stepping, bool faults) {
  ScenarioConfig config;
  config.dataset = "epinions_small";
  config.seed = 0x5EED5;
  config.num_walkers = 8;
  config.num_threads = threads;
  config.coalesce_frontier = stepping != Stepping::kPlain;
  config.program.name = stepping == Stepping::kMtoCoalesced ? "mto" : "srw";
  config.geweke_check_every = 20;
  config.geweke_min_length = 40;
  config.max_burn_in_rounds = 120;
  config.num_samples = 16;
  config.thinning = 3;
  config.fault_seed = 0xFA17;
  config.retry.max_attempts_per_backend = 10;
  config.backends.resize(3);
  config.backends[0].latency_mean_us = 150;
  config.backends[0].latency_sigma = 0.4;
  config.backends[1].latency_mean_us = 80;
  config.backends[2].latency_mean_us = 200;
  if (faults) {
    config.backends[0].error_rate = 0.2;
    config.backends[1].timeout_rate = 0.1;
    config.backends[2].quota_rate = 0.15;
  }
  return config;
}

void ExpectResultsBitIdentical(const ServiceResult& sync,
                               const ServiceResult& pipelined) {
  EXPECT_EQ(sync.samples, pipelined.samples);
  ASSERT_EQ(sync.trace.size(), pipelined.trace.size());
  for (size_t i = 0; i < sync.trace.size(); ++i) {
    EXPECT_EQ(sync.trace[i].query_cost, pipelined.trace[i].query_cost)
        << "trace " << i;
    EXPECT_EQ(sync.trace[i].estimate, pipelined.trace[i].estimate)
        << "trace " << i;
  }
  EXPECT_EQ(sync.final_estimate, pipelined.final_estimate);  // bitwise
  EXPECT_EQ(sync.burn_in_converged, pipelined.burn_in_converged);
  EXPECT_EQ(sync.burn_in_rounds, pipelined.burn_in_rounds);
  EXPECT_EQ(sync.burn_in_query_cost, pipelined.burn_in_query_cost);
  EXPECT_EQ(sync.total_rounds, pipelined.total_rounds);
  EXPECT_EQ(sync.total_steps, pipelined.total_steps);
  EXPECT_EQ(sync.total_query_cost, pipelined.total_query_cost);
  EXPECT_EQ(sync.backend_requests, pipelined.backend_requests);
  EXPECT_EQ(sync.failed_fetches, pipelined.failed_fetches);
  EXPECT_EQ(sync.simulated_time_us, pipelined.simulated_time_us);
}

void ExpectLedgersBitIdentical(const BackendPool::PoolSnapshot& sync,
                               const BackendPool::PoolSnapshot& pipelined) {
  EXPECT_EQ(sync.round_robin_cursor, pipelined.round_robin_cursor);
  EXPECT_EQ(sync.failed_fetches, pipelined.failed_fetches);
  ASSERT_EQ(sync.ledgers.size(), pipelined.ledgers.size());
  for (size_t b = 0; b < sync.ledgers.size(); ++b) {
    SCOPED_TRACE("backend " + std::to_string(b));
    const BackendLedger& s = sync.ledgers[b];
    const BackendLedger& p = pipelined.ledgers[b];
    EXPECT_EQ(s.stats.unique_queries, p.stats.unique_queries);
    EXPECT_EQ(s.stats.requests, p.stats.requests);
    EXPECT_EQ(s.stats.failed_requests, p.stats.failed_requests);
    EXPECT_EQ(s.stats.timeouts, p.stats.timeouts);
    EXPECT_EQ(s.stats.transient_errors, p.stats.transient_errors);
    EXPECT_EQ(s.stats.quota_rejections, p.stats.quota_rejections);
    EXPECT_EQ(s.stats.budget_refusals, p.stats.budget_refusals);
    EXPECT_EQ(s.stats.pacing_waits, p.stats.pacing_waits);
    EXPECT_EQ(s.stats.simulated_us, p.stats.simulated_us);
    EXPECT_EQ(s.clock_us, p.clock_us);
    EXPECT_EQ(s.bucket_tokens, p.bucket_tokens);  // bitwise double
    EXPECT_EQ(s.last_refill_us, p.last_refill_us);
  }
}

struct RunOutput {
  ServiceResult result;
  BackendPool::PoolSnapshot ledgers;
};

RunOutput RunWithDepth(ScenarioConfig config, size_t depth) {
  config.pipeline_depth = depth;
  CrawlService service(config);
  RunOutput out;
  out.result = service.Run();
  out.ledgers = service.pool().SnapshotBackends();
  return out;
}

/// Depth-0 baselines, computed once per (threads, stepping, faults):
/// every pipelined sweep point compares against the matching one.
const RunOutput& Baseline(size_t threads, Stepping stepping, bool faults) {
  using Key = std::tuple<size_t, Stepping, bool>;
  static std::map<Key, RunOutput>& cache = *new std::map<Key, RunOutput>();
  const Key key{threads, stepping, faults};
  auto it = cache.find(key);
  if (it == cache.end()) {
    it = cache.emplace(key, RunWithDepth(BaseScenario(threads, stepping, faults), 0))
             .first;
  }
  return it->second;
}

class PipelineEquivalenceTest : public testing::TestWithParam<Sweep> {};

TEST_P(PipelineEquivalenceTest, PipelinedIsBitIdenticalToSync) {
  const Sweep& sweep = GetParam();
  const RunOutput& sync = Baseline(sweep.threads, sweep.stepping, sweep.faults);
  const RunOutput pipelined = RunWithDepth(
      BaseScenario(sweep.threads, sweep.stepping, sweep.faults), sweep.depth);
  ExpectResultsBitIdentical(sync.result, pipelined.result);
  ExpectLedgersBitIdentical(sync.ledgers, pipelined.ledgers);
}

std::vector<Sweep> AllSweeps() {
  std::vector<Sweep> sweeps;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    for (Stepping stepping :
         {Stepping::kPlain, Stepping::kCoalesced, Stepping::kMtoCoalesced}) {
      for (size_t depth : {size_t{0}, size_t{1}, size_t{2}}) {
        if (stepping == Stepping::kPlain && depth > 0) continue;
        for (bool faults : {false, true}) {
          sweeps.push_back({threads, stepping, depth, faults});
        }
      }
    }
  }
  return sweeps;
}

INSTANTIATE_TEST_SUITE_P(Sweep, PipelineEquivalenceTest,
                         testing::ValuesIn(AllSweeps()), SweepName);

TEST(PipelineEquivalenceExtrasTest, RendezvousPipelinedMatchesRendezvousSync) {
  // The equivalence contract is routing-policy independent: under
  // rendezvous routing (different trajectory than sharded, same purity) the
  // pipelined engine must still match its own depth-0 baseline bit-for-bit.
  ScenarioConfig config = BaseScenario(4, Stepping::kMtoCoalesced, true);
  config.strategy = BackendSelection::kRendezvous;
  const RunOutput sync = RunWithDepth(config, 0);
  const RunOutput pipelined = RunWithDepth(config, 2);
  ExpectResultsBitIdentical(sync.result, pipelined.result);
  ExpectLedgersBitIdentical(sync.ledgers, pipelined.ledgers);
}

TEST(PipelineEquivalenceExtrasTest, ObservedPipelinedMatchesUnobservedSync) {
  // Passivity under the deepest execution shape: a depth-2 pipelined crawl
  // with full observability (metrics, lane-depth gauges, tracing, periodic
  // snapshots, run report) is bit-identical to the unobserved depth-0
  // baseline — telemetry on the lanes and in the scheduler perturbs
  // nothing (DESIGN.md §11).
  ScenarioConfig config = BaseScenario(4, Stepping::kMtoCoalesced, true);
  const RunOutput sync = RunWithDepth(config, 0);
  ScenarioConfig observed_config = config;
  observed_config.pipeline_depth = 2;
  observed_config.observability.metrics = true;
  observed_config.observability.snapshot_every_units = 2;
  observed_config.observability.http_port = 0;  // live exporter on too
  const std::string trace_path =
      testing::TempDir() + "/pipeline_equivalence_obs.trace.json";
  observed_config.observability.trace_path = trace_path;
  CrawlService observed(observed_config);
  RunOutput out;
  out.result = observed.Run();
  out.ledgers = observed.pool().SnapshotBackends();
  ExpectResultsBitIdentical(sync.result, out.result);
  ExpectLedgersBitIdentical(sync.ledgers, out.ledgers);
  EXPECT_FALSE(observed.snapshots().empty());
  EXPECT_NO_THROW(ParseJsonFile(trace_path));
  std::remove(trace_path.c_str());
}

TEST(PipelineEquivalenceExtrasTest, PipelinedResumesSyncCheckpointBitIdentically) {
  // pipeline_depth is excluded from the checkpoint fingerprint (execution
  // shape): a depth-0 victim's checkpoint resumes under a depth-2 pipeline
  // to the same bits. RunRounds drains the pipeline at unit boundaries, so the
  // ledgers a checkpoint captures are quiescent in both modes.
  ScenarioConfig config = BaseScenario(4, Stepping::kMtoCoalesced, true);
  const RunOutput reference = RunWithDepth(config, 0);
  const std::string path =
      testing::TempDir() + "/pipeline_equivalence_sync_to_pipelined.ckpt";
  {
    ScenarioConfig victim_config = config;
    victim_config.pipeline_depth = 0;
    CrawlService victim(victim_config);
    for (int i = 0; i < 3 && victim.Advance(); ++i) {
    }
    victim.SaveCheckpoint(path);
  }
  ScenarioConfig resumed_config = config;
  resumed_config.pipeline_depth = 2;
  CrawlService resumed(resumed_config);
  resumed.LoadCheckpoint(path);
  while (resumed.Advance()) {
  }
  ExpectResultsBitIdentical(reference.result, resumed.Finish());
  ExpectLedgersBitIdentical(reference.ledgers,
                            resumed.pool().SnapshotBackends());
  std::remove(path.c_str());
}

TEST(PipelineEquivalenceExtrasTest, SyncResumesPipelinedCheckpointBitIdentically) {
  // And the reverse direction: a checkpoint written mid-crawl by a
  // pipelined service resumes at depth 0 to the same bits.
  ScenarioConfig config = BaseScenario(4, Stepping::kCoalesced, true);
  const RunOutput reference = RunWithDepth(config, 0);
  const std::string path =
      testing::TempDir() + "/pipeline_equivalence_pipelined_to_sync.ckpt";
  {
    ScenarioConfig victim_config = config;
    victim_config.pipeline_depth = 2;
    CrawlService victim(victim_config);
    for (int i = 0; i < 3 && victim.Advance(); ++i) {
    }
    victim.SaveCheckpoint(path);
  }
  ScenarioConfig resumed_config = config;
  resumed_config.pipeline_depth = 0;
  CrawlService resumed(resumed_config);
  resumed.LoadCheckpoint(path);
  while (resumed.Advance()) {
  }
  ExpectResultsBitIdentical(reference.result, resumed.Finish());
  ExpectLedgersBitIdentical(reference.ledgers,
                            resumed.pool().SnapshotBackends());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mto
