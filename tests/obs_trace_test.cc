// End-to-end observability of a CrawlService run: the run report and the
// Chrome trace round-trip through src/util/json, the trace's spans nest
// monotonically per thread track, checkpoint I/O lands in the histograms,
// and a killed run resumes with observability on (snapshots restart from
// the resume point; results stay bit-identical to the uninterrupted run).

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "src/obs/trace.h"
#include "src/service/crawl_service.h"

namespace mto {
namespace {

ScenarioConfig ObservedScenario(const std::string& tag) {
  ScenarioConfig config;
  config.dataset = "epinions_small";
  config.seed = 0x5EED5;
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
  config.observability.snapshot_every_units = 2;
  config.observability.trace_path =
      testing::TempDir() + "/obs_trace_" + tag + ".trace.json";
  config.observability.report_path =
      testing::TempDir() + "/obs_trace_" + tag + ".report.json";
  return config;
}

void Cleanup(const ScenarioConfig& config) {
  std::remove(config.observability.trace_path.c_str());
  std::remove(config.observability.report_path.c_str());
}

TEST(ObsTraceTest, RunReportRoundTripsAndCoversTheRun) {
  const ScenarioConfig config = ObservedScenario("report");
  CrawlService service(config);
  const ServiceResult result = service.Run();

  const JsonValue report = ParseJsonFile(config.observability.report_path);
  EXPECT_EQ(report.At("scenario").At("dataset").AsString(), config.dataset);
  EXPECT_EQ(report.At("scenario").At("sampler").AsString(), "mto");
  EXPECT_EQ(report.At("result").At("total_query_cost").AsUint(),
            result.total_query_cost);
  EXPECT_EQ(report.At("result").At("backend_requests").AsUint(),
            result.backend_requests);
  EXPECT_EQ(report.At("result").At("num_samples").AsUint(),
            result.samples.size());
  // Periodic snapshots plus the final one, each tagged with its unit.
  const auto& snapshots = report.At("snapshots").AsArray();
  ASSERT_GE(snapshots.size(), 2u);
  uint64_t last_unit = 0;
  for (const JsonValue& snapshot : snapshots) {
    const uint64_t unit = snapshot.At("unit").AsUint();
    EXPECT_GE(unit, last_unit);
    last_unit = unit;
  }
  // The final snapshot carries the scheduler's progress counters and the
  // pool's published ledger gauges.
  const JsonValue& last = snapshots.back();
  EXPECT_EQ(last.At("counters").At("scheduler.rounds").AsUint(),
            result.total_rounds);
  EXPECT_EQ(last.At("counters").At("scheduler.steps").AsUint(),
            result.total_steps);
  EXPECT_EQ(last.At("gauges").At("pool.backend_requests").AsUint(),
            result.backend_requests);
  Cleanup(config);
}

TEST(ObsTraceTest, ChromeTraceParsesAndSpansNestMonotonically) {
  const ScenarioConfig config = ObservedScenario("spans");
  CrawlService service(config);
  service.Run();

  const JsonValue trace = ParseJsonFile(config.observability.trace_path);
  const auto& events = trace.At("traceEvents").AsArray();
  ASSERT_FALSE(events.empty());

  // Split complete events ("ph":"X") by thread track. The emitter sorts
  // globally by timestamp; within a track RAII spans must nest: a span
  // starting inside an open span must also end inside it.
  std::map<uint64_t, std::vector<std::pair<uint64_t, uint64_t>>> by_tid;
  bool saw_unit_span = false;
  bool saw_round_span = false;
  uint64_t last_ts = 0;
  for (const JsonValue& event : events) {
    EXPECT_EQ(event.At("cat").AsString(), "mto");
    const uint64_t ts = event.At("ts").AsUint();
    EXPECT_GE(ts, last_ts);  // emitter output is time-sorted
    last_ts = ts;
    if (event.At("ph").AsString() != "X") continue;
    const std::string& name = event.At("name").AsString();
    saw_unit_span = saw_unit_span || name == "unit.burn_in";
    saw_round_span = saw_round_span || name == "round.coalesced";
    by_tid[event.At("tid").AsUint()].push_back(
        {ts, ts + event.At("dur").AsUint()});
  }
  EXPECT_TRUE(saw_unit_span);
  EXPECT_TRUE(saw_round_span);
  for (const auto& [tid, spans] : by_tid) {
    std::vector<uint64_t> stack;  // open-span end times
    for (const auto& [start, end] : spans) {
      while (!stack.empty() && start >= stack.back()) stack.pop_back();
      if (!stack.empty()) {
        EXPECT_LE(end, stack.back())
            << "span on tid " << tid << " escapes its parent";
      }
      stack.push_back(end);
    }
  }
  Cleanup(config);
}

TEST(ObsTraceTest, CheckpointHistogramsRecordSaveAndLoad) {
  ScenarioConfig config = ObservedScenario("ckpt");
  const std::string ckpt_path = testing::TempDir() + "/obs_trace_ckpt.bin";
  config.checkpoint.path = ckpt_path;
  config.checkpoint.every_units = 2;

  // Reference: the same scenario run uninterrupted without checkpointing.
  ScenarioConfig reference_config = ObservedScenario("ckpt_ref");
  CrawlService reference(reference_config);
  const ServiceResult expected = reference.Run();
  Cleanup(reference_config);

  {
    CrawlService victim(config);
    for (int i = 0; i < 5 && victim.Advance(); ++i) {
    }
    victim.SaveCheckpoint(ckpt_path);
    const obs::StatsSnapshot snap = victim.metrics()->Snapshot();
    uint64_t saves = 0;
    for (const obs::MetricSnapshot& metric : snap.metrics) {
      if (metric.name == "checkpoint.save_us") saves = metric.histogram.count;
    }
    EXPECT_GE(saves, 1u);
    // Victim abandoned here: destructor joins threads, files stay.
  }

  ScenarioConfig resumed_config = config;
  resumed_config.observability.trace_path =
      testing::TempDir() + "/obs_trace_resumed.trace.json";
  resumed_config.observability.report_path =
      testing::TempDir() + "/obs_trace_resumed.report.json";
  CrawlService resumed(resumed_config);
  resumed.LoadCheckpoint(ckpt_path);
  while (resumed.Advance()) {
  }
  const ServiceResult result = resumed.Finish();

  // Bit-identical resume with observability on throughout.
  EXPECT_EQ(expected.samples, result.samples);
  EXPECT_EQ(expected.final_estimate, result.final_estimate);
  EXPECT_EQ(expected.total_query_cost, result.total_query_cost);
  EXPECT_EQ(expected.backend_requests, result.backend_requests);

  // The load landed in the resumed service's histograms, snapshots resumed
  // cleanly (cadence restarted from the resume point), and the resumed
  // run's report and trace parse.
  const obs::StatsSnapshot snap = resumed.metrics()->Snapshot();
  uint64_t loads = 0;
  uint64_t load_bytes = 0;
  for (const obs::MetricSnapshot& metric : snap.metrics) {
    if (metric.name == "checkpoint.load_us") loads = metric.histogram.count;
    if (metric.name == "checkpoint.load_bytes") {
      load_bytes = metric.histogram.sum;
    }
  }
  EXPECT_EQ(loads, 1u);
  EXPECT_GT(load_bytes, 0u);
  EXPECT_FALSE(resumed.snapshots().empty());
  EXPECT_NO_THROW(
      ParseJsonFile(resumed_config.observability.report_path));
  EXPECT_NO_THROW(ParseJsonFile(resumed_config.observability.trace_path));

  Cleanup(config);
  Cleanup(resumed_config);
  std::remove(ckpt_path.c_str());
}

TEST(ObsTraceTest, ReportIsIncrementalAndAtomicOnDisk) {
  // The report is maintained at every snapshot point, not only at Finish:
  // mid-run the file exists, parses, and says so.
  ScenarioConfig config = ObservedScenario("incremental");
  config.observability.snapshot_every_units = 1;
  {
    CrawlService service(config);
    for (int i = 0; i < 3 && service.Advance(); ++i) {
    }
    const JsonValue mid = ParseJsonFile(config.observability.report_path);
    EXPECT_FALSE(mid.At("status").At("finished").AsBool());
    EXPECT_EQ(mid.At("status").At("units").AsUint(), 3u);
    EXPECT_GT(mid.At("result").At("total_query_cost").AsUint(), 0u);
    service.Finish();
  }
  const JsonValue final_report =
      ParseJsonFile(config.observability.report_path);
  EXPECT_TRUE(final_report.At("status").At("finished").AsBool());
  // Atomic tmp+rename writes never leave their scratch file behind.
  std::ifstream tmp(config.observability.report_path + ".tmp");
  EXPECT_FALSE(tmp.good());
  Cleanup(config);
}

TEST(ObsTraceTest, KilledRunLeavesAParseableLastKnownGoodReport) {
  // A SIGKILL-style death (child exits without destructors or flushes)
  // must leave the last completed tmp+rename on disk: the report is either
  // the previous snapshot's image or the new one, never a torn write.
  ScenarioConfig config = ObservedScenario("killed");
  config.observability.snapshot_every_units = 1;
  config.observability.trace_path.clear();  // trace only writes at Finish
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // In the child: crawl a few units so several report generations land,
    // then die abruptly mid-run.
    CrawlService service(config);
    for (int i = 0; i < 5 && service.Advance(); ++i) {
    }
    _exit(0);  // no Finish(), no destructors — the "kill"
  }
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

  const JsonValue report = ParseJsonFile(config.observability.report_path);
  EXPECT_FALSE(report.At("status").At("finished").AsBool());
  EXPECT_GE(report.At("status").At("units").AsUint(), 1u);
  EXPECT_EQ(report.At("scenario").At("dataset").AsString(), config.dataset);
  Cleanup(config);
}

TEST(ObsTraceTest, TraceLogDropsGracefullyWhenRingOverflows) {
  obs::TraceLog log(/*ring_capacity=*/8);
  for (int i = 0; i < 100; ++i) log.RecordInstant("tick");
  EXPECT_EQ(log.DroppedEvents(), 92u);
  const JsonValue json = log.ToJson();
  EXPECT_EQ(json.At("traceEvents").AsArray().size(), 8u);
}

}  // namespace
}  // namespace mto
