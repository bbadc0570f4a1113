#include "src/service/crawl_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "src/estimate/estimators.h"
#include "src/mcmc/geweke.h"
#include "src/runtime/estimation_pipeline.h"
#include "src/service/checkpoint.h"
#include "src/util/rng.h"

namespace mto {
namespace {

/// Small but non-trivial scenario: faults on, multiple backends, sharded
/// selection (the interleaving-independent ledger assignment).
ScenarioConfig FaultyScenario() {
  ScenarioConfig config;
  config.dataset = "epinions_small";
  config.seed = 0xABCD;
  config.program.name = "srw";
  config.num_walkers = 8;
  config.num_threads = 1;
  config.geweke_check_every = 20;
  config.geweke_min_length = 40;
  config.max_burn_in_rounds = 200;
  config.num_samples = 32;
  config.thinning = 5;
  config.fault_seed = 0xFA17;
  config.retry.max_attempts_per_backend = 12;
  config.backends.resize(3);
  config.backends[0].error_rate = 0.2;
  config.backends[0].latency_mean_us = 150;
  config.backends[0].latency_sigma = 0.4;
  config.backends[1].timeout_rate = 0.1;
  config.backends[1].rate_per_sec = 5000.0;
  config.backends[1].burst = 16.0;
  config.backends[2].quota_rate = 0.15;
  return config;
}

std::string TempCheckpointPath(const char* tag) {
  return testing::TempDir() + "/crawl_service_test_" + tag + ".ckpt";
}

void ExpectBitIdentical(const ServiceResult& a, const ServiceResult& b) {
  EXPECT_EQ(a.samples, b.samples);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].query_cost, b.trace[i].query_cost) << "trace " << i;
    EXPECT_EQ(a.trace[i].estimate, b.trace[i].estimate) << "trace " << i;
  }
  EXPECT_EQ(a.final_estimate, b.final_estimate);  // bitwise, not NEAR
  EXPECT_EQ(a.burn_in_converged, b.burn_in_converged);
  EXPECT_EQ(a.burn_in_rounds, b.burn_in_rounds);
  EXPECT_EQ(a.burn_in_query_cost, b.burn_in_query_cost);
  EXPECT_EQ(a.total_rounds, b.total_rounds);
  EXPECT_EQ(a.total_steps, b.total_steps);
  EXPECT_EQ(a.total_query_cost, b.total_query_cost);
  EXPECT_EQ(a.failed_fetches, b.failed_fetches);
  ASSERT_EQ(a.backend_stats.size(), b.backend_stats.size());
  for (size_t i = 0; i < a.backend_stats.size(); ++i) {
    EXPECT_EQ(a.backend_stats[i].unique_queries,
              b.backend_stats[i].unique_queries)
        << "backend " << i;
  }
}

/// Runs to completion, interrupting after `kill_after_units` units: saves a
/// checkpoint there, destroys the service ("crash"), and resumes in a fresh
/// one built from the same config. `total_requests`, when given, receives
/// the resumed session's request total at the end.
ServiceResult RunWithKillAndResume(const ScenarioConfig& config,
                                   size_t kill_after_units,
                                   const std::string& path,
                                   uint64_t* total_requests = nullptr) {
  {
    CrawlService victim(config);
    for (size_t i = 0; i < kill_after_units && victim.Advance(); ++i) {
    }
    victim.SaveCheckpoint(path);
    // Destructor = crash: everything in memory is lost.
  }
  CrawlService resumed(config);
  resumed.LoadCheckpoint(path);
  while (resumed.Advance()) {
  }
  ServiceResult result = resumed.Finish();
  if (total_requests != nullptr) {
    *total_requests = resumed.session().TotalRequests();
  }
  return result;
}

/// An uninterrupted run, and its session's request total at the end.
ServiceResult RunUninterrupted(const ScenarioConfig& config,
                               uint64_t& total_requests) {
  CrawlService service(config);
  ServiceResult result = service.Run();
  total_requests = service.session().TotalRequests();
  return result;
}

TEST(CrawlServiceTest, RunsFaultyScenarioToCompletion) {
  ScenarioConfig config = FaultyScenario();
  CrawlService service(config);
  ServiceResult result = service.Run();
  EXPECT_EQ(result.samples.size(), 32u);
  EXPECT_TRUE(result.burn_in_converged);
  EXPECT_GT(result.total_query_cost, 0u);
  EXPECT_GT(result.backend_requests, result.total_query_cost);  // retries
  ASSERT_EQ(result.backend_stats.size(), 3u);
  uint64_t unique_sum = 0, faults = 0;
  for (const BackendStats& stats : result.backend_stats) {
    unique_sum += stats.unique_queries;
    faults += stats.failed_requests;
  }
  EXPECT_EQ(unique_sum, result.total_query_cost);
  EXPECT_GT(faults, 0u);  // the fault injector actually fired
  EXPECT_GT(result.simulated_time_us, 0u);
}

TEST(CrawlServiceTest, SampleCountRoundsUpToWholeCollectionRounds) {
  // Every collection round reads one sample per walker, so a target that
  // is not a multiple of the walker count is rounded up.
  ScenarioConfig config = FaultyScenario();
  config.num_samples = 10;  // not a multiple of 8 walkers
  const ServiceResult result = CrawlService(config).Run();
  EXPECT_EQ(result.samples.size(), 16u);  // 2 rounds x 8 walkers
}

TEST(CrawlServiceTest, EstimatesAverageDegreeAndFreezesMtoOverlays) {
  // End to end through the multi-threaded service: both the plain walk and
  // the paper's sampler estimate the population mean degree, and MTO
  // samples from a frozen overlay once burn-in ends.
  for (const char* program : {"srw", "mto"}) {
    SCOPED_TRACE(program);
    ScenarioConfig config = FaultyScenario();
    config.program.name = program;
    config.num_threads = 4;
    config.num_samples = 400;
    CrawlService service(config);
    const ServiceResult result = service.Run();
    EXPECT_TRUE(result.burn_in_converged);
    EXPECT_LE(result.burn_in_query_cost, result.total_query_cost);
    const double truth = service.network().TrueAverageDegree();
    EXPECT_LT(std::abs(result.final_estimate - truth) / truth, 0.35);
    for (size_t i = 0; i < service.scheduler().size(); ++i) {
      const auto* mto =
          dynamic_cast<const MtoSampler*>(&service.scheduler().walker(i));
      EXPECT_EQ(mto != nullptr, config.program.name == "mto");
      if (mto != nullptr) {
        EXPECT_TRUE(mto->frozen()) << "walker " << i;
      }
    }
  }
}

TEST(CrawlServiceTest, ResumeIsBitIdenticalAtEveryKillPoint) {
  ScenarioConfig config = FaultyScenario();
  uint64_t requests = 0;
  const ServiceResult uninterrupted = RunUninterrupted(config, requests);
  const std::string path = TempCheckpointPath("kill_points");
  // Kill points spanning burn-in (epochs) and sampling (collection rounds).
  // The request total resumes too: a restored walker holds its cached
  // position, as the uninterrupted one did, so neither re-reads it.
  for (size_t kill_after : {0u, 1u, 2u, 5u, 9u, 20u}) {
    SCOPED_TRACE("kill_after=" + std::to_string(kill_after));
    uint64_t resumed_requests = 0;
    ExpectBitIdentical(uninterrupted,
                       RunWithKillAndResume(config, kill_after, path,
                                            &resumed_requests));
    EXPECT_EQ(resumed_requests, requests);
  }
  std::remove(path.c_str());
}

TEST(CrawlServiceTest, ResumeIsBitIdenticalUnderMultiThreadScheduling) {
  ScenarioConfig config = FaultyScenario();
  const ServiceResult uninterrupted = CrawlService(config).Run();
  const std::string path = TempCheckpointPath("threads");
  // Interrupt a 4-thread crawl, resume on 4 threads.
  config.num_threads = 4;
  ExpectBitIdentical(uninterrupted, RunWithKillAndResume(config, 3, path));
  // A 1-thread checkpoint resumes on 4 threads (and vice versa): the
  // fingerprint deliberately ignores execution shape.
  {
    ScenarioConfig one_thread = config;
    one_thread.num_threads = 1;
    CrawlService victim(one_thread);
    victim.Advance();
    victim.Advance();
    victim.SaveCheckpoint(path);
  }
  CrawlService resumed(config);  // 4 threads
  resumed.LoadCheckpoint(path);
  while (resumed.Advance()) {
  }
  ExpectBitIdentical(uninterrupted, resumed.Finish());
  std::remove(path.c_str());
}

TEST(CrawlServiceTest, ResumeIsBitIdenticalInCoalescedMode) {
  ScenarioConfig config = FaultyScenario();
  config.coalesce_frontier = true;
  config.num_threads = 2;
  const ServiceResult uninterrupted = CrawlService(config).Run();
  const std::string path = TempCheckpointPath("coalesced");
  ExpectBitIdentical(uninterrupted, RunWithKillAndResume(config, 4, path));
  std::remove(path.c_str());

  // Stepping mode does not change results either (runtime contract carries
  // through the service layer, faults included).
  ScenarioConfig free_run = config;
  free_run.coalesce_frontier = false;
  ExpectBitIdentical(uninterrupted, CrawlService(free_run).Run());
}

TEST(CrawlServiceTest, PeriodicCheckpointsDuringRunAreResumable) {
  ScenarioConfig config = FaultyScenario();
  config.checkpoint.path = TempCheckpointPath("periodic");
  config.checkpoint.every_units = 3;
  const ServiceResult full = CrawlService(config).Run();
  // The last periodic checkpoint is some mid-run state; resuming it must
  // converge to the same result.
  CrawlService resumed(config);
  resumed.LoadCheckpoint(config.checkpoint.path);
  while (resumed.Advance()) {
  }
  ExpectBitIdentical(full, resumed.Finish());
  std::remove(config.checkpoint.path.c_str());
}

TEST(CrawlServiceTest, FailedSavesLeaveTheRunUntouched) {
  // A save that throws (its path is a directory) is caught at every unit
  // boundary, and the run continues: the sample stream lent to the image
  // comes back, so the run ends exactly like an uninterrupted one.
  ScenarioConfig config = FaultyScenario();
  const ServiceResult uninterrupted = CrawlService(config).Run();
  const std::string dir = TempCheckpointPath("dir_target");
  std::filesystem::remove_all(dir);
  std::filesystem::remove(dir + ".tmp");
  std::filesystem::create_directory(dir);
  CrawlService service(config);
  while (service.Advance()) {
    EXPECT_THROW(service.SaveCheckpoint(dir), std::runtime_error);
  }
  ExpectBitIdentical(uninterrupted, service.Finish());
  EXPECT_FALSE(std::filesystem::exists(dir + ".tmp"));
  std::filesystem::remove_all(dir);
}

TEST(CrawlServiceTest, MhrwScenarioAlsoResumesBitIdentically) {
  ScenarioConfig config = FaultyScenario();
  config.program.name = "mhrw";
  config.num_threads = 2;
  const ServiceResult uninterrupted = CrawlService(config).Run();
  const std::string path = TempCheckpointPath("mhrw");
  ExpectBitIdentical(uninterrupted, RunWithKillAndResume(config, 6, path));
  std::remove(path.c_str());
}

TEST(CrawlServiceTest, MtoScenarioResumesBitIdenticallyAtEveryKillPoint) {
  // The paper's own sampler, with its mutable overlay in the checkpoint
  // image: kill points span mid-burn-in (mid-rewire — the overlay is a
  // half-classified work in progress) and the sampling phase (frozen
  // overlay), under injected faults.
  ScenarioConfig config = FaultyScenario();
  config.program.name = "mto";
  uint64_t requests = 0;
  const ServiceResult uninterrupted = RunUninterrupted(config, requests);
  const std::string path = TempCheckpointPath("mto_kill_points");
  for (size_t kill_after : {0u, 1u, 2u, 5u, 9u, 20u}) {
    SCOPED_TRACE("kill_after=" + std::to_string(kill_after));
    uint64_t resumed_requests = 0;
    ExpectBitIdentical(uninterrupted,
                       RunWithKillAndResume(config, kill_after, path,
                                            &resumed_requests));
    EXPECT_EQ(resumed_requests, requests);
  }
  std::remove(path.c_str());
}

TEST(CrawlServiceTest, MtoScenarioIsBitIdenticalAcrossThreadsAndModes) {
  // The acceptance invariant for speculative stepping carried through the
  // whole stack: an MTO crawl under CrawlScheduler with frontier
  // coalescing produces bit-identical samples/trace/cost across 1/2/8
  // threads and both stepping modes — and a coalesced multi-thread victim
  // resumes bit-identically.
  ScenarioConfig config = FaultyScenario();
  config.program.name = "mto";
  const ServiceResult reference = CrawlService(config).Run();
  for (size_t threads : {2u, 8u}) {
    for (bool coalesce : {false, true}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) + " coalesce=" +
                   std::to_string(coalesce));
      ScenarioConfig variant = config;
      variant.num_threads = threads;
      variant.coalesce_frontier = coalesce;
      ExpectBitIdentical(reference, CrawlService(variant).Run());
    }
  }
  ScenarioConfig coalesced = config;
  coalesced.num_threads = 2;
  coalesced.coalesce_frontier = true;
  const std::string path = TempCheckpointPath("mto_coalesced");
  ExpectBitIdentical(reference, RunWithKillAndResume(coalesced, 4, path));
  std::remove(path.c_str());
}

TEST(CrawlServiceTest, LiveMtoCheckpointBytesArePinned) {
  // CheckpointTest.V5ImageBytesArePinned pins synthetic images only. This
  // pins the image of a real mid-burn-in MTO crawl, so a change in what the
  // overlay records (registered set, rewiring keys, classification marks)
  // or in the order it hands them over shows up as changed bytes.
  ScenarioConfig config = FaultyScenario();
  config.program.name = "mto";
  config.program.params.mto.replace_probability = 1.0;  // force additions
  const std::string path = TempCheckpointPath("mto_pinned");
  {
    CrawlService service(config);
    for (int unit = 0; unit < 5 && service.Advance(); ++unit) {
    }
    service.SaveCheckpoint(path);
  }
  // The image must carry real rewiring, not just registrations.
  size_t removed = 0;
  size_t added = 0;
  for (const auto& overlay : ServiceCheckpoint::Load(path).overlays) {
    removed += overlay.delta.removed.size();
    added += overlay.delta.added.size();
  }
  EXPECT_GT(removed, 0u);
  EXPECT_GT(added, 0u);
  std::ifstream in(path, std::ios::binary);
  const std::vector<char> bytes{std::istreambuf_iterator<char>(in),
                                std::istreambuf_iterator<char>()};
  uint64_t fnv1a = 0xCBF29CE484222325ULL;
  for (char c : bytes) {
    fnv1a = (fnv1a ^ static_cast<unsigned char>(c)) * 0x100000001B3ULL;
  }
  EXPECT_EQ(bytes.size(), 6370u);
  EXPECT_EQ(fnv1a, 0x80DC306B520767B1ULL);
  std::remove(path.c_str());
}

TEST(CrawlServiceTest, MtoPeriodicCheckpointsDuringRunAreResumable) {
  ScenarioConfig config = FaultyScenario();
  config.program.name = "mto";
  config.checkpoint.path = TempCheckpointPath("mto_periodic");
  config.checkpoint.every_units = 3;
  const ServiceResult full = CrawlService(config).Run();
  CrawlService resumed(config);
  resumed.LoadCheckpoint(config.checkpoint.path);
  while (resumed.Advance()) {
  }
  ExpectBitIdentical(full, resumed.Finish());
  std::remove(config.checkpoint.path.c_str());
}

TEST(CrawlServiceTest, LoadCheckpointGuards) {
  ScenarioConfig config = FaultyScenario();
  const std::string path = TempCheckpointPath("guards");
  {
    CrawlService service(config);
    service.Advance();
    service.SaveCheckpoint(path);
    // A service that already ran refuses to load.
    EXPECT_THROW(service.LoadCheckpoint(path), std::logic_error);
  }
  // A different scenario refuses the checkpoint (fingerprint mismatch).
  ScenarioConfig other = config;
  other.seed = 999;
  CrawlService mismatched(other);
  EXPECT_THROW(mismatched.LoadCheckpoint(path), std::runtime_error);
  // Corrupt file refuses to parse.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "not a checkpoint";
  }
  CrawlService fresh(config);
  EXPECT_THROW(fresh.LoadCheckpoint(path), std::runtime_error);
  std::remove(path.c_str());
  EXPECT_THROW(fresh.LoadCheckpoint(path), std::runtime_error);

  // Estimation streams shorter than the progress counters say are refused
  // by name: resumed, they would leave the next Advance() waiting forever
  // for diagnostics nobody pushes.
  const auto load_error = [&config, &path] {
    CrawlService resumed(config);
    try {
      resumed.LoadCheckpoint(path);
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string("loaded without error");
  };
  {
    CrawlService service(config);
    service.Advance();
    service.Advance();
    service.SaveCheckpoint(path);
  }
  ServiceCheckpoint ckpt = ServiceCheckpoint::Load(path);
  ASSERT_EQ(ckpt.diagnostics.size(), ckpt.rounds * config.num_walkers);
  ckpt.diagnostics.pop_back();
  ckpt.Save(path);
  std::string error = load_error();
  EXPECT_NE(error.find("diagnostics"), std::string::npos) << error;
  {
    CrawlService service(config);
    do {
      ASSERT_TRUE(service.Advance());
      service.SaveCheckpoint(path);
      ckpt = ServiceCheckpoint::Load(path);
    } while (ckpt.samples.empty());
  }
  ckpt.samples.pop_back();
  ckpt.Save(path);
  error = load_error();
  EXPECT_NE(error.find("samples"), std::string::npos) << error;

  // Overlay edge keys are installed only when each packs two users low
  // endpoint first, the way the overlay packs them: a mis-ordered key never
  // matches its edge, and an added endpoint past the network would throw
  // inside a later Advance(). (`load_error` reads `config` by reference.)
  config.program.name = "mto";
  {
    CrawlService service(config);
    service.Advance();
    service.SaveCheckpoint(path);
  }
  const ServiceCheckpoint mto_ckpt = ServiceCheckpoint::Load(path);
  ASSERT_FALSE(mto_ckpt.overlays.empty());
  ASSERT_EQ(load_error(), "loaded without error");
  const uint64_t num_users = CrawlService(config).network().num_users();
  ServiceCheckpoint bad = mto_ckpt;
  bad.overlays[0].delta.removed.push_back((uint64_t{7} << 32) | 3);
  bad.Save(path);
  error = load_error();
  EXPECT_NE(error.find("removed key is not in normalized order"),
            std::string::npos)
      << error;
  bad = mto_ckpt;
  bad.overlays[0].delta.processed.push_back((uint64_t{5} << 32) | 5);
  bad.Save(path);
  error = load_error();
  EXPECT_NE(error.find("processed key is not in normalized order"),
            std::string::npos)
      << error;
  bad = mto_ckpt;
  bad.overlays[0].delta.added.push_back(num_users);  // the edge (0, num_users)
  bad.Save(path);
  error = load_error();
  EXPECT_NE(error.find("added key references an unknown node"),
            std::string::npos)
      << error;
  std::remove(path.c_str());
}

TEST(CrawlServiceTest, BurnInRunsToTheCapWhenGewekeCannotPass) {
  // min_length above cap x walkers: the monitor never gets to check, so
  // burn-in ends on the cap. The cap is not a multiple of the 20-round
  // epoch, so the last epoch is clamped.
  ScenarioConfig config = FaultyScenario();
  config.max_burn_in_rounds = 70;
  config.geweke_min_length = 70 * config.num_walkers + 1;
  CrawlService service(config);
  const ServiceResult result = service.Run();
  EXPECT_FALSE(result.burn_in_converged);
  EXPECT_EQ(result.burn_in_rounds, config.max_burn_in_rounds);
  EXPECT_EQ(result.samples.size(), config.num_samples);
}

TEST(EstimationPipelineTest, ChunkingDoesNotChangeTheResult) {
  // A drifting prefix followed by stationary noise, so Geweke converges
  // part-way through the stream, and samples with some zero weights.
  Rng rng(0x5EED);
  std::vector<double> thetas;
  for (size_t i = 0; i < 20; ++i) thetas.push_back(rng.Normal(40.0 + i, 5.0));
  for (size_t i = 0; i < 1500; ++i) thetas.push_back(rng.Normal(60.0, 5.0));
  struct Sample {
    double value, weight;
    uint64_t cost;
  };
  std::vector<Sample> samples;
  for (size_t i = 0; i < 200; ++i) {
    samples.push_back({rng.UniformDouble(0.0, 50.0),
                       i % 5 == 0 ? 0.0 : rng.UniformDouble(0.1, 1.0),
                       10 * i + rng.UniformInt(10)});
  }
  EstimationPipeline::Options options;
  options.geweke_threshold = 0.3;
  options.geweke_min_length = 100;
  options.geweke_check_every = 30;

  // Hand-driven reference.
  GewekeMonitor monitor(options.geweke_threshold, options.geweke_min_length,
                        options.geweke_check_every);
  size_t converged_at = 0;
  for (size_t i = 0; i < thetas.size(); ++i) {
    monitor.Add(thetas[i]);
    if (converged_at == 0 && monitor.Converged()) converged_at = i + 1;
  }
  ASSERT_GT(converged_at, options.geweke_min_length);
  ASSERT_LT(converged_at, thetas.size());
  RunningImportanceMean mean;
  std::vector<TracePoint> trace;
  for (const Sample& sample : samples) {
    if (sample.weight > 0.0) mean.Add(sample.value, sample.weight);
    if (mean.Valid()) trace.push_back({sample.cost, mean.Estimate()});
  }

  for (const size_t chunk : {size_t{1}, size_t{7}, thetas.size()}) {
    SCOPED_TRACE(chunk);
    EstimationPipeline pipeline(options);
    for (size_t begin = 0; begin < thetas.size(); begin += chunk) {
      const size_t end = std::min(begin + chunk, thetas.size());
      pipeline.PushDiagnostics(
          std::span<const double>(thetas).subspan(begin, end - begin));
      for (size_t n = 0; n <= end; ++n) {
        ASSERT_EQ(pipeline.ConvergedAfter(n), n >= converged_at) << n;
      }
    }
    EXPECT_TRUE(std::equal(thetas.begin(), thetas.end(),
                           pipeline.diagnostics().begin(),
                           pipeline.diagnostics().end()));
    for (const Sample& sample : samples) {
      pipeline.PushSample(sample.value, sample.weight, sample.cost);
    }
    EXPECT_EQ(pipeline.RunningEstimate(), mean.Estimate());  // bitwise
    const EstimationPipeline::Result result = pipeline.Finish();
    EXPECT_TRUE(result.converged);
    EXPECT_EQ(result.converged_at, converged_at);
    EXPECT_EQ(result.last_z, monitor.last_z());
    EXPECT_EQ(result.num_diagnostics, thetas.size());
    EXPECT_EQ(result.num_samples, samples.size());
    EXPECT_TRUE(result.estimate_valid);
    EXPECT_EQ(result.estimate, mean.Estimate());
    ASSERT_EQ(result.trace.size(), trace.size());
    for (size_t i = 0; i < trace.size(); ++i) {
      EXPECT_EQ(result.trace[i].query_cost, trace[i].query_cost) << i;
      EXPECT_EQ(result.trace[i].estimate, trace[i].estimate) << i;
    }
  }
}

TEST(EstimationPipelineTest, ConvergedAfterRefusesObservationsNeverPushed) {
  // Asking about diagnostics that were never pushed is a caller bug.
  EstimationPipeline pipeline(EstimationPipeline::Options{});
  const std::vector<double> thetas(10, 1.0);
  pipeline.PushDiagnostics(thetas);
  EXPECT_THROW(pipeline.ConvergedAfter(11), std::logic_error);
  EXPECT_FALSE(pipeline.ConvergedAfter(10));  // below min_length
  pipeline.Finish();
}

TEST(CrawlServiceTest, BudgetedScenarioStopsAtPoolCap) {
  ScenarioConfig config = FaultyScenario();
  config.total_budget = 500;
  CrawlService service(config);
  ServiceResult result = service.Run();
  EXPECT_LE(result.total_query_cost, 500u);
}

}  // namespace
}  // namespace mto
