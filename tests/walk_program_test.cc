// Walk-program equivalence tier — the plugin tentpole's headline invariant:
// the programs that arrived through the WalkProgram registry (node2vec's
// second-order walk, PageRank mass estimation) obey the exact determinism
// contract the built-ins are pinned to. For each program, every execution
// shape — thread count, stepping mode (plain / coalesced / pipelined) —
// must produce bit-identical samples, trace, estimates, costs, and
// per-backend ledgers to the 1-thread plain reference, and a checkpoint
// taken under one shape must resume under any other to the same bits.
// Second-order state (node2vec's (prev, cur) frontier) is the new thing a
// checkpoint must carry; these tests are the proof it does.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "src/service/crawl_service.h"
#include "src/walk/node2vec.h"
#include "src/walk/pagerank.h"
#include "src/walk/walk_program.h"

namespace mto {
namespace {

enum class Stepping { kPlain, kCoalesced, kPipelined };

const char* SteppingName(Stepping stepping) {
  switch (stepping) {
    case Stepping::kPlain: return "plain";
    case Stepping::kCoalesced: return "coalesced";
    case Stepping::kPipelined: return "pipelined";
  }
  return "?";
}

struct Sweep {
  const char* program;
  size_t threads;
  Stepping stepping;
};

std::string SweepName(const testing::TestParamInfo<Sweep>& info) {
  return std::string(info.param.program) + "_" +
         SteppingName(info.param.stepping) + "_" +
         std::to_string(info.param.threads) + "threads";
}

/// Three faulty backends, pacing off (see fetch_equivalence_test for why),
/// budgets unlimited (a drained budget voids bit-identity by contract).
/// Non-default program knobs so the sweep exercises the biased paths:
/// node2vec runs return-biased and DFS-averse (p=0.5, q=2), pagerank
/// teleports often enough that the restart branch fires constantly.
ScenarioConfig BaseScenario(const std::string& program, size_t threads,
                            Stepping stepping) {
  ScenarioConfig config;
  config.dataset = "epinions_small";
  config.seed = 0x5EED5;
  config.num_walkers = 8;
  config.num_threads = threads;
  config.coalesce_frontier = stepping != Stepping::kPlain;
  config.pipeline_depth = stepping == Stepping::kPipelined ? 2 : 0;
  config.program.name = program;
  if (program == "node2vec") {
    config.program.p = 0.5;
    config.program.q = 2.0;
  }
  if (program == "pagerank") config.program.restart = 0.2;
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
  config.backends[0].error_rate = 0.2;
  config.backends[1].latency_mean_us = 80;
  config.backends[1].timeout_rate = 0.1;
  config.backends[2].latency_mean_us = 200;
  config.backends[2].quota_rate = 0.15;
  return config;
}

void ExpectResultsBitIdentical(const ServiceResult& want,
                               const ServiceResult& got) {
  EXPECT_EQ(want.samples, got.samples);
  ASSERT_EQ(want.trace.size(), got.trace.size());
  for (size_t i = 0; i < want.trace.size(); ++i) {
    EXPECT_EQ(want.trace[i].query_cost, got.trace[i].query_cost)
        << "trace " << i;
    EXPECT_EQ(want.trace[i].estimate, got.trace[i].estimate) << "trace " << i;
  }
  EXPECT_EQ(want.final_estimate, got.final_estimate);  // bitwise, not NEAR
  EXPECT_EQ(want.burn_in_converged, got.burn_in_converged);
  EXPECT_EQ(want.burn_in_rounds, got.burn_in_rounds);
  EXPECT_EQ(want.burn_in_query_cost, got.burn_in_query_cost);
  EXPECT_EQ(want.total_rounds, got.total_rounds);
  EXPECT_EQ(want.total_steps, got.total_steps);
  EXPECT_EQ(want.total_query_cost, got.total_query_cost);
  EXPECT_EQ(want.backend_requests, got.backend_requests);
  EXPECT_EQ(want.failed_fetches, got.failed_fetches);
  EXPECT_EQ(want.simulated_time_us, got.simulated_time_us);
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
    EXPECT_EQ(w.stats.simulated_us, g.stats.simulated_us);
  }
}

struct RunOutput {
  ServiceResult result;
  BackendPool::PoolSnapshot ledgers;
};

RunOutput RunScenario(const ScenarioConfig& config) {
  CrawlService service(config);
  RunOutput out;
  out.result = service.Run();
  out.ledgers = service.pool().SnapshotBackends();
  return out;
}

/// 1-thread plain reference, computed once per program: the canonical
/// trajectory every execution shape must reproduce bit-for-bit.
const RunOutput& Reference(const std::string& program) {
  static std::map<std::string, RunOutput>& cache =
      *new std::map<std::string, RunOutput>();
  auto it = cache.find(program);
  if (it == cache.end()) {
    it = cache
             .emplace(program,
                      RunScenario(BaseScenario(program, 1, Stepping::kPlain)))
             .first;
  }
  return it->second;
}

class WalkProgramEquivalenceTest : public testing::TestWithParam<Sweep> {};

TEST_P(WalkProgramEquivalenceTest, ShapeIsBitIdenticalToReference) {
  const Sweep& sweep = GetParam();
  const RunOutput& reference = Reference(sweep.program);
  const RunOutput got =
      RunScenario(BaseScenario(sweep.program, sweep.threads, sweep.stepping));
  ExpectResultsBitIdentical(reference.result, got.result);
  ExpectLedgersBitIdentical(reference.ledgers, got.ledgers);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WalkProgramEquivalenceTest,
    testing::Values(Sweep{"node2vec", 1, Stepping::kCoalesced},
                    Sweep{"node2vec", 1, Stepping::kPipelined},
                    Sweep{"node2vec", 2, Stepping::kPlain},
                    Sweep{"node2vec", 2, Stepping::kCoalesced},
                    Sweep{"node2vec", 2, Stepping::kPipelined},
                    Sweep{"node2vec", 8, Stepping::kPlain},
                    Sweep{"node2vec", 8, Stepping::kCoalesced},
                    Sweep{"node2vec", 8, Stepping::kPipelined},
                    Sweep{"pagerank", 1, Stepping::kCoalesced},
                    Sweep{"pagerank", 1, Stepping::kPipelined},
                    Sweep{"pagerank", 2, Stepping::kPlain},
                    Sweep{"pagerank", 2, Stepping::kCoalesced},
                    Sweep{"pagerank", 2, Stepping::kPipelined},
                    Sweep{"pagerank", 8, Stepping::kPlain},
                    Sweep{"pagerank", 8, Stepping::kCoalesced},
                    Sweep{"pagerank", 8, Stepping::kPipelined}),
    SweepName);

TEST(WalkProgramEquivalenceExtrasTest, SeedIsTheOnlySourceOfVariation) {
  for (const char* program : {"node2vec", "pagerank"}) {
    SCOPED_TRACE(program);
    // Same seed twice: bit-identical (over and above the sweep, this pins
    // run-to-run determinism of a single shape).
    const RunOutput a = RunScenario(BaseScenario(program, 2, Stepping::kPlain));
    const RunOutput b = RunScenario(BaseScenario(program, 2, Stepping::kPlain));
    ExpectResultsBitIdentical(a.result, b.result);
    ExpectLedgersBitIdentical(a.ledgers, b.ledgers);
    // A different seed actually changes the trajectory — the suite would
    // pin nothing if the programs ignored their RNG.
    ScenarioConfig reseeded = BaseScenario(program, 2, Stepping::kPlain);
    reseeded.seed = 0x0DD5EED;
    EXPECT_NE(RunScenario(reseeded).result.samples, a.result.samples);
  }
}

TEST(WalkProgramEquivalenceExtrasTest, CheckpointResumesAcrossEveryEngine) {
  // Kill/resume sweep: a victim crawl advances 3 units under the plainest
  // shape (depth 0, 1 thread, coalesced), checkpoints — second-order
  // walker registers included for node2vec — and the image resumes under
  // every pipeline depth x thread count to bits identical to the
  // uninterrupted reference. Execution shape is excluded from the
  // fingerprint, so every combination must load.
  for (const char* program : {"node2vec", "pagerank"}) {
    SCOPED_TRACE(program);
    const std::string path = testing::TempDir() + "/walk_program_" +
                             std::string(program) + ".ckpt";
    {
      ScenarioConfig victim_config =
          BaseScenario(program, 1, Stepping::kCoalesced);
      CrawlService victim(victim_config);
      for (int i = 0; i < 3 && victim.Advance(); ++i) {
      }
      victim.SaveCheckpoint(path);
    }
    for (size_t depth : {size_t{0}, size_t{2}}) {
      for (size_t threads : {size_t{1}, size_t{4}}) {
        SCOPED_TRACE("depth " + std::to_string(depth) + " x " +
                     std::to_string(threads) + " threads");
        ScenarioConfig resumed_config =
            BaseScenario(program, threads, Stepping::kCoalesced);
        resumed_config.pipeline_depth = depth;
        CrawlService resumed(resumed_config);
        resumed.LoadCheckpoint(path);
        while (resumed.Advance()) {
        }
        ExpectResultsBitIdentical(Reference(program).result, resumed.Finish());
        ExpectLedgersBitIdentical(Reference(program).ledgers,
                                  resumed.pool().SnapshotBackends());
      }
    }
    std::remove(path.c_str());
  }
}

TEST(WalkProgramEquivalenceExtrasTest, PerProgramMetricTwinsAreLabeled) {
  // Observability rides the program label: the labeled twins carry the
  // resolved program name while the unlabeled family (which CI's live
  // scrape requires) keeps counting.
  ScenarioConfig config = BaseScenario("node2vec", 1, Stepping::kPlain);
  config.observability.metrics = true;
  CrawlService service(config);
  service.Run();
  ASSERT_NE(service.metrics(), nullptr);
  const uint64_t plain = service.metrics()->CounterValue("scheduler.steps");
  const uint64_t labeled =
      service.metrics()->CounterValue("scheduler.steps{program=node2vec}");
  EXPECT_GT(plain, 0u);
  EXPECT_EQ(plain, labeled);
  EXPECT_GT(
      service.metrics()->CounterValue("scheduler.rounds{program=node2vec}"),
      0u);
}

TEST(WalkProgramRegistryTest, RegistryResolvesEveryBuiltIn) {
  for (const char* name :
       {"srw", "mhrw", "random_jump", "mto", "node2vec", "pagerank"}) {
    SCOPED_TRACE(name);
    const WalkProgram* program = FindWalkProgram(name);
    ASSERT_NE(program, nullptr);
    EXPECT_EQ(program->name(), name);
  }
  // The historical alias canonicalizes; unknowns resolve to null / throw.
  EXPECT_EQ(FindWalkProgram("rj"), FindWalkProgram("random_jump"));
  EXPECT_EQ(FindWalkProgram("deepwalk"), nullptr);
  EXPECT_THROW(GetWalkProgram("deepwalk"), std::invalid_argument);
  // Frontier shape drives what a checkpoint must carry: only node2vec is
  // second-order, only MTO owns an overlay.
  EXPECT_EQ(GetWalkProgram("node2vec").frontier_shape(),
            FrontierShape::kSecondOrder);
  EXPECT_EQ(GetWalkProgram("pagerank").frontier_shape(),
            FrontierShape::kOneNode);
  EXPECT_TRUE(GetWalkProgram("mto").uses_overlay());
  EXPECT_FALSE(GetWalkProgram("node2vec").uses_overlay());
  EXPECT_EQ(WalkProgramNames().size(), 6u);
}

TEST(WalkProgramRegistryTest, ProgramParametersAreRangeChecked) {
  ScenarioConfig config = BaseScenario("node2vec", 1, Stepping::kPlain);
  config.program.p = 0.0;
  EXPECT_THROW(config.Validate(), std::invalid_argument);
  config = BaseScenario("pagerank", 1, Stepping::kPlain);
  config.program.restart = 1.5;
  EXPECT_THROW(config.Validate(), std::invalid_argument);
  config.program.restart = -0.1;
  EXPECT_THROW(config.Validate(), std::invalid_argument);
}

}  // namespace
}  // namespace mto
