// Walk-program equivalence tier: the programs that arrived through the
// WalkProgram registry (node2vec's second-order walk, PageRank mass
// estimation) obey the exact determinism contract the built-ins are pinned
// to, and so does srw, the plainest paper sampler. For each program, every
// execution shape — thread count, stepping mode (plain / coalesced /
// pipelined) — must produce bit-identical samples, trace, estimates, costs,
// and per-backend ledgers to the 1-thread plain reference, and a checkpoint
// taken under one shape must resume under any other to the same bits.
// Second-order state (node2vec's (prev, cur) frontier) is the new thing a
// checkpoint must carry; these tests are the proof it does. Below the
// service tier, the peek contract coalesced rounds rely on
// (Sampler::PeekStep) is pinned once for every registered program.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/mto_sampler.h"
#include "src/graph/builder.h"
#include "src/graph/generators.h"
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
    config.program.params.p = 0.5;
    config.program.params.q = 2.0;
  }
  if (program == "pagerank") config.program.params.restart = 0.2;
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
                    Sweep{"pagerank", 8, Stepping::kPipelined},
                    // The plainest paper sampler across thread counts and
                    // stepping modes, through the same service driver.
                    Sweep{"srw", 2, Stepping::kPlain},
                    Sweep{"srw", 2, Stepping::kCoalesced},
                    Sweep{"srw", 8, Stepping::kPlain},
                    Sweep{"srw", 8, Stepping::kCoalesced}),
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

// --- The peek contract -----------------------------------------------

struct PeekCase {
  std::string label;
  std::string program;
  WalkProgramParams params;
};

/// Every registered program (node2vec and pagerank with the biased knobs
/// the sweep above uses), plus MTO's lazy and removal-only variants,
/// whose re-draws and re-picks are where a peek most often misses.
std::vector<PeekCase> PeekCases() {
  std::vector<PeekCase> cases;
  for (std::string_view name : WalkProgramNames()) {
    PeekCase c{std::string(name), std::string(name), {}};
    c.params.p = 0.5;
    c.params.q = 2.0;
    c.params.restart = 0.2;
    cases.push_back(c);
  }
  PeekCase lazy{"mto_lazy", "mto", {}};
  lazy.params.mto.lazy = true;
  cases.push_back(lazy);
  PeekCase removal_only{"mto_removal_only", "mto", {}};
  removal_only.params.mto.enable_replacement = false;
  cases.push_back(removal_only);
  return cases;
}

/// Dense communities with sparse links between them: MTO removes and
/// replaces edges constantly.
SocialNetwork PeekNetwork() {
  Rng rng(31);
  return SocialNetwork(LargestComponent(
      StochasticBlockModel({12, 12, 12, 12, 12}, 0.9, 0.02, rng)));
}

/// A network, a walk seed and a start node for the twin-walker test.
struct PeekInput {
  std::string label;
  SocialNetwork net;
  uint64_t seed;
  NodeId start;
};

/// The community network above, and the small barbell (two dense
/// cliques joined by one bridge) that MTO's early steps rewire heavily.
std::vector<PeekInput> PeekInputs() {
  std::vector<PeekInput> inputs;
  inputs.push_back({"sbm", PeekNetwork(), 0x7E57, 5});
  inputs.push_back({"barbell8", SocialNetwork(Barbell(8)), 22, 0});
  return inputs;
}

/// MTO's overlay counts and speculation counters; all zero for other walks.
struct MtoObservables {
  size_t overlay_registered = 0;
  size_t overlay_removed = 0;
  size_t overlay_added = 0;
  uint64_t speculative_commits = 0;
  uint64_t speculation_hits = 0;

  bool operator==(const MtoObservables&) const = default;
};

MtoObservables ObserveMto(const Sampler& walker) {
  MtoObservables o;
  if (const auto* mto = dynamic_cast<const MtoSampler*>(&walker)) {
    o.overlay_registered = mto->overlay().num_registered();
    o.overlay_removed = mto->overlay().num_removed();
    o.overlay_added = mto->overlay().num_added();
    o.speculative_commits = mto->speculative_commits();
    o.speculation_hits = mto->speculation_hits();
  }
  return o;
}

/// Everything a peek must leave alone, captured from one walker.
struct PeekObservables {
  std::array<uint64_t, 4> rng_state;
  uint64_t query_cost;
  uint64_t total_requests;
  MtoObservables mto;

  bool operator==(const PeekObservables&) const = default;
};

PeekObservables Observe(const Sampler& walker, const Rng& rng,
                        const RestrictedInterface& iface) {
  return {rng.SaveState(), iface.QueryCost(), iface.TotalRequests(),
          ObserveMto(walker)};
}

TEST(WalkProgramPeekTest, PeekThenStepMatchesPlainStepping) {
  // Twin walkers over identical seeds: one takes plain Step()s, the other
  // peeks before every step and prefetches the hint the way a coalescing
  // scheduler would. The peek itself must change nothing, and after every
  // step both twins must agree on position, second-order register, RNG
  // state, unique-query cost and MTO overlay. Each case runs from a fresh
  // start node and from one another walker already fetched (cached, but
  // not yet in MTO's overlay).
  for (const PeekInput& input : PeekInputs()) {
    for (const PeekCase& c : PeekCases()) {
      for (bool start_cached : {false, true}) {
        SCOPED_TRACE(input.label + " " + c.label +
                     (start_cached ? " start cached" : ""));
        const WalkProgram& program = GetWalkProgram(c.program);
        RestrictedInterface plain_iface(input.net);
        RestrictedInterface peek_iface(input.net);
        if (start_cached) {
          plain_iface.QueryRef(input.start);
          peek_iface.QueryRef(input.start);
        }
        Rng plain_rng(input.seed);
        Rng peek_rng(input.seed);
        auto plain =
            program.MakeWalker(plain_iface, plain_rng, input.start, c.params);
        auto peeked =
            program.MakeWalker(peek_iface, peek_rng, input.start, c.params);
        size_t hints = 0;
        for (int i = 0; i < 600; ++i) {
          const PeekObservables before =
              Observe(*peeked, peek_rng, peek_iface);
          const std::optional<NodeId> hint = peeked->PeekStep();
          ASSERT_TRUE(Observe(*peeked, peek_rng, peek_iface) == before)
              << "peek " << i << " changed walker or session state";
          if (hint) {
            ++hints;
            peek_iface.QueryRef(*hint);
          }
          plain->Step();
          peeked->Step();
          ASSERT_EQ(plain->current(), peeked->current()) << "step " << i;
          ASSERT_EQ(plain->PreviousNode(), peeked->PreviousNode())
              << "step " << i;
          ASSERT_EQ(plain_rng.SaveState(), peek_rng.SaveState())
              << "step " << i;
          ASSERT_EQ(plain_iface.QueryCost(), peek_iface.QueryCost())
              << "step " << i;
          const MtoObservables plain_mto = ObserveMto(*plain);
          const MtoObservables peek_mto = ObserveMto(*peeked);
          ASSERT_EQ(plain_mto.overlay_registered, peek_mto.overlay_registered)
              << "step " << i;
          ASSERT_EQ(plain_mto.overlay_removed, peek_mto.overlay_removed)
              << "step " << i;
          ASSERT_EQ(plain_mto.overlay_added, peek_mto.overlay_added)
              << "step " << i;
        }
        // Random Jump announces nothing; every other program has a hint
        // on every step of a connected graph.
        EXPECT_EQ(hints, c.program == "random_jump" ? 0u : 600u);
        // Every MTO step after a peek that named a pick is a speculative
        // commit: all but the first from an uncached start (that peek
        // names the start itself). The plain twin never peeked, so it
        // counts none. The twins went through rewiring, and so through
        // peeks that missed.
        if (c.program == "mto") {
          const MtoObservables plain_mto = ObserveMto(*plain);
          const MtoObservables peek_mto = ObserveMto(*peeked);
          EXPECT_EQ(peek_mto.speculative_commits,
                    start_cached ? 600u : 599u);
          EXPECT_EQ(plain_mto.speculative_commits, 0u);
          EXPECT_GT(peek_mto.overlay_removed, 0u);
          EXPECT_LT(peek_mto.speculation_hits, peek_mto.speculative_commits);
        }
      }
    }
  }
}

TEST(WalkProgramPeekTest, PeekAnnouncesAnUncachedStart) {
  // A fresh walker's start node is the first thing its step queries, so
  // the peek names it — putting start nodes on the first coalesced
  // frontier instead of fetching them inline. PageRank queries its start
  // only on the non-teleport branch; Random Jump announces nothing.
  const SocialNetwork net = PeekNetwork();
  for (const PeekCase& c : PeekCases()) {
    SCOPED_TRACE(c.label);
    const WalkProgram& program = GetWalkProgram(c.program);
    size_t teleports = 0;
    for (uint64_t seed = 1; seed <= 40; ++seed) {
      RestrictedInterface iface(net);
      Rng rng(seed);
      const NodeId start = static_cast<NodeId>(seed * 7 % net.num_users());
      auto walker = program.MakeWalker(iface, rng, start, c.params);
      Rng coin(0);
      coin.RestoreState(rng.SaveState());
      const bool teleport =
          c.program == "pagerank" && coin.Bernoulli(c.params.restart);
      const std::optional<NodeId> hint = walker->PeekStep();
      EXPECT_EQ(iface.QueryCost(), 0u);
      if (c.program == "random_jump") {
        EXPECT_EQ(hint, std::nullopt);
      } else if (teleport) {
        ++teleports;
        ASSERT_TRUE(hint.has_value());
        // The teleport target is the step's first (and only) query.
        walker->Step();
        EXPECT_TRUE(iface.IsCached(*hint));
        EXPECT_EQ(iface.QueryCost(), 1u);
      } else {
        EXPECT_EQ(hint, std::optional<NodeId>(start)) << "seed " << seed;
      }
    }
    if (c.program == "pagerank") {
      EXPECT_GT(teleports, 0u);
    }
  }
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

TEST(WalkProgramRegistryTest, PaperProgramsBuildTheirNamedWalkers) {
  // The four samplers of the paper's evaluation carry their figure-legend
  // names on the walker itself.
  SocialNetwork net(Cycle(8));
  RestrictedInterface iface(net);
  Rng rng(1);
  const std::pair<const char*, const char*> programs[] = {
      {"srw", "SRW"}, {"mhrw", "MHRW"}, {"random_jump", "RJ"}, {"mto", "MTO"}};
  for (const auto& [program, legend] : programs) {
    SCOPED_TRACE(program);
    auto walker =
        GetWalkProgram(program).MakeWalker(iface, rng, 0, WalkProgramParams{});
    ASSERT_NE(walker, nullptr);
    EXPECT_EQ(walker->name(), legend);
  }
}

TEST(WalkProgramRegistryTest, MakeWalkerClampsStart) {
  // An out-of-range start falls back to node 0 for every program.
  SocialNetwork net(Cycle(8));
  RestrictedInterface iface(net);
  Rng rng(1);
  for (std::string_view program : WalkProgramNames()) {
    SCOPED_TRACE(std::string(program));
    auto walker = GetWalkProgram(program).MakeWalker(iface, rng, 999,
                                                     WalkProgramParams{});
    EXPECT_EQ(walker->current(), 0u);
  }
}

TEST(WalkProgramRegistryTest, ProgramParametersAreRangeChecked) {
  ScenarioConfig config = BaseScenario("node2vec", 1, Stepping::kPlain);
  config.program.params.p = 0.0;
  EXPECT_THROW(config.Validate(), std::invalid_argument);
  config = BaseScenario("pagerank", 1, Stepping::kPlain);
  config.program.params.restart = 1.5;
  EXPECT_THROW(config.Validate(), std::invalid_argument);
  config.program.params.restart = -0.1;
  EXPECT_THROW(config.Validate(), std::invalid_argument);
}

}  // namespace
}  // namespace mto
