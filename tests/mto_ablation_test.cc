// Scenario-level MTO ablation knobs — the `"mto"` object. Three contracts:
// (1) configuration integrity: every knob round-trips through the JSON
// surface, unknown keys and knob/program mismatches fail loudly, and every
// knob is part of the checkpoint fingerprint (resuming under a different
// ablation is a different experiment and must be refused); (2) the knobs
// actually reach the walkers: flipping an ablation through ScenarioConfig
// changes overlay rewiring / query cost through the full CrawlService
// stack; (3) the service-level ablation directions agree with driving the
// library-level MtoSampler directly — the scenario knobs are a faithful
// remote control, not a diverging reimplementation.

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "src/core/mto_sampler.h"
#include "src/graph/datasets.h"
#include "src/service/crawl_service.h"

namespace mto {
namespace {

TEST(MtoAblationConfigTest, EveryKnobRoundTripsThroughJson) {
  const ScenarioConfig config = ScenarioConfig::FromJsonText(R"({
    "program": {"name": "mto"},
    "mto": {
      "enable_removal": false,
      "criterion_basis": "original",
      "min_overlay_degree": 3,
      "enable_replacement": false,
      "use_degree_extension": true,
      "lazy": true,
      "replace_probability": 0.25,
      "weight_mode": "exact",
      "degree_probe": 4,
      "max_inner_iterations": 64
    }
  })");
  EXPECT_TRUE(config.mto_configured);
  EXPECT_EQ(config.ProgramName(), "mto");
  EXPECT_EQ(config.sampler, SamplerKind::kMto);  // legacy enum stays in sync
  EXPECT_FALSE(config.mto.enable_removal);
  EXPECT_EQ(config.mto.criterion_basis, CriterionBasis::kOriginal);
  EXPECT_EQ(config.mto.min_overlay_degree, 3u);
  EXPECT_FALSE(config.mto.enable_replacement);
  EXPECT_TRUE(config.mto.use_degree_extension);
  EXPECT_TRUE(config.mto.lazy);
  EXPECT_EQ(config.mto.replace_probability, 0.25);
  EXPECT_EQ(config.mto.weight_mode, OverlayDegreeMode::kExact);
  EXPECT_EQ(config.mto.degree_probe, 4u);
  EXPECT_EQ(config.mto.max_inner_iterations, 64u);
  // The remaining enum spellings parse too.
  EXPECT_EQ(ScenarioConfig::FromJsonText(
                R"({"program": {"name": "mto"},
                    "mto": {"weight_mode": "probe",
                            "criterion_basis": "overlay"}})")
                .mto.weight_mode,
            OverlayDegreeMode::kProbe);
}

TEST(MtoAblationConfigTest, UnknownKeysFailLoudly) {
  // A typo'd knob must not silently run the default ablation.
  EXPECT_THROW(ScenarioConfig::FromJsonText(
                   R"({"program": {"name": "mto"},
                       "mto": {"enable_removel": false}})"),
               std::invalid_argument);
  EXPECT_THROW(ScenarioConfig::FromJsonText(
                   R"({"program": {"name": "srw", "pq": 1.0}})"),
               std::invalid_argument);
  EXPECT_THROW(ScenarioConfig::FromJsonText(
                   R"({"mto": {"criterion_basis": "imaginary"},
                       "program": {"name": "mto"}})"),
               std::invalid_argument);
  EXPECT_THROW(ScenarioConfig::FromJsonText(
                   R"({"mto": {"weight_mode": "psychic"},
                       "program": {"name": "mto"}})"),
               std::invalid_argument);
}

TEST(MtoAblationConfigTest, MtoBlockRequiresTheMtoProgram) {
  // An ablation block that no walker will read is a config lie.
  EXPECT_THROW(ScenarioConfig::FromJsonText(
                   R"({"program": {"name": "srw"}, "mto": {"lazy": true}})"),
               std::invalid_argument);
  // ...including via the implicit default program (srw).
  EXPECT_THROW(ScenarioConfig::FromJsonText(R"({"mto": {"lazy": true}})"),
               std::invalid_argument);
  // The block is accepted when the program *is* mto.
  EXPECT_NO_THROW(ScenarioConfig::FromJsonText(
      R"({"program": {"name": "mto"}, "mto": {"lazy": true}})"));
}

TEST(MtoAblationConfigTest, EveryKnobLandsInTheFingerprint) {
  ScenarioConfig base;
  base.program.name = "mto";
  base.sampler = SamplerKind::kMto;
  base.mto_configured = true;
  const uint64_t reference = base.Fingerprint();

  using Mutator = std::function<void(ScenarioConfig&)>;
  const std::vector<std::pair<const char*, Mutator>> knobs = {
      {"enable_removal", [](ScenarioConfig& c) { c.mto.enable_removal = false; }},
      {"criterion_basis",
       [](ScenarioConfig& c) { c.mto.criterion_basis = CriterionBasis::kOriginal; }},
      {"min_overlay_degree",
       [](ScenarioConfig& c) { c.mto.min_overlay_degree = 5; }},
      {"enable_replacement",
       [](ScenarioConfig& c) { c.mto.enable_replacement = false; }},
      {"use_degree_extension",
       [](ScenarioConfig& c) { c.mto.use_degree_extension = true; }},
      {"lazy", [](ScenarioConfig& c) { c.mto.lazy = true; }},
      {"replace_probability",
       [](ScenarioConfig& c) { c.mto.replace_probability = 0.75; }},
      {"weight_mode",
       [](ScenarioConfig& c) { c.mto.weight_mode = OverlayDegreeMode::kExact; }},
      {"degree_probe", [](ScenarioConfig& c) { c.mto.degree_probe = 16; }},
      {"max_inner_iterations",
       [](ScenarioConfig& c) { c.mto.max_inner_iterations = 32; }},
  };
  for (const auto& [name, mutate] : knobs) {
    SCOPED_TRACE(name);
    ScenarioConfig changed = base;
    mutate(changed);
    EXPECT_NE(changed.Fingerprint(), reference)
        << "ablation knob invisible to the fingerprint";
  }
  // Execution-shape knobs stay excluded: same experiment, different engine.
  ScenarioConfig shape = base;
  shape.num_threads = 8;
  shape.pipeline_depth = 2;
  shape.coalesce_frontier = true;
  EXPECT_EQ(shape.Fingerprint(), reference);
}

/// Small single-backend MTO crawl; knobs applied by the caller.
ScenarioConfig AblationScenario() {
  ScenarioConfig config;
  config.dataset = "epinions_small";
  config.seed = 0xAB1A7E;
  config.program.name = "mto";
  config.sampler = SamplerKind::kMto;
  config.mto_configured = true;
  config.num_walkers = 8;
  config.geweke_check_every = 20;
  config.geweke_min_length = 40;
  config.max_burn_in_rounds = 120;
  config.num_samples = 24;
  config.thinning = 4;
  return config;
}

struct AblationOutcome {
  size_t removed_edges = 0;  ///< summed over walkers' overlay deltas
  uint64_t query_cost = 0;
};

AblationOutcome RunAblation(const ScenarioConfig& config) {
  CrawlService service(config);
  const ServiceResult result = service.Run();
  AblationOutcome out;
  out.query_cost = result.total_query_cost;
  for (size_t i = 0; i < service.scheduler().size(); ++i) {
    auto* walker = dynamic_cast<MtoSampler*>(&service.scheduler().walker(i));
    if (walker != nullptr) {
      out.removed_edges += walker->SnapshotOverlay().removed.size();
    }
  }
  return out;
}

TEST(MtoAblationServiceTest, RewiringKnobsReachTheWalkers) {
  // The paper's headline ablation (Theorem 3/4 rewiring on/off), driven
  // entirely through ScenarioConfig: with the rules on the crawl rewires;
  // with both off not a single edge may disappear. (Replacement alone also
  // records removals — a replaced edge is removed then re-added — so the
  // zero-rewiring arm turns off both rules.)
  ScenarioConfig with_rewiring = AblationScenario();
  ScenarioConfig without_rewiring = AblationScenario();
  without_rewiring.mto.enable_removal = false;
  without_rewiring.mto.enable_replacement = false;
  const AblationOutcome on = RunAblation(with_rewiring);
  const AblationOutcome off = RunAblation(without_rewiring);
  EXPECT_GT(on.removed_edges, 0u);
  EXPECT_EQ(off.removed_edges, 0u);
}

TEST(MtoAblationServiceTest, LazyKnobCostsQueriesAtTheServiceLayer) {
  // Algorithm 1's lazy step re-picks (and re-queries) half the moves; the
  // scenario knob must surface as higher unique-query cost end to end.
  ScenarioConfig eager = AblationScenario();
  ScenarioConfig lazy = AblationScenario();
  lazy.mto.lazy = true;
  const AblationOutcome eager_out = RunAblation(eager);
  const AblationOutcome lazy_out = RunAblation(lazy);
  EXPECT_GT(lazy_out.query_cost, eager_out.query_cost);
}

TEST(MtoAblationServiceTest, ServiceAblationsAgreeWithTheLibrary) {
  // The cross-check that the scenario knobs are a faithful remote control:
  // drive the library-level MtoSampler directly under the same two
  // ablations and require the same direction — removals strictly positive
  // with the knob on, exactly zero with it off.
  SocialNetwork network(MakeDataset("epinions_small"));
  auto run_library = [&network](const MtoConfig& mto_config) {
    RestrictedInterface interface(network);
    Rng rng(0xAB1A7E);
    MtoSampler sampler(interface, rng, 17, mto_config);
    for (int i = 0; i < 600; ++i) sampler.Step();
    return sampler.SnapshotOverlay().removed.size();
  };
  MtoConfig rewiring_on;
  MtoConfig rewiring_off;
  rewiring_off.enable_removal = false;
  rewiring_off.enable_replacement = false;
  EXPECT_GT(run_library(rewiring_on), 0u);
  EXPECT_EQ(run_library(rewiring_off), 0u);
}

TEST(MtoAblationServiceTest, ResumeUnderADifferentAblationFailsLoudly) {
  // Every knob is fingerprinted, so a checkpoint taken under one ablation
  // must refuse to resume under another — silently continuing would splice
  // two different experiments into one trajectory.
  const std::string path = testing::TempDir() + "/mto_ablation_resume.ckpt";
  ScenarioConfig victim_config = AblationScenario();
  {
    CrawlService victim(victim_config);
    for (int i = 0; i < 3 && victim.Advance(); ++i) {
    }
    victim.SaveCheckpoint(path);
  }
  // Same scenario resumes fine...
  {
    CrawlService resumed(victim_config);
    EXPECT_NO_THROW(resumed.LoadCheckpoint(path));
  }
  // ...any flipped knob does not.
  ScenarioConfig changed_config = victim_config;
  changed_config.mto.criterion_basis = CriterionBasis::kOriginal;
  CrawlService changed(changed_config);
  try {
    changed.LoadCheckpoint(path);
    FAIL() << "resume under a different ablation accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("different scenario"),
              std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mto
