#include "src/service/scenario_config.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/util/rng.h"

namespace mto {
namespace {

constexpr const char* kFullDocument = R"({
  "dataset": "epinions_small",
  "seed": 42,
  "program": {"name": "mhrw"},
  "attribute": "description_length",
  "walkers": 16,
  "threads": 4,
  "coalesce_frontier": true,
  "geweke": {"threshold": 0.2, "min_length": 100, "check_every": 25},
  "max_burn_in_rounds": 500,
  "num_samples": 64,
  "thinning": 10,
  "total_budget": 9000,
  "routing": "budget_aware",
  "fault_seed": 1337,
  "retry": {"max_attempts_per_backend": 5, "base_backoff_us": 2000,
            "multiplier": 1.5, "max_backoff_us": 50000, "jitter": 0.25},
  "backends": [
    {"name": "us-east", "budget": 5000, "rate_per_sec": 50,
     "burst": 10, "latency_us": 200, "latency_sigma": 0.3,
     "timeout_rate": 0.02, "error_rate": 0.05, "quota_rate": 0.01,
     "timeout_us": 40000},
    {"name": "eu-west", "latency_us": 350}
  ],
  "checkpoint": {"path": "crawl.ckpt", "every_units": 4}
})";

TEST(ScenarioConfigTest, ParsesFullDocument) {
  const ScenarioConfig config = ScenarioConfig::FromJsonText(kFullDocument);
  EXPECT_EQ(config.dataset, "epinions_small");
  EXPECT_EQ(config.seed, 42u);
  EXPECT_EQ(config.sampler, SamplerKind::kMhrw);
  EXPECT_EQ(config.attribute, Attribute::kDescriptionLength);
  EXPECT_EQ(config.num_walkers, 16u);
  EXPECT_EQ(config.num_threads, 4u);
  EXPECT_TRUE(config.coalesce_frontier);
  EXPECT_DOUBLE_EQ(config.geweke_threshold, 0.2);
  EXPECT_EQ(config.geweke_check_every, 25u);
  EXPECT_EQ(config.max_burn_in_rounds, 500u);
  EXPECT_EQ(config.num_samples, 64u);
  EXPECT_EQ(config.total_budget, 9000u);
  EXPECT_EQ(config.strategy, BackendSelection::kBudgetAware);
  EXPECT_EQ(config.fault_seed, 1337u);
  EXPECT_EQ(config.retry.max_attempts_per_backend, 5u);
  EXPECT_DOUBLE_EQ(config.retry.jitter, 0.25);
  ASSERT_EQ(config.backends.size(), 2u);
  EXPECT_EQ(config.backends[0].name, "us-east");
  ASSERT_TRUE(config.backends[0].budget.has_value());
  EXPECT_EQ(*config.backends[0].budget, 5000u);
  EXPECT_EQ(config.backends[0].latency_mean_us, 200u);
  EXPECT_EQ(config.backends[1].name, "eu-west");
  EXPECT_FALSE(config.backends[1].budget.has_value());
  EXPECT_EQ(config.checkpoint.path, "crawl.ckpt");
  EXPECT_EQ(config.checkpoint.every_units, 4u);
}

TEST(ScenarioConfigTest, EmptyDocumentYieldsDefaults) {
  const ScenarioConfig config = ScenarioConfig::FromJsonText("{}");
  EXPECT_EQ(config.sampler, SamplerKind::kSrw);
  EXPECT_EQ(config.num_walkers, 8u);
  EXPECT_TRUE(config.backends.empty());
  EXPECT_EQ(config.strategy, BackendSelection::kSharded);
  EXPECT_EQ(config.checkpoint.every_units, 0u);
}

TEST(ScenarioConfigTest, UnknownKeysAreRejected) {
  EXPECT_THROW(ScenarioConfig::FromJsonText(R"({"wakers": 8})"),
               std::invalid_argument);
  EXPECT_THROW(ScenarioConfig::FromJsonText(
                   R"({"retry": {"mx_attempts": 3}})"),
               std::invalid_argument);
  EXPECT_THROW(ScenarioConfig::FromJsonText(
                   R"({"backends": [{"latency": 5}]})"),
               std::invalid_argument);
  // Every nested block is strict, not just the top level.
  EXPECT_THROW(ScenarioConfig::FromJsonText(
                   R"({"geweke": {"treshold": 0.1}})"),
               std::invalid_argument);
  EXPECT_THROW(ScenarioConfig::FromJsonText(
                   R"({"checkpoint": {"path": "x.ckpt", "every": 2}})"),
               std::invalid_argument);
  EXPECT_THROW(ScenarioConfig::FromJsonText(
                   R"({"observability": {"metrix": true}})"),
               std::invalid_argument);
  EXPECT_THROW(ScenarioConfig::FromJsonText(
                   R"({"program": {"name": "srw", "nmae": "srw"}})"),
               std::invalid_argument);
  EXPECT_THROW(ScenarioConfig::FromJsonText(
                   R"({"program": {"name": "mto"}, "mto": {"lzay": true}})"),
               std::invalid_argument);
  // The removed block-major scheduler's keys are unknown keys now, so a
  // scenario written for it is refused instead of silently running
  // walker-major.
  EXPECT_THROW(ScenarioConfig::FromJsonText(R"({"schedule": "block"})"),
               std::invalid_argument);
  EXPECT_THROW(ScenarioConfig::FromJsonText(
                   R"({"block": {"size": 4096, "resident": 4}})"),
               std::invalid_argument);
  // Likewise the dropped duplicate spellings of "program" and "routing".
  EXPECT_THROW(ScenarioConfig::FromJsonText(R"({"sampler": "srw"})"),
               std::invalid_argument);
  EXPECT_THROW(ScenarioConfig::FromJsonText(R"({"strategy": "sharded"})"),
               std::invalid_argument);
}

TEST(ScenarioConfigTest, ProgramBlockSelectsTheWalkProgram) {
  // The "program" object resolves through the WalkProgram registry and
  // carries per-program parameters; the legacy enum follows when a legacy
  // name is chosen.
  {
    const ScenarioConfig config = ScenarioConfig::FromJsonText(
        R"({"program": {"name": "node2vec", "p": 0.5, "q": 2.0}})");
    EXPECT_EQ(config.ProgramName(), "node2vec");
    EXPECT_DOUBLE_EQ(config.program.p, 0.5);
    EXPECT_DOUBLE_EQ(config.program.q, 2.0);
  }
  {
    const ScenarioConfig config = ScenarioConfig::FromJsonText(
        R"({"program": {"name": "pagerank", "restart": 0.3}})");
    EXPECT_EQ(config.ProgramName(), "pagerank");
    EXPECT_DOUBLE_EQ(config.program.restart, 0.3);
  }
  {
    const ScenarioConfig config =
        ScenarioConfig::FromJsonText(R"({"program": {"name": "mhrw"}})");
    EXPECT_EQ(config.ProgramName(), "mhrw");
    EXPECT_EQ(config.sampler, SamplerKind::kMhrw);
  }
  // The "rj" alias canonicalizes, so fingerprints never depend on spelling.
  EXPECT_EQ(ScenarioConfig::FromJsonText(R"({"program": {"name": "rj"}})")
                .ProgramName(),
            "random_jump");
  // A program name must name a registered program; a knob must belong to
  // the chosen program; and name is required.
  EXPECT_THROW(
      ScenarioConfig::FromJsonText(R"({"program": {"name": "deepwalk"}})"),
      std::invalid_argument);
  EXPECT_THROW(ScenarioConfig::FromJsonText(
                   R"({"program": {"name": "srw", "p": 0.5}})"),
               std::invalid_argument);
  EXPECT_THROW(ScenarioConfig::FromJsonText(
                   R"({"program": {"name": "node2vec", "restart": 0.1}})"),
               std::invalid_argument);
  EXPECT_THROW(ScenarioConfig::FromJsonText(R"({"program": {"p": 0.5}})"),
               std::invalid_argument);
  // Out-of-range program parameters fail validation.
  EXPECT_THROW(ScenarioConfig::FromJsonText(
                   R"({"program": {"name": "node2vec", "p": 0.0}})"),
               std::invalid_argument);
  EXPECT_THROW(ScenarioConfig::FromJsonText(
                   R"({"program": {"name": "pagerank", "restart": 1.5}})"),
               std::invalid_argument);
}

TEST(ScenarioConfigTest, SemanticValidation) {
  EXPECT_THROW(ScenarioConfig::FromJsonText(R"({"walkers": 0})"),
               std::invalid_argument);
  EXPECT_THROW(ScenarioConfig::FromJsonText(R"({"threads": 0})"),
               std::invalid_argument);
  // 32-bit MTO knobs reject values that would wrap (2^32 + 1 is not 1).
  EXPECT_THROW(ScenarioConfig::FromJsonText(
                   R"({"program": {"name": "mto"},
                       "mto": {"max_inner_iterations": 4294967297}})"),
               std::invalid_argument);
  EXPECT_EQ(ScenarioConfig::FromJsonText(
                R"({"program": {"name": "mto"},
                    "mto": {"degree_probe": 4294967295}})")
                .mto.degree_probe,
            4294967295u);
  // Checkpointing requires a path...
  EXPECT_THROW(ScenarioConfig::FromJsonText(
                   R"({"checkpoint": {"every_units": 2}})"),
               std::invalid_argument);
  // MTO checkpoints its overlay delta since checkpoint format v2: a
  // checkpointed MTO scenario is a valid configuration.
  {
    const ScenarioConfig config = ScenarioConfig::FromJsonText(
        R"({"program": {"name": "mto"}, "checkpoint": {"path": "x.ckpt"}})");
    EXPECT_EQ(config.sampler, SamplerKind::kMto);
    EXPECT_EQ(config.checkpoint.path, "x.ckpt");
  }
}

TEST(ScenarioConfigTest, FingerprintTracksBehavioralFieldsOnly) {
  const ScenarioConfig a = ScenarioConfig::FromJsonText(kFullDocument);
  ScenarioConfig b = a;
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  b.seed = 43;
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
  b = a;
  b.backends[0].error_rate = 0.2;
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
  // Thread count and stepping mode do not change results (runtime
  // contract), so checkpoints port across them.
  b = a;
  b.num_threads = 1;
  b.coalesce_frontier = false;
  b.queue_capacity = 16;
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  // Same for the pipeline depth (pipeline_equivalence_test pins the
  // bitwise equivalence this exclusion relies on)...
  b = a;
  b.pipeline_depth = 2;
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  // ...and for the routing strategy, excluded on live-rotation grounds: a
  // checkpoint resumed under a different policy continues as a hybrid
  // trajectory instead of failing the fingerprint check.
  b = a;
  b.strategy = BackendSelection::kRendezvous;
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  // Program parameters are behavioral: a node2vec crawl with different
  // bias, or a pagerank crawl with a different restart, is a different
  // experiment. (The program *name* is mixed as the registry string, so a
  // config that selects mhrw only through the legacy `sampler` field — as
  // checkpoints written before the "program" key did — fingerprints like
  // `a`, which names it in "program".)
  ScenarioConfig via_enum = a;
  via_enum.program.name.clear();
  via_enum.sampler = SamplerKind::kMhrw;
  EXPECT_EQ(a.Fingerprint(), via_enum.Fingerprint());
  b = a;
  b.program.name = "node2vec";
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
  const uint64_t node2vec_reference = b.Fingerprint();
  b.program.p = 0.5;
  EXPECT_NE(b.Fingerprint(), node2vec_reference);
  b.program.p = 1.0;
  b.program.q = 2.0;
  EXPECT_NE(b.Fingerprint(), node2vec_reference);
  b = a;
  b.program.name = "pagerank";
  const uint64_t pagerank_reference = b.Fingerprint();
  b.program.restart = 0.3;
  EXPECT_NE(b.Fingerprint(), pagerank_reference);
}

TEST(ScenarioConfigTest, ParsesPipelineDepth) {
  EXPECT_EQ(ScenarioConfig::FromJsonText("{}").pipeline_depth, 0u);
  EXPECT_EQ(
      ScenarioConfig::FromJsonText(R"({"pipeline_depth": 3})").pipeline_depth,
      3u);
}

TEST(ScenarioConfigTest, FromFileRoundTrips) {
  const std::string path =
      testing::TempDir() + "/scenario_config_test.json";
  {
    std::ofstream out(path);
    out << kFullDocument;
  }
  const ScenarioConfig config = ScenarioConfig::FromFile(path);
  EXPECT_EQ(config.backends.size(), 2u);
  std::remove(path.c_str());
  EXPECT_THROW(ScenarioConfig::FromFile(path), std::runtime_error);
}

/// Every shipped scenario document (examples/scenarios/*.json), sorted.
std::vector<std::string> ShippedScenarioPaths() {
  std::vector<std::string> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(MTO_SCENARIO_DIR)) {
    if (entry.path().extension() == ".json") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

TEST(ShippedScenarioTest, EveryExampleScenarioParsesAndValidates) {
  // A key removal that the shipped examples still use must fail here, not
  // only when someone runs the example.
  const std::vector<std::string> paths = ShippedScenarioPaths();
  ASSERT_GE(paths.size(), 3u);
  for (const std::string& path : paths) {
    SCOPED_TRACE(path);
    ScenarioConfig config;
    ASSERT_NO_THROW(config = ScenarioConfig::FromFile(path));
    EXPECT_NO_THROW(config.Validate());
  }
}

// Seeded hostile-input fuzz over the shipped scenario texts, in
// checkpoint_test's style: ~1k mutants made of random byte flips (1-8
// bytes), truncations, and appends (1-8 random bytes). The parser's
// contract is "reject loudly or validate": every mutant must either throw
// a std::exception (JSON syntax, unknown key, wrong type, out of range) or
// yield a config that passes Validate(). It must never crash, hang, or
// throw anything else; the sanitizer CI jobs run it too.
TEST(ScenarioFuzzTest, MutatedScenarioTextsRejectLoudlyOrValidate) {
  std::vector<std::string> texts;
  for (const std::string& path : ShippedScenarioPaths()) {
    std::ifstream in(path);
    std::ostringstream body;
    body << in.rdbuf();
    texts.push_back(body.str());
  }
  ASSERT_FALSE(texts.empty());

  Rng rng(0x5CE7A);
  size_t rejected = 0, accepted = 0;
  constexpr size_t kMutants = 1200;
  for (size_t m = 0; m < kMutants; ++m) {
    SCOPED_TRACE("mutant " + std::to_string(m));
    std::string text = texts[m % texts.size()];
    if (m % 4 == 0) {
      text.resize(rng.UniformInt(text.size()));
    } else if (m % 8 == 6) {
      const uint64_t extra = 1 + rng.UniformInt(8);
      for (uint64_t e = 0; e < extra; ++e) {
        text.push_back(static_cast<char>(rng.UniformInt(256)));
      }
    } else {
      const uint64_t flips = 1 + rng.UniformInt(8);
      for (uint64_t f = 0; f < flips; ++f) {
        const size_t offset = static_cast<size_t>(rng.UniformInt(text.size()));
        text[offset] = static_cast<char>(text[offset] ^
                                         (1 + rng.UniformInt(255)));
      }
    }
    try {
      const ScenarioConfig config = ScenarioConfig::FromJsonText(text);
      config.Validate();
      ++accepted;
    } catch (const std::exception&) {
      ++rejected;  // loud rejection is the expected common case
    }
  }
  // Both arms are exercised: most mutants break syntax or a key, while
  // flips confined to string values (names, paths) still validate.
  EXPECT_GT(rejected, kMutants / 2);
  EXPECT_GT(accepted, 0u);
}

}  // namespace
}  // namespace mto
