#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/experiments/harness.h"
#include "src/service/backend_pool.h"
#include "src/service/retry_policy.h"
#include "src/util/json.h"

namespace mto {

/// Periodic checkpointing of a CrawlService run.
struct CheckpointConfig {
  std::string path;          ///< empty = checkpointing disabled
  size_t every_units = 0;    ///< save every N Advance() units; 0 = disabled
};

/// Walk-program selection (the scenario's `"program"` object): `name` is
/// resolved through the WalkProgram registry (src/walk/walk_program.h), so
/// new programs need no enum surgery.
struct ProgramConfig {
  std::string name;       ///< empty = fall back to the `sampler` field
  double p = 1.0;         ///< node2vec return parameter (> 0)
  double q = 1.0;         ///< node2vec in-out parameter (> 0)
  double restart = 0.15;  ///< pagerank teleport probability ([0, 1])
};

/// Passive telemetry of a CrawlService run (all off by default). Strictly
/// observational: enabling any of it draws no randomness, issues no
/// queries, and mutates no session state, so results stay bit-identical to
/// an unobserved run — which is also why the block is excluded from the
/// checkpoint fingerprint (see ScenarioConfig::Fingerprint).
struct ObservabilityConfig {
  bool metrics = false;       ///< maintain the MetricsRegistry
  std::string trace_path;     ///< Chrome trace JSON out; empty = no tracing
  std::string report_path;    ///< final run-report JSON; empty = disabled
  /// Take a StatsSnapshot every N Advance() units (kept in memory, emitted
  /// in the run report); 0 = final snapshot only.
  size_t snapshot_every_units = 0;
  /// Serve live introspection over HTTP on 127.0.0.1 (obs::
  /// IntrospectionServer: /metrics, /report, /healthz, /quitquitquit).
  /// Present = enabled (requires metrics); 0 = pick an ephemeral port,
  /// reported in the run report's "live" section.
  std::optional<uint16_t> http_port;
  /// Honor GET /quitquitquit (graceful checkpoint-then-stop). Off by
  /// default: a scrape should never be able to stop a crawl by accident.
  bool allow_quit = false;
  /// Watchdog stall rule: unhealthy when no Advance unit completes for
  /// this many wall-clock ms; 0 (default) disables the rule, leaving only
  /// the snapshot-driven lane-starvation and budget-exhaustion rules.
  uint64_t watchdog_stall_ms = 0;
  /// Consecutive snapshots a pipeline lane must sit pinned at its depth
  /// high-watermark before /healthz reports starvation; 0 disables.
  size_t watchdog_starved_snapshots = 3;
};

/// Complete description of a crawl-service run, loadable from JSON: the
/// dataset, the sampler and estimation parameters, the crawl-runtime shape
/// (walkers/threads/stepping mode), the backend fleet with its retry and
/// selection policies, and optional periodic checkpointing.
///
/// Strictness: unknown keys anywhere in the document are an error (config
/// typos should fail loudly, not silently run a different scenario).
/// Example document (all keys optional except none):
///
/// ```json
/// {
///   "dataset": "epinions_small",
///   "seed": 42,
///   "program": {"name": "srw"},
///   "attribute": "degree",
///   "walkers": 16, "threads": 4, "coalesce_frontier": false,
///   "pipeline_depth": 0,
///   "geweke": {"threshold": 0.1, "min_length": 200, "check_every": 50},
///   "max_burn_in_rounds": 2000,
///   "num_samples": 200, "thinning": 25,
///   "total_budget": 0,
///   "routing": "sharded",
///   "fault_seed": 1337,
///   "retry": {"max_attempts_per_backend": 3, "base_backoff_us": 1000,
///             "multiplier": 2.0, "max_backoff_us": 100000, "jitter": 0.5},
///   "backends": [
///     {"name": "us-east", "budget": 0, "rate_per_sec": 50,
///      "burst": 10, "latency_us": 200, "latency_sigma": 0.3,
///      "timeout_rate": 0.02, "error_rate": 0.05, "quota_rate": 0.01,
///      "timeout_us": 50000}
///   ],
///   "checkpoint": {"path": "crawl.ckpt", "every_units": 4},
///   "observability": {"metrics": true, "snapshot_every_units": 2,
///                     "trace_path": "run.trace.json",
///                     "report_path": "run.report.json",
///                     "http_port": 0, "allow_quit": false,
///                     "watchdog_stall_ms": 0,
///                     "watchdog_starved_snapshots": 3}
/// }
/// ```
struct ScenarioConfig {
  std::string dataset = "epinions_small";
  uint64_t seed = 1;
  SamplerKind sampler = SamplerKind::kSrw;
  Attribute attribute = Attribute::kDegree;
  double jump_probability = 0.5;  ///< used when sampler == random_jump

  /// Walk-program selection (`"program"` object). When `program.name` is
  /// one of the four legacy names the `sampler` enum is kept in sync for
  /// downstream consumers (run reports, experiment harness helpers).
  ProgramConfig program;
  /// The paper's MTO ablation knobs (`"mto"` object); consumed only when
  /// the resolved program is "mto" — setting the block for any other
  /// program is an error. Every knob is part of the checkpoint
  /// fingerprint: resuming under a different ablation fails loudly.
  MtoConfig mto;
  /// True when the document carried an `"mto"` block (the defaults are
  /// indistinguishable from an empty block, so validation needs the bit).
  bool mto_configured = false;

  size_t num_walkers = 8;
  size_t num_threads = 1;
  bool coalesce_frontier = false;
  /// Pipelined rounds (coalesced stepping only): with depth k >= 1, up to
  /// k rounds of deferred backend latency stay in flight behind the crawl
  /// and each round prefetches up to k predicted targets per walker as
  /// wall-clock-only tickets. Pure execution shape like num_threads —
  /// results are bit-identical to 0 (pipeline_equivalence_test pins this)
  /// and the knob is excluded from the checkpoint fingerprint.
  size_t pipeline_depth = 0;
  size_t queue_capacity = 4096;

  double geweke_threshold = 0.1;
  size_t geweke_min_length = 200;
  size_t geweke_check_every = 50;
  size_t max_burn_in_rounds = 2000;
  size_t num_samples = 200;
  size_t thinning = 25;

  /// Pool-wide unique-query cap on top of per-backend budgets; 0 = none.
  uint64_t total_budget = 0;
  std::vector<BackendConfig> backends;  ///< empty = one perfect backend
  /// Backend routing policy (the `"routing"` key). Excluded
  /// from the checkpoint fingerprint: resuming under a different policy is
  /// a live rotation, the trajectory simply becomes hybrid.
  BackendSelection strategy = BackendSelection::kSharded;
  RetryPolicy retry;
  uint64_t fault_seed = 0x5EED;

  CheckpointConfig checkpoint;
  ObservabilityConfig observability;

  /// Parses and validates; throws std::runtime_error (json errors) or
  /// std::invalid_argument (semantic errors) with a descriptive message.
  static ScenarioConfig FromJson(const JsonValue& root);
  static ScenarioConfig FromJsonText(std::string_view text);
  static ScenarioConfig FromFile(const std::string& path);

  /// Semantic validation (ranges, sampler/checkpoint compatibility).
  void Validate() const;

  /// The resolved walk-program registry name: `program.name` when the
  /// document selected one, else the legacy `sampler` key's name. This is
  /// what CrawlService resolves through GetWalkProgram, what the
  /// fingerprint mixes, and what metric labels carry.
  std::string ProgramName() const;

  /// Stable hash of the fields that determine crawl behavior; stored in
  /// checkpoints so resuming under a different scenario fails loudly.
  uint64_t Fingerprint() const;
};

const char* SamplerKindKey(SamplerKind kind);
const char* AttributeKey(Attribute attribute);

}  // namespace mto
