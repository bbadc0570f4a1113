#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/core/mto_sampler.h"
#include "src/estimate/estimators.h"
#include "src/net/restricted_interface.h"
#include "src/net/social_network.h"
#include "src/walk/sampler.h"

namespace mto {

/// Aggregate attributes used across the experiments.
enum class Attribute {
  kDegree,             ///< average degree (local datasets, Fig 7/11b)
  kDescriptionLength,  ///< average self-description length (Fig 11c)
  kAge,                ///< synthetic demographic (examples)
};

/// Value of the aggregate function at the sampler's current node. Reads the
/// node's cached query, so it never consumes extra budget.
double AttributeValue(Sampler& sampler, Attribute attribute);

/// Parameters of one aggregate-estimation run.
struct WalkRunConfig {
  /// WalkProgram registry name (src/walk/walk_program.h); the paper's four
  /// samplers are "srw", "mhrw", "random_jump" and "mto". An unknown name
  /// throws std::invalid_argument when a run starts.
  std::string program = "srw";
  Attribute attribute = Attribute::kDegree;
  double geweke_threshold = 0.1;   ///< paper default
  size_t geweke_min_length = 200;
  size_t geweke_check_every = 50;
  size_t max_burn_in_steps = 20000;  ///< cap on the burn-in phase
  size_t num_samples = 200;          ///< samples collected after burn-in
  size_t thinning = 25;              ///< walk steps between samples
  bool restart_per_sample = false;   ///< Algorithm 1's literal per-sample loop
  MtoConfig mto;                     ///< used when program == "mto"
  /// Freeze the MTO overlay when burn-in ends, making the sampling chain a
  /// genuine SRW on a fixed G* (unbiased importance weights). See
  /// MtoSampler::FreezeTopology(); ablated in bench_ablation_rules.
  bool mto_freeze_after_burn_in = true;
  double jump_probability = 0.5;     ///< used when program == "random_jump"
};

/// Result of one run.
struct WalkRunResult {
  std::vector<NodeId> samples;    ///< sampled node ids in order
  std::vector<TracePoint> trace;  ///< running estimate after each sample
  uint64_t total_query_cost = 0;  ///< unique queries at the end of the run
  uint64_t burn_in_query_cost = 0;  ///< unique queries when Geweke first hit
  size_t burn_in_steps = 0;
  size_t total_steps = 0;
  double final_estimate = 0.0;
  bool burn_in_converged = false;  ///< false if the cap fired first
};

/// Runs one sampler once on `network`: burn-in under the Geweke rule, then
/// `num_samples` weighted samples, tracing the running importance-sampling
/// estimate against unique-query cost. Deterministic given `seed`.
WalkRunResult RunAggregateEstimation(const SocialNetwork& network,
                                     const WalkRunConfig& config,
                                     uint64_t seed);

/// Result of a long sampling-distribution (KL) run.
struct KlRunResult {
  double symmetrized_kl = 0.0;  ///< paper's DKL(P‖Ps)+DKL(Ps‖P)
  uint64_t query_cost = 0;
  uint64_t num_samples = 0;
};

/// Long-execution bias measurement (paper Fig 8/9): burn-in, then record
/// `num_samples` sampled nodes and compare the empirical distribution with
/// the sampler's own ideal stationary distribution (π for SRW; τ* over the
/// learned overlay for MTO; uniform for MHRW/RJ), using additive smoothing
/// `epsilon` on the empirical side. Any other program has no ideal here and
/// throws std::invalid_argument.
KlRunResult RunKlExperiment(const SocialNetwork& network,
                            const WalkRunConfig& config, uint64_t seed,
                            double epsilon = 0.5);

}  // namespace mto
