#include "src/experiments/harness.h"

#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>

#include "src/estimate/estimators.h"
#include "src/estimate/metrics.h"
#include "src/estimate/sampling_distribution.h"
#include "src/mcmc/geweke.h"
#include "src/walk/walk_program.h"

namespace mto {

double AttributeValue(Sampler& sampler, Attribute attribute) {
  switch (attribute) {
    case Attribute::kDegree:
      return static_cast<double>(sampler.CurrentDegree());
    case Attribute::kDescriptionLength:
      return static_cast<double>(sampler.CurrentProfile().description_length);
    case Attribute::kAge:
      return static_cast<double>(sampler.CurrentProfile().age);
  }
  throw std::invalid_argument("AttributeValue: unknown attribute");
}

namespace {

/// Builds the run's walker through the WalkProgram registry.
std::unique_ptr<Sampler> MakeRunWalker(const WalkRunConfig& config,
                                       RestrictedInterface& interface,
                                       Rng& rng, NodeId start) {
  WalkProgramParams params;
  params.mto = config.mto;
  params.jump_probability = config.jump_probability;
  return GetWalkProgram(config.program)
      .MakeWalker(interface, rng, start, params);
}

/// Advances until the Geweke monitor converges or `cap` steps elapse.
/// Returns the number of steps taken.
size_t BurnIn(Sampler& sampler, GewekeMonitor& monitor, size_t cap) {
  size_t steps = 0;
  while (!monitor.Converged() && steps < cap) {
    sampler.Step();
    monitor.Add(sampler.CurrentDegreeForDiagnostic());
    ++steps;
  }
  return steps;
}

}  // namespace

WalkRunResult RunAggregateEstimation(const SocialNetwork& network,
                                     const WalkRunConfig& config,
                                     uint64_t seed) {
  if (network.num_users() == 0) {
    throw std::invalid_argument("RunAggregateEstimation: empty network");
  }
  Rng rng(seed);
  RestrictedInterface interface(network);
  const NodeId start = static_cast<NodeId>(rng.UniformInt(network.num_users()));
  auto sampler = MakeRunWalker(config, interface, rng, start);
  GewekeMonitor monitor(config.geweke_threshold, config.geweke_min_length,
                        config.geweke_check_every);

  WalkRunResult result;
  result.burn_in_steps =
      BurnIn(*sampler, monitor, config.max_burn_in_steps);
  result.total_steps = result.burn_in_steps;
  result.burn_in_converged = monitor.Converged();
  result.burn_in_query_cost = interface.QueryCost();
  if (config.mto_freeze_after_burn_in) {
    if (auto* mto = dynamic_cast<MtoSampler*>(sampler.get())) {
      mto->FreezeTopology();
    }
  }

  RunningImportanceMean estimate;
  for (size_t i = 0; i < config.num_samples; ++i) {
    if (config.restart_per_sample && i > 0) {
      // Algorithm 1 restarts the walk from the start vertex (and resets the
      // convergence monitor) for every sample; the query cache keeps
      // re-walked regions free.
      sampler->Teleport(start);
      monitor.Reset();
      result.total_steps +=
          BurnIn(*sampler, monitor, config.max_burn_in_steps);
    }
    result.samples.push_back(sampler->current());
    const double value = AttributeValue(*sampler, config.attribute);
    const double weight = sampler->ImportanceWeight();
    if (weight > 0.0) estimate.Add(value, weight);
    if (estimate.Valid()) {
      result.trace.push_back({interface.QueryCost(), estimate.Estimate()});
    }
    if (!config.restart_per_sample) {
      for (size_t t = 0; t < config.thinning; ++t) sampler->Step();
      result.total_steps += config.thinning;
    }
  }
  result.total_query_cost = interface.QueryCost();
  result.final_estimate =
      estimate.Valid() ? estimate.Estimate() : 0.0;
  return result;
}

KlRunResult RunKlExperiment(const SocialNetwork& network,
                            const WalkRunConfig& config, uint64_t seed,
                            double epsilon) {
  // The sampler's own ideal stationary distribution is chosen by program;
  // refuse a program without one before spending the run.
  const std::string_view program = GetWalkProgram(config.program).name();
  const bool degree_ideal = program == "srw";
  const bool uniform_ideal = program == "mhrw" || program == "random_jump";
  if (!degree_ideal && !uniform_ideal && program != "mto") {
    throw std::invalid_argument(
        "RunKlExperiment: no ideal distribution for program \"" +
        std::string(program) + "\"");
  }
  Rng rng(seed);
  RestrictedInterface interface(network);
  const NodeId start = static_cast<NodeId>(rng.UniformInt(network.num_users()));
  auto sampler = MakeRunWalker(config, interface, rng, start);
  GewekeMonitor monitor(config.geweke_threshold, config.geweke_min_length,
                        config.geweke_check_every);
  BurnIn(*sampler, monitor, config.max_burn_in_steps);

  EmpiricalDistribution empirical(network.num_users());
  for (size_t i = 0; i < config.num_samples; ++i) {
    empirical.Record(sampler->current());
    if (config.restart_per_sample) {
      // Algorithm 1's literal outer loop: restart at the start vertex and
      // burn in again under the Geweke rule before the next sample. This is
      // the protocol behind the paper's Fig 9 threshold sweep.
      sampler->Teleport(start);
      monitor.Reset();
      BurnIn(*sampler, monitor, config.max_burn_in_steps);
    } else {
      for (size_t t = 0; t < config.thinning; ++t) sampler->Step();
    }
  }

  std::vector<double> ideal;
  if (degree_ideal) {
    ideal = IdealDegreeDistribution(network.graph());
  } else if (uniform_ideal) {
    ideal = UniformDistribution(network.num_users());
  } else {
    // τ*(v) = k*_v / Σ k*: overlay degrees from the learned rewiring.
    auto* mto = dynamic_cast<MtoSampler*>(sampler.get());
    auto deltas = mto->overlay().DegreeDeltas();
    const Graph& g = network.graph();
    ideal.resize(g.num_nodes());
    double total = 0.0;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      double k = static_cast<double>(g.Degree(v));
      auto it = deltas.find(v);
      if (it != deltas.end()) k += static_cast<double>(it->second);
      if (k < 0.0) k = 0.0;
      ideal[v] = k;
      total += k;
    }
    for (double& x : ideal) x /= total;
  }
  // Smooth both sides so the symmetrized KL is finite: nodes the walk can
  // never reach (e.g. overlay degree 0) would otherwise zero out `ideal`.
  const double n = static_cast<double>(ideal.size());
  double floor_mass = epsilon / static_cast<double>(empirical.total() + 1);
  for (double& x : ideal) x = (x + floor_mass / n) / (1.0 + floor_mass);

  KlRunResult result;
  std::vector<double> p = empirical.Probabilities(epsilon);
  result.symmetrized_kl = SymmetrizedKl(ideal, p);
  result.query_cost = interface.QueryCost();
  result.num_samples = empirical.total();
  return result;
}

}  // namespace mto
