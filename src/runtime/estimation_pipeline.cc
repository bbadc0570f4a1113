#include "src/runtime/estimation_pipeline.h"

#include <stdexcept>
#include <utility>

namespace mto {

EstimationPipeline::EstimationPipeline(const Options& options)
    : monitor_(options.geweke_threshold, options.geweke_min_length,
               options.geweke_check_every) {}

void EstimationPipeline::SetObservability(obs::MetricsRegistry* registry,
                                          obs::TraceLog* /*trace*/) {
  diagnostics_counter_ =
      registry != nullptr ? registry->GetCounter("pipeline.diagnostics")
                          : nullptr;
  samples_counter_ =
      registry != nullptr ? registry->GetCounter("pipeline.samples") : nullptr;
}

void EstimationPipeline::PushDiagnostics(std::span<const double> thetas) {
  for (double theta : thetas) {
    monitor_.Add(theta);
    if (converged_at_ == 0 && monitor_.Converged()) {
      converged_at_ = monitor_.length();
    }
  }
  ObsAdd(diagnostics_counter_, thetas.size());
}

bool EstimationPipeline::ConvergedAfter(size_t num_observations) const {
  if (num_observations > monitor_.length()) {
    throw std::logic_error(
        "ConvergedAfter: more observations requested than diagnostics pushed");
  }
  return converged_at_ != 0 && converged_at_ <= num_observations;
}

void EstimationPipeline::PushSample(double value, double weight,
                                    uint64_t query_cost) {
  if (weight > 0.0) estimate_.Add(value, weight);
  ++num_samples_;
  if (estimate_.Valid()) trace_.push_back({query_cost, estimate_.Estimate()});
  ObsAdd(samples_counter_);
}

EstimationPipeline::Result EstimationPipeline::Finish() {
  Result result;
  result.converged = converged_at_ != 0;
  result.converged_at = converged_at_;
  result.last_z = monitor_.last_z();
  result.num_diagnostics = monitor_.length();
  result.num_samples = num_samples_;
  result.estimate_valid = estimate_.Valid();
  result.estimate = RunningEstimate();
  result.trace = std::move(trace_);
  return result;
}

}  // namespace mto
