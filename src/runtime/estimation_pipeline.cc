#include "src/runtime/estimation_pipeline.h"

#include <chrono>
#include <stdexcept>

namespace mto {

EstimationPipeline::EstimationPipeline(const Options& options)
    : options_(options),
      queue_(options.queue_capacity),
      monitor_(options.geweke_threshold, options.geweke_min_length,
               options.geweke_check_every) {
  consumer_ = std::thread([this] { ConsumerLoop(); });
}

EstimationPipeline::~EstimationPipeline() { Finish(); }

void EstimationPipeline::SetObservability(obs::MetricsRegistry* registry,
                                          obs::TraceLog* trace) {
  trace_log_ = trace;
  if (registry == nullptr) {
    metrics_ = PipelineMetrics{};
    return;
  }
  metrics_.queue_depth = registry->GetGauge("pipeline.queue_depth");
  metrics_.diagnostics = registry->GetCounter("pipeline.diagnostics");
  metrics_.samples = registry->GetCounter("pipeline.samples");
}

void EstimationPipeline::PushDiagnostics(std::span<const double> thetas) {
  for (double theta : thetas) {
    queue_.Push(Item{Item::Kind::kDiagnostic, theta, 0.0, 0});
  }
  // Publish the queue's own (clamped) size rather than a producer-side
  // increment racing a consumer-side decrement, which could surface a
  // transient negative depth in a metrics snapshot.
  ObsSet(metrics_.queue_depth, static_cast<int64_t>(queue_.SizeApprox()));
  pushed_diagnostics_ += thetas.size();
  ObsAdd(metrics_.diagnostics, thetas.size());
}

bool EstimationPipeline::ConvergedAfter(size_t num_observations) {
  if (num_observations > pushed_diagnostics_) {
    // The consumer can never get there: waiting would hang forever.
    throw std::logic_error(
        "ConvergedAfter: more observations requested than diagnostics pushed");
  }
  obs::TraceSpan span(trace_log_, "pipeline.converge_wait", num_observations);
  while (consumed_diagnostics_.load(std::memory_order_acquire) <
         num_observations) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  const size_t at = converged_at_.load(std::memory_order_acquire);
  return at != 0 && at <= num_observations;
}

void EstimationPipeline::PushSample(double value, double weight,
                                    uint64_t query_cost) {
  queue_.Push(Item{Item::Kind::kSample, value, weight, query_cost});
  ObsSet(metrics_.queue_depth, static_cast<int64_t>(queue_.SizeApprox()));
  ObsAdd(metrics_.samples);
}

EstimationPipeline::Result EstimationPipeline::Finish() {
  if (finished_) return result_;
  finished_ = true;
  queue_.Close();
  consumer_.join();
  result_.converged = converged_at_.load(std::memory_order_relaxed) != 0;
  result_.converged_at = converged_at_.load(std::memory_order_relaxed);
  result_.last_z = monitor_.last_z();
  result_.num_diagnostics = consumed_diagnostics_.load(std::memory_order_relaxed);
  result_.num_samples = num_samples_;
  result_.estimate_valid = estimate_.Valid();
  result_.estimate = estimate_.Valid() ? estimate_.Estimate() : 0.0;
  result_.trace = std::move(trace_);
  return result_;
}

void EstimationPipeline::ConsumerLoop() {
  Item item;
  while (queue_.Pop(item)) {
    ObsSet(metrics_.queue_depth, static_cast<int64_t>(queue_.SizeApprox()));
    switch (item.kind) {
      case Item::Kind::kDiagnostic: {
        monitor_.Add(item.value);
        const size_t n =
            consumed_diagnostics_.load(std::memory_order_relaxed) + 1;
        if (converged_at_.load(std::memory_order_relaxed) == 0 &&
            monitor_.Converged()) {
          converged_at_.store(n, std::memory_order_release);
        }
        consumed_diagnostics_.store(n, std::memory_order_release);
        break;
      }
      case Item::Kind::kSample: {
        if (item.weight > 0.0) estimate_.Add(item.value, item.weight);
        ++num_samples_;
        if (estimate_.Valid()) {
          trace_.push_back({item.query_cost, estimate_.Estimate()});
        }
        break;
      }
    }
  }
}

}  // namespace mto
