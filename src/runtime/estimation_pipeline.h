#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/estimate/estimators.h"
#include "src/mcmc/geweke.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace mto {

/// The crawl's estimation state: the GewekeMonitor that ends burn-in (paper
/// §V-A.3) and the running importance-sampling estimate (§IV-A), fed by the
/// crawl coordinator between rounds.
///
/// Everything is a pure function of the pushed streams, so the coordinator
/// makes control-flow decisions on it deterministically: `ConvergedAfter(n)`
/// answers from the first n diagnostics only, and burn-in ends at the same
/// round for every execution, which is what keeps parallel sample sequences
/// bit-identical (see CrawlScheduler's contract). Replaying a checkpoint's
/// stream prefix reproduces the interrupted state exactly.
///
/// Single-threaded: the coordinator calls every method inline.
class EstimationPipeline {
 public:
  struct Options {
    double geweke_threshold = 0.1;
    size_t geweke_min_length = 200;
    /// GewekeMonitor's re-check period, in diagnostic values.
    size_t geweke_check_every = 50;
  };

  /// Everything accumulated, returned by Finish().
  struct Result {
    bool converged = false;
    size_t converged_at = 0;  ///< diagnostics pushed when Geweke first hit
    double last_z = 0.0;
    size_t num_diagnostics = 0;
    size_t num_samples = 0;
    bool estimate_valid = false;
    double estimate = 0.0;
    std::vector<TracePoint> trace;  ///< running estimate after each sample
  };

  explicit EstimationPipeline(const Options& options);

  /// Feeds burn-in diagnostics (one value per walker per round, in the
  /// scheduler's deterministic order), checking Geweke as they arrive.
  void PushDiagnostics(std::span<const double> thetas);

  /// Whether the Geweke monitor had converged within the first
  /// `num_observations` diagnostics. Throws std::logic_error when fewer
  /// diagnostics were ever pushed.
  bool ConvergedAfter(size_t num_observations) const;

  /// Feeds one weighted sample plus the query cost at collection time.
  void PushSample(double value, double weight, uint64_t query_cost);

  /// Every diagnostic pushed so far (checkpoint payload, telemetry input).
  std::span<const double> diagnostics() const { return monitor_.trace(); }

  /// The running self-normalized mean; 0 before the first positively
  /// weighted sample.
  double RunningEstimate() const {
    return estimate_.Valid() ? estimate_.Estimate() : 0.0;
  }

  /// Returns the final state, moving the trace out: call once, after the
  /// last push.
  Result Finish();

  /// Attaches passive telemetry: the pipeline.diagnostics and
  /// pipeline.samples counters. The pipeline records no trace spans; the
  /// trace log is accepted so every layer attaches the same way. Null
  /// pointers detach.
  void SetObservability(obs::MetricsRegistry* registry, obs::TraceLog* trace);

 private:
  GewekeMonitor monitor_;
  size_t converged_at_ = 0;  // 0 = not (yet) converged
  RunningImportanceMean estimate_;
  std::vector<TracePoint> trace_;
  size_t num_samples_ = 0;

  /// Resolved metric pointers; all null when observability is off.
  obs::Counter* diagnostics_counter_ = nullptr;
  obs::Counter* samples_counter_ = nullptr;
};

}  // namespace mto
