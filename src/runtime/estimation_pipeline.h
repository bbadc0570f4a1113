#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <thread>
#include <vector>

#include "src/estimate/estimators.h"
#include "src/mcmc/geweke.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/runtime/spsc_queue.h"

namespace mto {

/// Moves convergence diagnosis and estimate accumulation off the walk
/// threads: the crawl coordinator pushes raw observations into a bounded
/// SPSC queue; a dedicated estimation thread owns the GewekeMonitor and the
/// running importance-sampling estimate and consumes concurrently with the
/// next rounds of walking.
///
/// Asynchrony does not cost determinism. The consumer's state after
/// processing the first n items depends only on the item stream, so the
/// producer makes control-flow decisions at *deterministic* sync points:
/// `ConvergedAfter(n)` blocks until the first n diagnostics are consumed
/// and then answers from converged state — the answer is a pure function of
/// the stream prefix, independent of thread timing. Burn-in therefore ends
/// at the same round for every execution, which is what keeps parallel
/// sample sequences bit-identical (see CrawlScheduler's contract).
///
/// Threading: exactly one producer thread may call the Push*/ConvergedAfter
/// /Finish methods.
class EstimationPipeline {
 public:
  struct Options {
    double geweke_threshold = 0.1;
    size_t geweke_min_length = 200;
    size_t geweke_check_every = 50;
    /// Bounded queue capacity; the producer backs off when the consumer
    /// lags this far behind.
    size_t queue_capacity = 4096;
  };

  /// One point of the estimate-vs-cost trajectory (mirrors
  /// experiments::TracePoint, which runtime/ cannot depend on).
  struct CostPoint {
    uint64_t query_cost = 0;
    double estimate = 0.0;
  };

  /// Everything the consumer accumulated, returned by Finish().
  struct Result {
    bool converged = false;
    size_t converged_at = 0;  ///< diagnostics consumed when Geweke first hit
    double last_z = 0.0;
    size_t num_diagnostics = 0;
    size_t num_samples = 0;
    bool estimate_valid = false;
    double estimate = 0.0;
    std::vector<CostPoint> trace;  ///< running estimate after each sample
  };

  explicit EstimationPipeline(const Options& options);

  /// Joins the estimation thread (Finish() implied if not yet called).
  ~EstimationPipeline();

  EstimationPipeline(const EstimationPipeline&) = delete;
  EstimationPipeline& operator=(const EstimationPipeline&) = delete;

  /// Feeds burn-in diagnostics (one value per walker per round, in the
  /// scheduler's deterministic order).
  void PushDiagnostics(std::span<const double> thetas);

  /// Blocks until the first `num_observations` diagnostics are consumed,
  /// then reports whether the Geweke monitor had converged within them.
  /// Throws std::logic_error when fewer diagnostics were ever pushed.
  bool ConvergedAfter(size_t num_observations);

  /// Feeds one weighted sample plus the query cost at collection time.
  void PushSample(double value, double weight, uint64_t query_cost);

  /// Closes the stream, joins the consumer, returns its final state.
  /// Idempotent; after the first call the stored result is returned.
  Result Finish();

  /// Attaches passive telemetry: pipeline.queue_depth gauge (producer +1
  /// per push, consumer -1 per pop), pipeline.diagnostics / samples
  /// counters, and a "pipeline.converge_wait" span around the
  /// ConvergedAfter block. Null pointers detach. Producer-thread only,
  /// between pushes.
  void SetObservability(obs::MetricsRegistry* registry, obs::TraceLog* trace);

 private:
  struct Item {
    enum class Kind : uint8_t { kDiagnostic, kSample } kind;
    double value = 0.0;
    double weight = 0.0;
    uint64_t query_cost = 0;
  };

  void ConsumerLoop();

  Options options_;
  SpscQueue<Item> queue_;
  std::thread consumer_;
  bool finished_ = false;
  size_t pushed_diagnostics_ = 0;
  Result result_;

  // Consumer-owned state; read by the producer only through the atomics
  // below or after join.
  GewekeMonitor monitor_;
  RunningImportanceMean estimate_;
  std::vector<CostPoint> trace_;
  size_t num_samples_ = 0;

  std::atomic<size_t> consumed_diagnostics_{0};
  std::atomic<size_t> converged_at_{0};  // 0 = not (yet) converged

  /// Resolved metric pointers; all null when observability is off. The
  /// queue-depth gauge is written from both sides of the queue (atomic
  /// add), everything else from the producer.
  struct PipelineMetrics {
    obs::Gauge* queue_depth = nullptr;
    obs::Counter* diagnostics = nullptr;
    obs::Counter* samples = nullptr;
  };
  PipelineMetrics metrics_;
  obs::TraceLog* trace_log_ = nullptr;
};

}  // namespace mto
