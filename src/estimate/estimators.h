#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace mto {

/// One retrieved sample: the aggregate function's value at the sampled user
/// plus the importance weight ∝ 1/τ(user) supplied by the sampler (1 for
/// uniform chains, 1/k for SRW, 1/k* for MTO).
struct WeightedSample {
  double value = 0.0;
  double weight = 1.0;
};

/// Self-normalized importance-sampling estimator of a population AVG
/// (paper Section IV-A): Â = Σ f(x_i) w(x_i) / Σ w(x_i).
/// Throws std::invalid_argument on an empty sample set or when all weights
/// are zero.
double ImportanceSamplingMean(const std::vector<WeightedSample>& samples);

/// Incremental version used to trace the estimate against query cost.
class RunningImportanceMean {
 public:
  /// Adds one weighted sample.
  void Add(double value, double weight);

  /// Current estimate; throws std::logic_error before the first valid add.
  double Estimate() const;

  /// Number of samples added.
  size_t count() const { return n_; }

  /// True once at least one positively weighted sample arrived.
  bool Valid() const { return weight_sum_ > 0.0; }

 private:
  double weighted_sum_ = 0.0;
  double weight_sum_ = 0.0;
  size_t n_ = 0;
};

/// One point of an estimate-vs-cost trajectory: the running estimate after
/// a sample, against the unique-query cost when it was collected.
struct TracePoint {
  uint64_t query_cost = 0;
  double estimate = 0.0;
};

/// COUNT/SUM estimation given the public population size (paper footnote 4):
/// SUM = population * AVG, COUNT of a predicate = population * AVG of the
/// 0/1 indicator.
double SumFromMean(double mean_estimate, size_t population);

/// Relative error |estimate - truth| / |truth|; truth must be non-zero.
double RelativeError(double estimate, double truth);

}  // namespace mto
