#pragma once

#include "src/walk/sampler.h"

namespace mto {

/// Metropolis–Hastings Random Walk targeting the uniform distribution:
/// propose a uniform neighbor v of u, accept with min(1, k_u / k_v).
/// Learning k_v requires querying v, so rejected proposals still consume
/// query budget on first contact — the effect behind the paper's
/// observation that MHRW needs 1.5–8x more queries than SRW.
class MetropolisHastingsWalk final : public Sampler {
 public:
  MetropolisHastingsWalk(RestrictedInterface& interface, Rng& rng,
                         NodeId start)
      : Sampler(interface, rng, start) {}

  NodeId Step() override { return MetropolisStep(); }

  /// Uniform stationary distribution: constant weight.
  double ImportanceWeight() override { return 1.0; }
  std::string name() const override { return "MHRW"; }

 protected:
  std::optional<NodeId> PeekFirstQuery() override {
    return PeekUniformNeighbor();
  }
};

}  // namespace mto
