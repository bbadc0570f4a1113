#pragma once

#include "src/walk/sampler.h"

namespace mto {

/// Simple Random Walk (paper Definition 1): from node v, move to a uniform
/// random neighbor. Stationary distribution π(v) = k_v / (2|E|), so the
/// importance weight for a uniform target is 1/k_v.
/// Isolated nodes (degree 0) are an absorbing state; Step() stays put.
class SimpleRandomWalk final : public Sampler {
 public:
  SimpleRandomWalk(RestrictedInterface& interface, Rng& rng, NodeId start);

  NodeId Step() override;
  double ImportanceWeight() override { return InverseDegreeWeight(); }
  std::string name() const override { return "SRW"; }

 protected:
  std::optional<NodeId> PeekFirstQuery() override {
    return PeekUniformNeighbor();
  }
};

}  // namespace mto
