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
  StepProtocol step_protocol() const override {
    return StepProtocol::kTwoPhase;
  }
  std::optional<NodeId> ProposeStep() override;
  NodeId CommitStep(NodeId target) override;
  double ImportanceWeight() override;
  std::string name() const override { return "SRW"; }
};

}  // namespace mto
