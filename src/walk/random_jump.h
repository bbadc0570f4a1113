#pragma once

#include "src/walk/sampler.h"

namespace mto {

/// Random Jump sampler (paper Section I-B, following Jin et al.): performs
/// MHRW but, with probability `jump_probability` per step, teleports to a
/// uniformly random user id instead. Requires id-space knowledge, which the
/// simulated interface exposes via RandomUser(); the paper notes this is not
/// viable on every real OSN. The paper's experiments use jump probability
/// 0.5 (Section V-B).
class RandomJumpWalk final : public Sampler {
 public:
  RandomJumpWalk(RestrictedInterface& interface, Rng& rng, NodeId start,
                 double jump_probability = 0.5);

  NodeId Step() override;

  /// The jump mixture keeps the chain near-uniform; the paper treats RJ
  /// samples as uniform, and we follow it.
  double ImportanceWeight() override { return 1.0; }
  std::string name() const override { return "RJ"; }

 private:
  double jump_probability_;
};

}  // namespace mto
