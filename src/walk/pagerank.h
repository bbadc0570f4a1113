#pragma once

#include "src/walk/sampler.h"

namespace mto {

/// PageRank mass estimation via the random surfer: with probability
/// `restart` per step teleport to a uniform random user id, otherwise move
/// to a uniform neighbor; a dangling (degree-0) node always teleports. The
/// surfer's stationary distribution *is* PageRank(restart), so the plain
/// (unit-weight) sample average of an attribute estimates its
/// PageRank-mass-weighted mean — the "where does the mass sit" view of the
/// graph rather than the uniform-node view.
///
/// Like RandomJumpWalk this needs id-space knowledge, but unlike it the
/// teleport target is drawn directly from the id space (no RandomUser
/// round trip), which makes the teleport *announceable*: the whole step is
/// kTwoPhase, so the scheduler can coalesce and pipeline PageRank frontiers
/// exactly like SRW ones.
class PageRankMassWalk final : public Sampler {
 public:
  /// `restart` (teleport probability, paper-standard 0.15) must be in
  /// [0, 1].
  PageRankMassWalk(RestrictedInterface& interface, Rng& rng, NodeId start,
                   double restart = 0.15);

  NodeId Step() override;
  StepProtocol step_protocol() const override {
    return StepProtocol::kTwoPhase;
  }
  /// Draw order: one Bernoulli(restart), then either a uniform id draw
  /// (teleport / dangling) or a uniform neighbor draw. std::nullopt only on
  /// budget exhaustion (the current node's query is denied).
  std::optional<NodeId> ProposeStep() override;
  NodeId CommitStep(NodeId target) override;
  /// The surfer's stationary distribution is the estimation target itself,
  /// so samples are unweighted.
  double ImportanceWeight() override { return 1.0; }
  std::string name() const override { return "pagerank"; }

 private:
  double restart_;
};

}  // namespace mto
