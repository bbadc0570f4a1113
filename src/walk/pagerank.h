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
/// round trip), so a peek can name it: the scheduler coalesces and
/// pipelines PageRank frontiers exactly like SRW ones.
class PageRankMassWalk final : public Sampler {
 public:
  /// `restart` (teleport probability, paper-standard 0.15) must be in
  /// [0, 1].
  PageRankMassWalk(RestrictedInterface& interface, Rng& rng, NodeId start,
                   double restart = 0.15);

  /// Draw order: one Bernoulli(restart), then either a uniform id draw
  /// (teleport / dangling) or a uniform neighbor draw; the target is then
  /// queried and moved to. Stays put only on budget exhaustion.
  NodeId Step() override;

  /// The surfer's stationary distribution is the estimation target itself,
  /// so samples are unweighted.
  double ImportanceWeight() override { return 1.0; }
  std::string name() const override { return "pagerank"; }

 protected:
  /// The teleport target, `current()` when it is not cached yet, or the
  /// neighbor pick — the first node `Step()` will query.
  std::optional<NodeId> PeekFirstQuery() override;

 private:
  /// A uniform user id: the restart jump's target.
  NodeId TeleportTarget();
  /// The step's target once the restart coin came up false: a uniform
  /// neighbor of `current`, or a teleport when it dangles.
  NodeId PickTarget(std::span<const NodeId> neighbors);

  double restart_;
};

}  // namespace mto
