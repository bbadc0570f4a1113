#pragma once

#include "src/walk/sampler.h"

namespace mto {

/// node2vec biased second-order walk (Grover & Leskovec, KDD'16): from the
/// edge (prev, cur), candidate x ∈ N(cur) is drawn with unnormalized weight
///   1/p  if x == prev        (return)
///   1    if x ∈ N(prev)      (BFS-ish stay-close move)
///   1/q  otherwise           (DFS-ish outward move)
/// The very first step (no prev yet) is a uniform neighbor pick.
///
/// This is the repo's canonical *second-order* program: its frontier is the
/// pair (prev, cur), not one node, which is exactly the state shape the
/// one-node runtime assumptions (the frontier peek, checkpoint walker
/// records) never had to carry before — see DESIGN.md §13. The bias computation
/// needs N(prev); `prev` is always self-cached whenever it is set (the walk
/// queried it while standing on it), so the *deterministic fallback* below
/// — a uniform pick when `PeekCached(prev)` misses — can only fire after
/// budget exhaustion evicts nothing but denies re-reads, where bit-identity
/// is already voided by the runtime contract.
class Node2VecWalk final : public Sampler {
 public:
  /// `p` (return parameter) and `q` (in-out parameter) must be > 0.
  Node2VecWalk(RestrictedInterface& interface, Rng& rng, NodeId start,
               double p = 1.0, double q = 1.0);

  /// Draws the biased pick from the (prev, cur) neighborhoods — one RNG
  /// draw regardless of branch — then queries it and moves there.
  NodeId Step() override;

  /// First-order approximation 1/k_v: exact at p == q == 1 (the walk *is*
  /// SRW there); for general (p, q) the true stationary distribution lives
  /// on edges and has no closed node-marginal, so estimates are reweighted
  /// as if degree-proportional — the standard practice when node2vec
  /// samples feed node-level estimators.
  double ImportanceWeight() override { return InverseDegreeWeight(); }
  std::string name() const override { return "node2vec"; }

  /// Restarts clear the second-order register: a teleport has no incoming
  /// edge, so the next step is a uniform first step.
  void Teleport(NodeId node) override;

  std::optional<NodeId> PreviousNode() const override { return prev_; }
  void RestorePrevious(std::optional<NodeId> prev) override { prev_ = prev; }

 protected:
  /// The biased pick drawn from cached state, exactly as `Step()` draws
  /// it, or `current()` when that is not cached yet.
  std::optional<NodeId> PeekFirstQuery() override;

 private:
  /// The biased pick among cur's neighbors, or the uniform fallback when
  /// there is no prev or N(prev) is not cached.
  NodeId PickTarget(std::span<const NodeId> cur_neighbors);

  double p_;
  double q_;
  std::optional<NodeId> prev_;
};

}  // namespace mto
