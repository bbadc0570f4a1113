#include "src/walk/node2vec.h"

#include <algorithm>
#include <stdexcept>

namespace mto {

Node2VecWalk::Node2VecWalk(RestrictedInterface& interface, Rng& rng,
                           NodeId start, double p, double q)
    : Sampler(interface, rng, start), p_(p), q_(q) {
  if (!(p > 0.0) || !(q > 0.0)) {
    throw std::invalid_argument("Node2VecWalk: p and q must be > 0");
  }
}

NodeId Node2VecWalk::PickTarget(std::span<const NodeId> cur_neighbors) {
  // Non-counting read: prev is self-cached whenever set (the walk queried
  // it while standing on it), so this only misses after budget exhaustion —
  // where the fallback keeps the walk deterministic per execution shape.
  const auto rp =
      prev_ ? interface().PeekCached(*prev_) : std::optional<QueryView>();
  if (!rp) {
    // First step after construction/teleport, or N(prev) unavailable (only
    // possible once a budget denies re-reads): deterministic uniform pick.
    return UniformPick(cur_neighbors);
  }
  // Neighbor lists are sorted (Graph contract), so membership in N(prev)
  // is a binary search. One UniformDouble draw regardless of the outcome.
  const std::span<const NodeId> prev_neighbors = rp->neighbors;
  const auto weight_of = [&](NodeId x) {
    if (x == *prev_) return 1.0 / p_;
    if (std::binary_search(prev_neighbors.begin(), prev_neighbors.end(), x)) {
      return 1.0;
    }
    return 1.0 / q_;
  };
  double total = 0.0;
  for (NodeId x : cur_neighbors) total += weight_of(x);
  const double roll = rng().UniformDouble() * total;
  double acc = 0.0;
  for (NodeId x : cur_neighbors) {
    acc += weight_of(x);
    if (roll < acc) return x;
  }
  // Floating-point slack on the last bucket.
  return cur_neighbors.back();
}

NodeId Node2VecWalk::Step() {
  const auto neighbors = CurrentNeighbors();
  if (!neighbors || neighbors->empty()) return current();
  const NodeId target = PickTarget(*neighbors);
  if (auto r = interface().QueryRef(target)) {
    prev_ = current();
    MoveTo(*r);
  }
  return current();
}

std::optional<NodeId> Node2VecWalk::PeekFirstQuery() {
  auto r = interface().PeekCached(current());
  if (!r) return current();
  if (r->neighbors.empty()) return std::nullopt;
  return PickTarget(r->neighbors);
}

void Node2VecWalk::Teleport(NodeId node) {
  Sampler::Teleport(node);
  prev_.reset();
}

}  // namespace mto
