#include "src/walk/pagerank.h"

#include <stdexcept>

namespace mto {

PageRankMassWalk::PageRankMassWalk(RestrictedInterface& interface, Rng& rng,
                                   NodeId start, double restart)
    : Sampler(interface, rng, start), restart_(restart) {
  if (restart < 0.0 || restart > 1.0) {
    throw std::invalid_argument(
        "PageRankMassWalk: restart must be in [0, 1]");
  }
}

NodeId PageRankMassWalk::TeleportTarget() {
  return static_cast<NodeId>(rng().UniformInt(interface().num_users()));
}

NodeId PageRankMassWalk::PickTarget(std::span<const NodeId> neighbors) {
  // Dangling node: the surfer teleports (standard PageRank handling).
  if (neighbors.empty()) return TeleportTarget();
  return UniformPick(neighbors);
}

NodeId PageRankMassWalk::Step() {
  NodeId target;
  if (rng().Bernoulli(restart_)) {
    target = TeleportTarget();
  } else {
    auto r = interface().QueryRef(current());
    if (!r) return current();
    target = PickTarget(r->neighbors);
  }
  if (interface().QueryRef(target)) set_current(target);
  return current();
}

std::optional<NodeId> PageRankMassWalk::PeekFirstQuery() {
  if (rng().Bernoulli(restart_)) return TeleportTarget();
  auto r = interface().PeekCached(current());
  if (!r) return current();
  return PickTarget(r->neighbors);
}

}  // namespace mto
