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

NodeId PageRankMassWalk::Step() {
  auto target = ProposeStep();
  return target ? CommitStep(*target) : current();
}

std::optional<NodeId> PageRankMassWalk::ProposeStep() {
  if (rng().Bernoulli(restart_)) {
    return static_cast<NodeId>(rng().UniformInt(interface().num_users()));
  }
  auto r = interface().QueryRef(current());
  if (!r) return std::nullopt;
  if (r->neighbors.empty()) {
    // Dangling node: the surfer teleports (standard PageRank handling).
    return static_cast<NodeId>(rng().UniformInt(interface().num_users()));
  }
  return r->neighbors[static_cast<size_t>(
      rng().UniformInt(r->neighbors.size()))];
}

NodeId PageRankMassWalk::CommitStep(NodeId target) {
  if (interface().QueryRef(target)) set_current(target);
  return current();
}

}  // namespace mto
