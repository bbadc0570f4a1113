#include "src/walk/mhrw.h"

namespace mto {

MetropolisHastingsWalk::MetropolisHastingsWalk(RestrictedInterface& interface,
                                               Rng& rng, NodeId start)
    : Sampler(interface, rng, start) {}

NodeId MetropolisHastingsWalk::Step() {
  auto proposal = ProposeStep();
  return proposal ? CommitStep(*proposal) : current();
}

std::optional<NodeId> MetropolisHastingsWalk::ProposeStep() {
  auto u = interface().QueryRef(current());
  if (!u || u->neighbors.empty()) return std::nullopt;
  proposal_source_degree_ = u->degree();
  return u->neighbors[static_cast<size_t>(
      rng().UniformInt(u->neighbors.size()))];
}

NodeId MetropolisHastingsWalk::CommitStep(NodeId target) {
  auto v = interface().QueryRef(target);
  if (!v) return current();  // budget exhausted
  double ku = static_cast<double>(proposal_source_degree_);
  double kv = static_cast<double>(v->degree());
  if (kv <= 0.0) return current();
  if (rng().UniformDouble() < ku / kv) set_current(target);
  return current();
}

}  // namespace mto
