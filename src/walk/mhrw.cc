#include "src/walk/mhrw.h"

namespace mto {

MetropolisHastingsWalk::MetropolisHastingsWalk(RestrictedInterface& interface,
                                               Rng& rng, NodeId start)
    : Sampler(interface, rng, start) {}

NodeId MetropolisHastingsWalk::Step() {
  auto u = interface().QueryRef(current());
  if (!u || u->neighbors.empty()) return current();
  const NodeId proposal = UniformPick(u->neighbors);
  const double ku = static_cast<double>(u->degree());
  auto v = interface().QueryRef(proposal);
  if (!v) return current();  // budget exhausted
  const double kv = static_cast<double>(v->degree());
  if (kv <= 0.0) return current();
  if (rng().UniformDouble() < ku / kv) set_current(proposal);
  return current();
}

}  // namespace mto
