#include "src/walk/random_jump.h"

#include <stdexcept>

namespace mto {

RandomJumpWalk::RandomJumpWalk(RestrictedInterface& interface, Rng& rng,
                               NodeId start, double jump_probability)
    : Sampler(interface, rng, start), jump_probability_(jump_probability) {
  if (jump_probability < 0.0 || jump_probability > 1.0) {
    throw std::invalid_argument("RandomJumpWalk: bad jump probability");
  }
}

NodeId RandomJumpWalk::Step() {
  if (rng().Bernoulli(jump_probability_)) {
    auto r = interface().RandomUser(rng());
    if (r) set_current(r->user);
    return current();
  }
  // MHRW step.
  auto u = interface().QueryRef(current());
  if (!u || u->neighbors.empty()) return current();
  NodeId proposal = UniformPick(u->neighbors);
  double ku = static_cast<double>(u->degree());
  auto v = interface().QueryRef(proposal);
  if (!v) return current();
  double kv = static_cast<double>(v->degree());
  if (kv <= 0.0) return current();
  if (rng().UniformDouble() < ku / kv) set_current(proposal);
  return current();
}

}  // namespace mto
