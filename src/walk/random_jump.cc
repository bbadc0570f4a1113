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
  return MetropolisStep();
}

}  // namespace mto
