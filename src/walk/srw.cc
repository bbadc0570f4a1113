#include "src/walk/srw.h"

namespace mto {

SimpleRandomWalk::SimpleRandomWalk(RestrictedInterface& interface, Rng& rng,
                                   NodeId start)
    : Sampler(interface, rng, start) {}

NodeId SimpleRandomWalk::Step() {
  const auto neighbors = CurrentNeighbors();
  if (!neighbors || neighbors->empty()) return current();
  const NodeId target = UniformPick(*neighbors);
  // One read per step: the target's answer is held, so the next Step() and
  // the sample readers need no request for it. As in the paper, every
  // visited node costs one (unique) query.
  if (auto r = interface().QueryRef(target)) MoveTo(*r);
  return current();
}

}  // namespace mto
