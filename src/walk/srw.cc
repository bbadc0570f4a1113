#include "src/walk/srw.h"

namespace mto {

SimpleRandomWalk::SimpleRandomWalk(RestrictedInterface& interface, Rng& rng,
                                   NodeId start)
    : Sampler(interface, rng, start) {}

NodeId SimpleRandomWalk::Step() {
  auto r = interface().QueryRef(current());
  if (!r || r->neighbors.empty()) return current();
  const NodeId target = UniformPick(r->neighbors);
  // The move itself needs no information about `target` beyond its id; the
  // next Step() queries it. Query eagerly anyway so the degree diagnostic
  // reflects the node we now stand on — this mirrors the paper where every
  // visited node costs one (unique) query.
  if (interface().QueryRef(target)) set_current(target);
  return current();
}

}  // namespace mto
