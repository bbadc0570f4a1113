#include "src/walk/sampler.h"

#include <array>
#include <stdexcept>

namespace mto {

Sampler::Sampler(RestrictedInterface& interface, Rng& rng, NodeId start)
    : interface_(&interface), rng_(&rng), current_(start) {
  if (start >= interface.num_users()) {
    throw std::invalid_argument("Sampler: start node out of range");
  }
}

std::optional<NodeId> Sampler::PeekStep() {
  const std::array<uint64_t, 4> saved = rng_->SaveState();
  const std::optional<NodeId> hint = PeekFirstQuery();
  rng_->RestoreState(saved);
  return hint;
}

std::optional<NodeId> Sampler::PeekUniformNeighbor() {
  auto r = interface_->PeekCached(current_);
  if (!r) return current_;
  if (r->neighbors.empty()) return std::nullopt;
  return UniformPick(r->neighbors);
}

NodeId Sampler::MetropolisStep() {
  auto u = interface_->QueryRef(current_);
  if (!u || u->neighbors.empty()) return current_;
  const NodeId proposal = UniformPick(u->neighbors);
  const double ku = static_cast<double>(u->degree());
  auto v = interface_->QueryRef(proposal);
  if (!v) return current_;  // budget exhausted
  const double kv = static_cast<double>(v->degree());
  if (kv <= 0.0) return current_;
  if (rng_->UniformDouble() < ku / kv) current_ = proposal;
  return current_;
}

double Sampler::InverseDegreeWeight() {
  auto r = interface_->QueryRef(current_);
  if (!r || r->degree() == 0) return 0.0;
  return 1.0 / static_cast<double>(r->degree());
}

UserProfile Sampler::CurrentProfile() {
  auto r = interface_->QueryRef(current_);
  // current() is always a node the walk has already queried, so the cache
  // answers even under an exhausted budget.
  if (!r) throw std::logic_error("Sampler: current node not cached");
  return *r->profile;
}

double Sampler::CurrentDegreeForDiagnostic() {
  auto r = interface_->QueryRef(current_);
  return r ? static_cast<double>(r->degree()) : 0.0;
}

uint32_t Sampler::CurrentDegree() {
  auto r = interface_->QueryRef(current_);
  if (!r) throw std::logic_error("Sampler: current node not cached");
  return r->degree();
}

}  // namespace mto
