#include "src/walk/sampler.h"

#include <array>
#include <stdexcept>

namespace mto {

Sampler::Sampler(RestrictedInterface& interface, Rng& rng, NodeId start)
    : interface_(&interface), rng_(&rng), current_(start) {
  if (start >= interface.num_users()) {
    throw std::invalid_argument("Sampler: start node out of range");
  }
  Sampler::Teleport(start);
}

void Sampler::Teleport(NodeId node) {
  if (auto r = interface_->PeekCached(node)) {
    MoveTo(*r);
  } else {
    set_current(node);
  }
}

std::optional<std::span<const NodeId>> Sampler::CurrentNeighbors() {
  if (held_degree_ != kNotHeld) {
    return std::span<const NodeId>(held_neighbors_, held_degree_);
  }
  auto r = interface_->QueryRef(current_);
  if (!r) return std::nullopt;
  MoveTo(*r);
  return r->neighbors;
}

std::optional<std::span<const NodeId>> Sampler::PeekCurrentNeighbors() const {
  if (held_degree_ != kNotHeld) {
    return std::span<const NodeId>(held_neighbors_, held_degree_);
  }
  if (auto r = interface_->PeekCached(current_)) return r->neighbors;
  return std::nullopt;
}

std::optional<NodeId> Sampler::PeekStep() {
  const std::array<uint64_t, 4> saved = rng_->SaveState();
  const std::optional<NodeId> hint = PeekFirstQuery();
  rng_->RestoreState(saved);
  return hint;
}

std::optional<NodeId> Sampler::PeekUniformNeighbor() {
  const auto neighbors = PeekCurrentNeighbors();
  if (!neighbors) return current_;
  if (neighbors->empty()) return std::nullopt;
  return UniformPick(*neighbors);
}

NodeId Sampler::MetropolisStep() {
  const auto u = CurrentNeighbors();
  if (!u || u->empty()) return current_;
  const NodeId proposal = UniformPick(*u);
  const double ku = static_cast<double>(u->size());
  auto v = interface_->QueryRef(proposal);
  if (!v) return current_;  // budget exhausted
  const double kv = static_cast<double>(v->degree());
  if (kv <= 0.0) return current_;
  if (rng_->UniformDouble() < ku / kv) MoveTo(*v);
  return current_;
}

double Sampler::InverseDegreeWeight() {
  const auto n = CurrentNeighbors();
  if (!n || n->empty()) return 0.0;
  return 1.0 / static_cast<double>(n->size());
}

UserProfile Sampler::CurrentProfile() {
  // current() is always a node the walk has already queried, so the cache
  // answers even under an exhausted budget; a held node is cached, and the
  // profile is read from the cache at no request.
  std::optional<QueryView> r;
  if (CurrentNeighbors()) r = interface_->PeekCached(current_);
  if (!r) throw std::logic_error("Sampler: current node not cached");
  return *r->profile;
}

double Sampler::CurrentDegreeForDiagnostic() {
  const auto n = CurrentNeighbors();
  return n ? static_cast<double>(n->size()) : 0.0;
}

uint32_t Sampler::CurrentDegree() {
  const auto n = CurrentNeighbors();
  if (!n) throw std::logic_error("Sampler: current node not cached");
  return static_cast<uint32_t>(n->size());
}

}  // namespace mto
