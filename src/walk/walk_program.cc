#include "src/walk/walk_program.h"

#include <array>
#include <stdexcept>
#include <string>

#include "src/walk/mhrw.h"
#include "src/walk/node2vec.h"
#include "src/walk/pagerank.h"
#include "src/walk/random_jump.h"
#include "src/walk/srw.h"

namespace mto {
namespace {

NodeId ClampStart(const RestrictedInterface& interface, NodeId start) {
  return start >= interface.num_users() ? 0 : start;
}

class SrwProgram final : public WalkProgram {
 public:
  std::string_view name() const override { return "srw"; }
  std::unique_ptr<Sampler> MakeWalker(
      RestrictedInterface& interface, Rng& rng, NodeId start,
      const WalkProgramParams&) const override {
    return std::make_unique<SimpleRandomWalk>(interface, rng,
                                              ClampStart(interface, start));
  }
};

class MhrwProgram final : public WalkProgram {
 public:
  std::string_view name() const override { return "mhrw"; }
  std::unique_ptr<Sampler> MakeWalker(
      RestrictedInterface& interface, Rng& rng, NodeId start,
      const WalkProgramParams&) const override {
    return std::make_unique<MetropolisHastingsWalk>(
        interface, rng, ClampStart(interface, start));
  }
};

class RandomJumpProgram final : public WalkProgram {
 public:
  std::string_view name() const override { return "random_jump"; }
  std::unique_ptr<Sampler> MakeWalker(
      RestrictedInterface& interface, Rng& rng, NodeId start,
      const WalkProgramParams& params) const override {
    return std::make_unique<RandomJumpWalk>(interface, rng,
                                            ClampStart(interface, start),
                                            params.jump_probability);
  }
};

class MtoProgram final : public WalkProgram {
 public:
  std::string_view name() const override { return "mto"; }
  bool uses_overlay() const override { return true; }
  std::unique_ptr<Sampler> MakeWalker(
      RestrictedInterface& interface, Rng& rng, NodeId start,
      const WalkProgramParams& params) const override {
    return std::make_unique<MtoSampler>(
        interface, rng, ClampStart(interface, start), params.mto);
  }
};

class Node2VecProgram final : public WalkProgram {
 public:
  std::string_view name() const override { return "node2vec"; }
  FrontierShape frontier_shape() const override {
    return FrontierShape::kSecondOrder;
  }
  std::unique_ptr<Sampler> MakeWalker(
      RestrictedInterface& interface, Rng& rng, NodeId start,
      const WalkProgramParams& params) const override {
    return std::make_unique<Node2VecWalk>(interface, rng,
                                          ClampStart(interface, start),
                                          params.p, params.q);
  }
};

class PageRankProgram final : public WalkProgram {
 public:
  std::string_view name() const override { return "pagerank"; }
  std::unique_ptr<Sampler> MakeWalker(
      RestrictedInterface& interface, Rng& rng, NodeId start,
      const WalkProgramParams& params) const override {
    return std::make_unique<PageRankMassWalk>(interface, rng,
                                              ClampStart(interface, start),
                                              params.restart);
  }
};

const std::array<const WalkProgram*, 6>& Registry() {
  static const SrwProgram srw;
  static const MhrwProgram mhrw;
  static const RandomJumpProgram random_jump;
  static const MtoProgram mto;
  static const Node2VecProgram node2vec;
  static const PageRankProgram pagerank;
  static const std::array<const WalkProgram*, 6> programs = {
      &srw, &mhrw, &random_jump, &mto, &node2vec, &pagerank};
  return programs;
}

}  // namespace

const WalkProgram* FindWalkProgram(std::string_view name) {
  if (name == "rj") name = "random_jump";
  for (const WalkProgram* program : Registry()) {
    if (program->name() == name) return program;
  }
  return nullptr;
}

const WalkProgram& GetWalkProgram(std::string_view name) {
  const WalkProgram* program = FindWalkProgram(name);
  if (program == nullptr) {
    throw std::invalid_argument("GetWalkProgram: unknown program \"" +
                                std::string(name) + "\"");
  }
  return *program;
}

std::vector<std::string_view> WalkProgramNames() {
  std::vector<std::string_view> names;
  names.reserve(Registry().size());
  for (const WalkProgram* program : Registry()) {
    names.push_back(program->name());
  }
  return names;
}

}  // namespace mto
