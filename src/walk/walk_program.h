#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "src/core/mto_sampler.h"
#include "src/walk/sampler.h"

namespace mto {

/// State shape of a walk program's frontier — what a checkpoint must
/// capture per walker beyond (position, RNG stream). See DESIGN.md §13.
enum class FrontierShape {
  /// The walk's full positional state is its current node (SRW, MHRW, RJ,
  /// MTO — MTO's overlay is separate, non-positional state).
  kOneNode,
  /// The walk's positional state is the pair (prev, cur) — its last
  /// traversed edge (node2vec). Checkpoints carry the second-order
  /// register (format v3), and schedulers restore it after repositioning.
  kSecondOrder,
};

/// Parameters a WalkProgram's factory may consume. One flat bag rather than
/// per-program structs: every field has the library default, and each
/// program reads only its own knobs (ScenarioConfig rejects foreign keys at
/// parse time, so a scenario cannot silently set a knob its program
/// ignores).
struct WalkProgramParams {
  double jump_probability = 0.5;  ///< random_jump: teleport probability
  double p = 1.0;                 ///< node2vec: return parameter
  double q = 1.0;                 ///< node2vec: in-out parameter
  double restart = 0.15;          ///< pagerank: teleport probability
  MtoConfig mto;                  ///< mto: the paper's ablation knobs
};

/// A pluggable walk semantic — the unit the scenario's `"program"` key
/// selects. A program declares, *statically*, everything the service
/// layer must know to checkpoint and label its walkers (frontier shape,
/// overlay use), and builds them via MakeWalker; how a walker is stepped
/// and prefetched is the Sampler's own business (`Step()`, `PeekStep()`).
/// Programs are stateless singletons; all per-walk state lives in the
/// Sampler instances they build.
///
/// Built-in programs: "srw", "mhrw", "random_jump" (alias "rj"), "mto",
/// "node2vec", "pagerank". The registry is the only walk dispatch: the
/// experiment harness and the crawl service both build walkers through it.
class WalkProgram {
 public:
  virtual ~WalkProgram() = default;

  /// Registry key ("srw", "node2vec", ...). Also the per-program metric
  /// label value (scheduler.steps{program=...}).
  virtual std::string_view name() const = 0;

  /// What positional state a walker of this program carries.
  virtual FrontierShape frontier_shape() const {
    return FrontierShape::kOneNode;
  }

  /// True when walkers carry a mutable OverlayGraph the service layer must
  /// snapshot/restore in checkpoints and freeze at the end of burn-in.
  virtual bool uses_overlay() const { return false; }

  /// Builds one walker. `start` is clamped to 0 when out of id range.
  virtual std::unique_ptr<Sampler> MakeWalker(
      RestrictedInterface& interface, Rng& rng, NodeId start,
      const WalkProgramParams& params) const = 0;
};

/// Looks up a built-in program by registry name (accepting the "rj" alias);
/// nullptr when unknown.
const WalkProgram* FindWalkProgram(std::string_view name);

/// FindWalkProgram or std::invalid_argument naming the unknown program.
const WalkProgram& GetWalkProgram(std::string_view name);

/// Registry names in registration order (aliases excluded).
std::vector<std::string_view> WalkProgramNames();

}  // namespace mto
