#pragma once

#include <optional>
#include <string>

#include "src/net/restricted_interface.h"
#include "src/util/rng.h"

namespace mto {

/// How a batching scheduler (runtime/CrawlScheduler) should drive a walk in
/// coalesced rounds. See the two-phase stepping contract on Sampler below.
enum class StepProtocol {
  /// The walk cannot announce anything useful before stepping (Random
  /// Jump's teleports draw a fresh node id that is pointless to prefetch).
  /// Coalesced rounds drive it via plain `Step()` in the commit phase.
  kSingleStep,
  /// `ProposeStep()` announces the walk's definitive target: if the commit
  /// moves at all, it moves there (SRW, MHRW). A std::nullopt proposal
  /// means the walk cannot move this round and no commit follows.
  kTwoPhase,
  /// `ProposeStep()` announces a *speculation*: the pick the step would
  /// take on the walk's current view, peeked without consuming RNG draws.
  /// `CommitStep()` re-runs the full step logic and re-validates — if the
  /// walk's own mutations (MTO's edge removal/replacement) invalidate the
  /// speculated target mid-step it re-picks, and the prefetched node stays
  /// a warm cache entry, never a correctness hazard. A std::nullopt
  /// proposal only means "nothing to prefetch"; the commit still runs a
  /// full `Step()`.
  kSpeculative,
};

/// Base class for random-walk samplers over a RestrictedInterface.
///
/// A sampler owns its position but not the interface (the interface is the
/// shared "session" whose cache and query counter persist across samplers in
/// ablation studies only when explicitly reused). Each `Step()` advances the
/// chain one transition; the harness interleaves steps with a Geweke
/// burn-in check and reads samples off `current()`.
class Sampler {
 public:
  /// `start` must be a valid user id of the interface's network.
  Sampler(RestrictedInterface& interface, Rng& rng, NodeId start);
  virtual ~Sampler() = default;

  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  /// Advances one step and returns the new position. If the interface's
  /// query budget is exhausted mid-step the walk stays put; callers detect
  /// exhaustion via the interface.
  virtual NodeId Step() = 0;

  /// Two-phase stepping for batched schedulers (runtime/CrawlScheduler):
  /// `ProposeStep()` announces the step's target without fetching it, so a
  /// scheduler can coalesce many walkers' targets into one bulk fetch
  /// before every walker runs `CommitStep(target)`. In every protocol the
  /// propose/commit pair consumes exactly the RNG draws `Step()` would, in
  /// the same order, so `Step()` and propose/commit produce bit-identical
  /// trajectories.
  ///
  /// `step_protocol()` declares how the announcement is to be read:
  ///  * kTwoPhase (SRW, MHRW): the proposal is definitive; std::nullopt
  ///    means the walk cannot move this round (isolated node or exhausted
  ///    budget) and no commit follows.
  ///  * kSpeculative (MTO): the proposal is the pick the step would take on
  ///    the walk's current overlay view, *peeked* without consuming RNG
  ///    draws. The commit replays the full step — classification may
  ///    remove or replace the speculated edge mid-step, in which case the
  ///    walk re-picks and the prefetch was merely a warm cache entry.
  ///    std::nullopt only means "nothing to prefetch"; the commit still
  ///    runs (via plain `Step()`).
  ///  * kSingleStep (Random Jump): no useful announcement exists; the walk
  ///    is driven via plain `Step()` in the commit phase.
  virtual StepProtocol step_protocol() const {
    return StepProtocol::kSingleStep;
  }
  virtual std::optional<NodeId> ProposeStep() { return std::nullopt; }
  virtual NodeId CommitStep(NodeId target) {
    (void)target;
    return current_;
  }

  /// Current position of the walk.
  NodeId current() const { return current_; }

  /// The true degree of the current node (0 if it is not cached): the
  /// attribute fed to the Geweke diagnostic. Every walk reports it, MTO
  /// included: MTO's overlay degree drifts while rewiring still discovers
  /// edges, which would delay the diagnostic, and the true degree keeps
  /// convergence detection comparable across samplers (DESIGN.md §4).
  double CurrentDegreeForDiagnostic();

  /// Importance weight proportional to 1/τ(current), where τ is the chain's
  /// stationary distribution. Used by self-normalized importance-sampling
  /// estimators with a uniform target. MAY issue queries (MTO's overlay-
  /// degree probing).
  virtual double ImportanceWeight() = 0;

  /// Profile of the current node (cached query; never costs extra).
  UserProfile CurrentProfile();

  /// True (original-graph) degree of the current node — the value the
  /// average-degree aggregate estimates. Cached query; never costs extra.
  uint32_t CurrentDegree();

  /// Human-readable sampler name ("SRW", "MHRW", "RJ", "MTO").
  virtual std::string name() const = 0;

  /// Moves the walk to `node` without transition semantics (restart).
  virtual void Teleport(NodeId node) { current_ = node; }

  /// Second-order state (walks whose frontier is `(prev, cur)` rather than
  /// one node — WalkProgram::FrontierShape::kSecondOrder): the node the
  /// walk stood on before its last move, or std::nullopt when no move has
  /// happened yet (fresh walk, or right after a Teleport). One-node walks
  /// keep the defaults. Checkpointing captures this register alongside the
  /// position and RNG state (CrawlScheduler::WalkerState), and restores it
  /// via `RestorePrevious` *after* the Teleport that repositions the walk
  /// (Teleport clears the register on second-order walks).
  virtual std::optional<NodeId> PreviousNode() const { return std::nullopt; }
  virtual void RestorePrevious(std::optional<NodeId> prev) { (void)prev; }

 protected:
  RestrictedInterface& interface() { return *interface_; }
  const RestrictedInterface& interface() const { return *interface_; }
  Rng& rng() { return *rng_; }
  void set_current(NodeId v) { current_ = v; }

 private:
  RestrictedInterface* interface_;
  Rng* rng_;
  NodeId current_;
};

}  // namespace mto
