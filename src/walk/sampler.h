#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "src/net/restricted_interface.h"
#include "src/util/rng.h"

namespace mto {

/// Base class for random-walk samplers over a RestrictedInterface.
///
/// A sampler owns its position but not the interface (the interface is the
/// shared "session" whose cache and query counter persist across samplers in
/// ablation studies only when explicitly reused). Each `Step()` advances the
/// chain one transition; the harness interleaves steps with a Geweke
/// burn-in check and reads samples off `current()`.
///
/// The held span: a sampler keeps the neighbours of `current()` (a span
/// into the interface's immutable network) from the read that put it
/// there, so its next `Step()` and its sample readers (`CurrentDegree*`,
/// `CurrentProfile`, the degree weights) issue no request for the node it
/// stands on, and its peek reads no cache. It is set by every move through a successful read
/// (`MoveTo`), and by `Teleport` and construction when the node is
/// already cached (through `PeekCached`, which costs no request). It is
/// cleared by `set_current` (MTO's moves); the next reader then queries
/// `current()` once and holds the answer. A read of a held node would be
/// a cache hit, so holding changes no draw, trajectory, unique query or
/// trip; it only keeps those hits out of the request total.
///
/// A held span presumes `current()` stays cached. A session `Reset()` or
/// `RestoreSession()` breaks that, so walkers that live across one must be
/// re-`Teleport`ed afterwards (CrawlScheduler::RestoreWalkers does).
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

  /// Prefetch hint for batching schedulers (runtime/CrawlScheduler): the
  /// first node the next `Step()` will query that may be uncached —
  /// `current()` itself when it is not cached, otherwise the pick the step
  /// opens with. A scheduler coalesces many walkers' hints into one bulk
  /// fetch before every walker takes its plain `Step()`. The peek reads
  /// cached state only (`PeekCached`/`IsCached`), draws on a saved RNG
  /// state that is restored before it returns, issues no fetch and moves
  /// no counter, so peeking never changes what `Step()` does: trajectories
  /// are bit-identical with or without it. std::nullopt means there is
  /// nothing worth prefetching (Random Jump's teleports draw a fresh node
  /// id through RandomUser; an isolated node never moves). The hint covers
  /// only the step's first query; what the step queries after it (MTO's
  /// re-picks) it fetches itself. One exception to "moves no counter":
  /// MTO's peek records its pick, which the next `Step()` reads for its
  /// speculation counters (never for the walk itself), so each peek must
  /// be followed by exactly one `Step()`.
  std::optional<NodeId> PeekStep();

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

  /// Moves the walk to `node` without transition semantics (restart),
  /// holding its neighbours when it is cached.
  virtual void Teleport(NodeId node);

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
  /// Moves to `v` without holding its neighbours.
  void set_current(NodeId v) {
    current_ = v;
    held_degree_ = kNotHeld;
  }

  /// Moves to the node `view` answers for and holds its neighbours.
  void MoveTo(const QueryView& view) {
    current_ = view.user;
    held_neighbors_ = view.neighbors.data();
    held_degree_ = view.degree();
  }

  /// The neighbours of `current()`: the held span, or else one `QueryRef`
  /// whose answer is then held. std::nullopt when that read is refused
  /// (an uncached node under an exhausted budget).
  std::optional<std::span<const NodeId>> CurrentNeighbors();

  /// The neighbours of `current()` for a peek, with no request: the held
  /// span, else the cached answer (`PeekCached`); std::nullopt when the
  /// node is not cached. A held node is cached, so both name the same span.
  std::optional<std::span<const NodeId>> PeekCurrentNeighbors() const;

  /// The body of `PeekStep()`, run between its RNG save and restore: it
  /// may draw freely but must read cached state only. Walks that cannot
  /// announce anything keep the default.
  virtual std::optional<NodeId> PeekFirstQuery() { return std::nullopt; }

  /// One uniform draw over `neighbors` (non-empty). Every walk whose step
  /// opens with a uniform neighbor pick makes it here, in `Step()` and in
  /// the peek alike, so the two cannot drift apart.
  NodeId UniformPick(std::span<const NodeId> neighbors) {
    return neighbors[static_cast<size_t>(rng_->UniformInt(neighbors.size()))];
  }

  /// `PeekFirstQuery()` of a walk whose step opens with a uniform neighbor
  /// pick (SRW, MHRW): `current()` when uncached, std::nullopt when it has
  /// no neighbors, else the pick.
  std::optional<NodeId> PeekUniformNeighbor();

  /// One Metropolis–Hastings move targeting the uniform distribution
  /// (MHRW, and Random Jump off its jump): propose a uniform neighbor v of
  /// u = current(), query it, accept with min(1, k_u / k_v). Stays put on
  /// an isolated node or an exhausted budget. Returns current().
  NodeId MetropolisStep();

  /// 1/k for the current node's true degree k (0 when isolated or
  /// uncached): the importance weight of a walk whose stationary
  /// distribution is proportional to degree (SRW, node2vec).
  double InverseDegreeWeight();

 private:
  /// `held_degree_` when no span is held.
  static constexpr uint32_t kNotHeld = UINT32_MAX;

  RestrictedInterface* interface_;
  Rng* rng_;
  NodeId current_;
  // The held span of current_: it sits in the padding after current_, so a
  // walker grows by one pointer.
  uint32_t held_degree_ = kNotHeld;
  const NodeId* held_neighbors_ = nullptr;
};

}  // namespace mto
