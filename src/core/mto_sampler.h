#pragma once

#include "src/core/overlay_graph.h"
#include "src/walk/sampler.h"

namespace mto {

/// Configuration of MTO-Sampler. Defaults reproduce the paper's full
/// algorithm ("MTO_Both" in Fig 10); the flags allow the paper's ablations
/// (MTO_RM = removal only, MTO_RP = replacement only) and our additional
/// design-choice ablations (DESIGN.md §5).
/// How MtoSampler::ImportanceWeight() obtains the overlay degree k*_u
/// (paper Section IV-A "probability revision").
enum class OverlayDegreeMode {
  /// Use the walk's current overlay view of u's neighborhood as-is: edges
  /// not yet classified count as surviving. Free (no extra queries); the
  /// bias vanishes as the walk classifies the region it samples from.
  kOverlayView,
  /// The paper's estimator: query a simple random sample of `degree_probe`
  /// neighbors, classify those edges, and scale the survival fraction.
  kProbe,
  /// Classify every incident edge (queries all neighbors): exact k*_u.
  kExact,
};

/// Which neighborhoods feed the Theorem 3/5 criteria. See EXPERIMENTS.md
/// "Criterion basis" for the measured trade-off.
enum class CriterionBasis {
  /// Re-evaluate on the current overlay neighborhoods (Algorithm 1's
  /// mutated N(u)). Conservative: removal stalls once shrinking degrees and
  /// common counts block the criterion (~20-30% of dense-group edges go).
  /// Empirically the best *sampling* configuration — the walk's stationary
  /// distribution stays close to its importance weights throughout — so it
  /// is the library default.
  kOverlay,
  /// Quantities exactly as the web interface returns them — the original
  /// graph's N(u), N(v), ku, kv. Matches the theorem statements (they speak
  /// about G) and prunes aggressively: every edge of a dense group
  /// qualifies, so groups collapse to the min_overlay_degree floor plus the
  /// connectivity guard. Reproduces the paper's large conductance gains on
  /// the running example (Φ 0.018 -> ~0.08); used by the topology-analysis
  /// benches.
  kOriginal,
};

struct MtoConfig {
  /// Theorem 3 edge removals.
  bool enable_removal = true;
  /// Input quantities for the removal criteria (see CriterionBasis).
  CriterionBasis criterion_basis = CriterionBasis::kOverlay;
  /// Never remove an edge when either endpoint's *overlay* degree would drop
  /// below this floor. Keeps the overlay connected in practice under the
  /// aggressive kOriginal basis (original non-bridges can become overlay
  /// bridges); 2 preserves a cycle/tree backbone through pruned regions.
  uint32_t min_overlay_degree = 2;
  /// Theorem 4 edge replacements (legal only when deg(v) == 3).
  bool enable_replacement = true;
  /// Theorem 5 relaxation using cached degrees of common neighbors.
  bool use_degree_extension = false;
  /// Algorithm 1's `rand(0,1) < 1/2` lazy step: when true the walk moves to
  /// the picked neighbor with probability 1/2 and re-picks (and queries)
  /// another neighbor otherwise. Default off: laziness roughly doubles the
  /// unique-query cost per forward move without helping bias on the
  /// non-bipartite graphs OSNs are in practice (ablated in
  /// bench_ablation_rules).
  bool lazy = false;
  /// Probability of taking the replacement branch when it is legal.
  double replace_probability = 0.5;
  /// Overlay-degree source for importance weights.
  OverlayDegreeMode weight_mode = OverlayDegreeMode::kOverlayView;
  /// Neighbors probed per ImportanceWeight() call under kProbe.
  uint32_t degree_probe = 8;
  /// Bound on re-picks within one Step() (defends against pathological
  /// all-removable neighborhoods).
  uint32_t max_inner_iterations = 128;
};

/// MTO-Sampler (paper Algorithm 1): a simple random walk that rewires the
/// social network on the fly, walking the overlay topology G* instead of G.
///
/// Per step, at node u:
///  1. pick v uniformly from u's *overlay* neighborhood and query it;
///  2. if edge (u,v) is unclassified: remove it when Theorem 3/5 applies
///     (then re-pick), else when deg*(v) == 3 flip a memoized coin and
///     possibly replace (u,v) with (u,w), w ∈ N*(v) (Theorem 4);
///  3. move to the surviving target (with probability 1/2 when lazy).
///
/// The walk's stationary distribution is τ*(u) = k*_u / (2|E*|); importance
/// weights are 1/k̂*_u with k̂*_u exact or probed per MtoConfig.
class MtoSampler final : public Sampler {
 public:
  MtoSampler(RestrictedInterface& interface, Rng& rng, NodeId start,
             MtoConfig config = {});

  NodeId Step() override;

  /// Speculation accounting (reset never; read by benches/tests). Every
  /// `Step()` that follows a peek which named a pick counts one
  /// speculative commit; it is a *hit* when the step moved to that pick on
  /// its first inner iteration — i.e. the prefetch covered every fetch the
  /// step needed. Re-picks after a removal, replacement re-targets, and
  /// lazy re-draws all count as misses.
  uint64_t speculative_commits() const { return speculative_commits_; }
  uint64_t speculation_hits() const { return speculation_hits_; }

  /// 1 / k̂*_current (see MtoConfig::weight_mode).
  double ImportanceWeight() override;

  std::string name() const override { return "MTO"; }

  /// Read access to the overlay (experiments materialize it from here).
  const OverlayGraph& overlay() const { return overlay_; }

  /// Active configuration.
  const MtoConfig& config() const { return config_; }

  /// Freezes the topology: no further removals/replacements are applied, so
  /// from here on the walk is a genuine SRW on a *fixed* overlay and the
  /// importance weights 1/k* are exactly consistent with the sampling
  /// distribution. The harness calls this at the end of burn-in (ablated in
  /// bench_ablation_rules); Algorithm 1 as printed never freezes, which
  /// leaves a small non-stationarity bias while rewiring keeps discovering
  /// new regions.
  void FreezeTopology() { frozen_ = true; }

  /// True once FreezeTopology() was called.
  bool frozen() const { return frozen_; }

  /// Checkpointing (src/service): the overlay's full state is a pure
  /// function of its mutation delta plus the original neighborhoods, and
  /// every other bit of MTO state lives in the walker's RNG stream and
  /// position (both captured by CrawlScheduler::WalkerState). Snapshot the
  /// delta at a unit boundary; restore into a *fresh* sampler whose
  /// interface cache has already been restored, passing the q(v) response
  /// source (the service uses network ground truth — every registered node
  /// was once successfully queried, so its response is in the restored
  /// cache and equals ground truth).
  OverlayGraph::Delta SnapshotOverlay() const {
    return overlay_.SnapshotDelta();
  }
  void RestoreOverlay(
      const OverlayGraph::Delta& delta,
      const std::function<std::span<const NodeId>(NodeId)>& original_neighbors,
      bool frozen) {
    overlay_.RestoreDelta(delta, original_neighbors);
    frozen_ = frozen;
  }

 protected:
  /// MTO cannot promise its target — classification may remove or replace
  /// the picked edge mid-step, forcing a re-pick — but it can name the pick
  /// the step opens with: the uniform overlay neighbor `Step()` draws first,
  /// read from the overlay (or, for a node not registered yet, from its
  /// cached neighborhood, which the overlay would register unchanged since
  /// edge rules only touch registered nodes). `current()` when it is not
  /// cached; std::nullopt when overlay-isolated. The pick is recorded for
  /// the speculation accounting of the next `Step()`, so each peek must be
  /// followed by exactly one `Step()` (a second peek overwrites it).
  std::optional<NodeId> PeekFirstQuery() override;

 private:
  /// Queries v and registers its original neighborhood in the overlay.
  /// Returns false when the query budget is exhausted.
  bool Fetch(NodeId v);

  /// Classifies the unprocessed edge (u, v). Returns true if the edge was
  /// removed (caller must re-pick); on a replacement, `v` is updated to the
  /// new endpoint w.
  bool ClassifyEdge(NodeId u, NodeId& v);

  /// Theorem 3/5 evaluation for the overlay edge (u, v).
  bool RemovableNow(NodeId u, NodeId v) const;

  /// Exact or probed overlay degree of u (may issue queries).
  double EstimateOverlayDegree(NodeId u);

  OverlayGraph overlay_;
  MtoConfig config_;
  bool frozen_ = false;

  // Speculation accounting: the pick of the last peek, consumed (and
  // scored) by the next Step().
  std::optional<NodeId> speculated_;
  uint64_t speculative_commits_ = 0;
  uint64_t speculation_hits_ = 0;
};

}  // namespace mto
