#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/graph/graph.h"

namespace mto {

/// The virtual overlay topology G* that MTO-Sampler walks on (paper Fig 1).
///
/// The overlay starts out equal to the original graph; as the walk queries
/// neighborhoods it registers them here, and the edge rules then remove or
/// replace edges. All modifications are recorded globally (by edge key) so
/// that a node queried *after* an incident edge was modified still sees the
/// modified neighborhood — the overlay is one consistent graph, not a
/// per-node view. Rewiring decisions are memoized (`MarkProcessed`) so the
/// walk is a genuine random walk on a converging topology.
class OverlayGraph {
 public:
  OverlayGraph() = default;

  /// Registers the *original* neighborhood of `v` (the response of q(v)).
  /// Applies all previously recorded removals/additions involving v.
  /// Idempotent; subsequent calls are no-ops.
  ///
  /// The overlay borrows `original` instead of copying it: the span must be
  /// sorted ascending and outlive the overlay. Both hold for the lists a
  /// `QueryView` or `Graph::Neighbors` returns, which point into the
  /// session's immutable network.
  void RegisterNode(NodeId v, std::span<const NodeId> original);

  /// True iff v's neighborhood has been registered.
  bool IsRegistered(NodeId v) const { return nodes_.count(v) != 0; }

  /// Overlay neighbor list of a registered node (sorted ascending). It
  /// aliases the original list until an edge rule first changes the node.
  /// The span is invalidated by the next RemoveEdge/AddEdge touching `v`.
  /// Throws std::logic_error if `v` is not registered.
  std::span<const NodeId> Neighbors(NodeId v) const;

  /// Overlay degree k*_v of a registered node.
  uint32_t Degree(NodeId v) const {
    return static_cast<uint32_t>(Neighbors(v).size());
  }

  /// The *original* neighbor list of a registered node, exactly as the web
  /// interface returned it (the borrowed span). The paper's edge criteria
  /// are stated on the original graph, so the sampler consults these by
  /// default.
  std::span<const NodeId> OriginalNeighbors(NodeId v) const;

  /// Original degree k_v of a registered node.
  uint32_t OriginalDegree(NodeId v) const {
    return static_cast<uint32_t>(OriginalNeighbors(v).size());
  }

  /// True iff edge (u,v) is present in the overlay view of registered node
  /// u. Requires u registered.
  bool HasEdge(NodeId u, NodeId v) const;

  /// Removes edge (u,v) from the overlay. Updates both endpoints' lists (if
  /// registered) and records the removal for nodes registered later.
  void RemoveEdge(NodeId u, NodeId v);

  /// Adds edge (u,v) to the overlay (no-op if already present).
  void AddEdge(NodeId u, NodeId v);

  /// Memoizes that edge (u,v) has been classified; future encounters skip
  /// the rules (gives replacements their once-only semantics).
  void MarkProcessed(NodeId u, NodeId v);

  /// True iff (u,v) was already classified.
  bool IsProcessed(NodeId u, NodeId v) const;

  /// Number of recorded removals / additions (diagnostics).
  size_t num_removed() const { return removed_.size(); }
  size_t num_added() const { return added_.size(); }

  /// Nodes registered so far.
  size_t num_registered() const { return nodes_.size(); }

  /// True iff v is reachable from u in the overlay *without* using edge
  /// (u, v), traversing only registered nodes (an unregistered node can be
  /// reached but not expanded — its neighborhood is unknown to the walk).
  /// Explores at most `max_visits` nodes; returns false when the budget runs
  /// out, so a true result is a proof and a false result is "unknown".
  /// This is the connectivity guard that keeps aggressive removals from
  /// stranding the walk (DESIGN.md §5).
  bool PathExistsAvoiding(NodeId u, NodeId v, size_t max_visits = 4096) const;

  /// Net overlay-degree change per node implied by all recorded removals
  /// and additions: k*_v = k_v + delta[v] (0 when absent). Covers nodes that
  /// were never registered, which is what the KL experiments need to build
  /// the full ideal distribution τ*.
  std::unordered_map<NodeId, int> DegreeDeltas() const;

  /// Order-independent image of everything the walk did to the overlay: the
  /// registered node set plus the recorded edge-rule mutations (removals,
  /// additions, classification marks, as packed `Key(u, v)` edge keys). The
  /// overlay's full state is a pure function of this delta and the original
  /// neighborhoods — `RegisterNode` applies recorded mutations regardless
  /// of arrival order — which is what makes the MTO sampler checkpointable
  /// (see src/service/checkpoint.h). All vectors are sorted ascending, so a
  /// delta serializes deterministically.
  struct Delta {
    std::vector<NodeId> registered;
    std::vector<uint64_t> removed;
    std::vector<uint64_t> added;
    std::vector<uint64_t> processed;
  };

  /// Captures the current delta (sorted copies of the internal sets).
  Delta SnapshotDelta() const;

  /// Rebuilds this overlay from a delta: installs the mutation sets, then
  /// re-registers every node through `neighbors_of` (the q(v) response
  /// source — the restored session cache, or ground truth on the service's
  /// resume path), borrowing each span like RegisterNode. Any existing state
  /// is discarded. The rebuilt overlay is bit-identical to the one the delta
  /// was snapshotted from.
  void RestoreDelta(
      const Delta& delta,
      const std::function<std::span<const NodeId>(NodeId)>& neighbors_of);

  /// Materializes the overlay restricted to registered nodes as a Graph,
  /// relabelling to 0..k-1; `mapping`, when non-null, receives
  /// overlay-node -> original-id. Edges to unregistered endpoints are kept
  /// only if the endpoint appears in some registered list and is itself
  /// registered (i.e. the induced subgraph on registered nodes).
  Graph InducedOverlay(std::vector<NodeId>* mapping = nullptr) const;

 private:
  /// One registered node: the borrowed original list, plus a private copy
  /// that exists only once an edge rule has changed the node.
  struct Node {
    std::span<const NodeId> original;
    std::optional<std::vector<NodeId>> rewired;

    std::span<const NodeId> current() const {
      return rewired ? std::span<const NodeId>(*rewired) : original;
    }
  };

  static uint64_t Key(NodeId u, NodeId v);
  /// Makes `w` present in (or absent from) `node`'s current list, kept
  /// sorted; the first change copies the original list into `rewired`.
  static void SetEdge(Node& node, NodeId w, bool present);

  std::unordered_map<NodeId, Node> nodes_;
  std::unordered_set<uint64_t> removed_;
  std::unordered_set<uint64_t> added_;
  std::unordered_set<uint64_t> processed_;
};

}  // namespace mto
