#include "src/core/full_overlay.h"

#include <algorithm>
#include <vector>

#include "src/core/edge_rules.h"
#include "src/graph/builder.h"

namespace mto {
namespace {

/// Mutable sorted-adjacency overlay with the same semantics as OverlayGraph
/// but dense over all nodes (offline construction has full knowledge).
class DenseOverlay {
 public:
  explicit DenseOverlay(const Graph& g) : adj_(g.num_nodes()) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      auto nbrs = g.Neighbors(v);
      adj_[v].assign(nbrs.begin(), nbrs.end());
    }
  }

  uint32_t Degree(NodeId v) const {
    return static_cast<uint32_t>(adj_[v].size());
  }

  std::span<const NodeId> Neighbors(NodeId v) const { return adj_[v]; }

  bool HasEdge(NodeId u, NodeId v) const {
    return std::binary_search(adj_[u].begin(), adj_[u].end(), v);
  }

  void Remove(NodeId u, NodeId v) {
    Erase(adj_[u], v);
    Erase(adj_[v], u);
  }

  /// True iff v is reachable from u without using edge (u, v) — the exact
  /// connectivity guard (offline construction has the whole overlay).
  bool PathExistsAvoiding(NodeId u, NodeId v) const {
    // Fast path: any shared neighbor is a detour.
    if (CountCommon(adj_[u], adj_[v]) > 0) return true;
    std::vector<char> seen(adj_.size(), 0);
    std::vector<NodeId> stack{u};
    seen[u] = 1;
    while (!stack.empty()) {
      NodeId x = stack.back();
      stack.pop_back();
      for (NodeId y : adj_[x]) {
        if ((x == u && y == v) || (x == v && y == u)) continue;
        if (y == v) return true;
        if (!seen[y]) {
          seen[y] = 1;
          stack.push_back(y);
        }
      }
    }
    return false;
  }

  void Add(NodeId u, NodeId v) {
    Insert(adj_[u], v);
    Insert(adj_[v], u);
  }

  Graph Materialize() const {
    GraphBuilder builder;
    builder.ReserveNodes(static_cast<NodeId>(adj_.size()));
    for (NodeId u = 0; u < adj_.size(); ++u) {
      for (NodeId v : adj_[u]) {
        if (u < v) builder.AddEdge(u, v);
      }
    }
    return builder.Build();
  }

 private:
  static void Erase(std::vector<NodeId>& xs, NodeId v) {
    auto it = std::lower_bound(xs.begin(), xs.end(), v);
    if (it != xs.end() && *it == v) xs.erase(it);
  }
  static void Insert(std::vector<NodeId>& xs, NodeId v) {
    auto it = std::lower_bound(xs.begin(), xs.end(), v);
    if (it == xs.end() || *it != v) xs.insert(it, v);
  }

  std::vector<std::vector<NodeId>> adj_;
};

/// Theorem 3 or (when enabled) Theorem 5, with the configured criterion
/// basis: quantities from the original graph `g` (default) or the current
/// overlay. The guard always checks *overlay* degrees.
bool Removable(const Graph& g, const DenseOverlay& overlay, NodeId u, NodeId v,
               const MtoConfig& config) {
  const uint32_t floor = std::max(config.min_overlay_degree, 1u);
  if (overlay.Degree(u) <= floor || overlay.Degree(v) <= floor) return false;
  const bool original = config.criterion_basis == CriterionBasis::kOriginal;
  const uint32_t ku = original ? g.Degree(u) : overlay.Degree(u);
  const uint32_t kv = original ? g.Degree(v) : overlay.Degree(v);
  if (RemovalWouldIsolate(ku, kv)) return false;
  const std::span<const NodeId> a =
      original ? g.Neighbors(u) : overlay.Neighbors(u);
  const std::span<const NodeId> b =
      original ? g.Neighbors(v) : overlay.Neighbors(v);
  const uint32_t common = CountCommon(a, b);
  // OR of Theorem 3 and Theorem 5 — eq. (9) alone is not uniformly stronger.
  if (RemovalCriterion(common, ku, kv)) return true;
  if (!config.use_degree_extension) return false;
  std::vector<uint32_t> small;
  ForEachCommon(a, b, [&](NodeId w) {
    const uint32_t kw = original ? g.Degree(w) : overlay.Degree(w);
    if (kw == 2 || kw == 3) small.push_back(kw);
  });
  return RemovalCriterionExtended(common, ku, kv, small);
}

}  // namespace

FullOverlayResult BuildFullOverlay(const Graph& g, const MtoConfig& config,
                                   Rng& rng) {
  DenseOverlay overlay(g);
  FullOverlayResult result;

  auto removal_fixpoint = [&]() {
    if (!config.enable_removal) return;
    bool changed = true;
    while (changed) {
      changed = false;
      ++result.removal_passes;
      std::vector<Edge> edges = overlay.Materialize().Edges();
      rng.Shuffle(edges);
      for (const Edge& e : edges) {
        if (!overlay.HasEdge(e.u, e.v)) continue;  // removed earlier this pass
        if (Removable(g, overlay, e.u, e.v, config) &&
            overlay.PathExistsAvoiding(e.u, e.v)) {
          overlay.Remove(e.u, e.v);
          ++result.edges_removed;
          changed = true;
        }
      }
    }
  };

  removal_fixpoint();

  if (config.enable_replacement) {
    std::vector<NodeId> order(g.num_nodes());
    for (NodeId v = 0; v < g.num_nodes(); ++v) order[v] = v;
    rng.Shuffle(order);
    for (NodeId v : order) {
      if (!ReplacementAllowed(overlay.Degree(v))) continue;
      if (!rng.Bernoulli(config.replace_probability)) continue;
      // Pick u, w ∈ N*(v), replace (u,v) by (u,w) if not already present.
      const std::span<const NodeId> nbrs = overlay.Neighbors(v);
      if (nbrs.size() < 2) continue;
      size_t iu = static_cast<size_t>(rng.UniformInt(nbrs.size()));
      size_t iw = static_cast<size_t>(rng.UniformInt(nbrs.size() - 1));
      if (iw >= iu) ++iw;
      NodeId u = nbrs[iu], w = nbrs[iw];
      if (overlay.HasEdge(u, w)) continue;
      overlay.Remove(u, v);
      overlay.Add(u, w);
      ++result.edges_replaced;
    }
    removal_fixpoint();
  }

  result.overlay = overlay.Materialize();
  return result;
}

}  // namespace mto
