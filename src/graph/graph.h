#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace mto {

/// Node identifier. Nodes of a graph with n nodes are 0..n-1.
using NodeId = uint32_t;

/// An undirected edge as an ordered pair (u <= v after normalization).
struct Edge {
  NodeId u;
  NodeId v;

  /// Returns the edge with endpoints ordered so that u <= v.
  Edge Normalized() const { return u <= v ? Edge{u, v} : Edge{v, u}; }

  friend bool operator==(const Edge&, const Edge&) = default;
  friend auto operator<=>(const Edge&, const Edge&) = default;
};

/// Calls `f(w)` for every w in both ascending-sorted lists, in ascending
/// order: the linear merge behind every common-neighbor count, on the
/// original graph and on the MTO overlay alike.
template <typename F>
void ForEachCommon(std::span<const NodeId> a, std::span<const NodeId> b,
                   F&& f) {
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      f(a[i]);
      ++i;
      ++j;
    }
  }
}

/// |a ∩ b| for two ascending-sorted neighbor lists.
inline uint32_t CountCommon(std::span<const NodeId> a,
                            std::span<const NodeId> b) {
  uint32_t count = 0;
  ForEachCommon(a, b, [&count](NodeId) { ++count; });
  return count;
}

/// Immutable, compact undirected simple graph.
///
/// Storage is CSR-style: a single adjacency array plus per-node offsets,
/// with each neighbor list sorted ascending. This makes neighbor access a
/// contiguous span, membership tests O(log k), and common-neighbor counting
/// a linear merge — the operations the MTO edge rules are built on.
///
/// Construct via GraphBuilder (src/graph/builder.h) or the generators.
class Graph {
 public:
  /// Builds a graph over `num_nodes` nodes from a list of undirected edges.
  /// Edges must be deduplicated, self-loop free, and reference valid nodes;
  /// GraphBuilder enforces this. Throws std::invalid_argument on violation.
  Graph(NodeId num_nodes, const std::vector<Edge>& edges);

  /// Empty graph.
  Graph() : Graph(0, {}) {}

  /// Number of nodes.
  NodeId num_nodes() const { return static_cast<NodeId>(offsets_.size() - 1); }

  /// Number of undirected edges.
  size_t num_edges() const { return adjacency_.size() / 2; }

  /// Degree of node `v`.
  uint32_t Degree(NodeId v) const {
    return static_cast<uint32_t>(offsets_[v + 1] - offsets_[v]);
  }

  /// Sorted neighbor list of `v` as a contiguous view.
  std::span<const NodeId> Neighbors(NodeId v) const {
    return {adjacency_.data() + offsets_[v], adjacency_.data() + offsets_[v + 1]};
  }

  /// Returns true iff the undirected edge (u, v) exists. O(log k).
  bool HasEdge(NodeId u, NodeId v) const;

  /// Number of common neighbors |N(u) ∩ N(v)| (see CountCommon).
  uint32_t CommonNeighborCount(NodeId u, NodeId v) const {
    return CountCommon(Neighbors(u), Neighbors(v));
  }

  /// Common neighbors of u and v, ascending.
  std::vector<NodeId> CommonNeighbors(NodeId u, NodeId v) const;

  /// All undirected edges, each once, normalized (u < v), sorted.
  std::vector<Edge> Edges() const;

  /// Sum of all degrees (= 2 * num_edges()).
  size_t DegreeSum() const { return adjacency_.size(); }

  /// Smallest degree over all nodes; 0 for the empty graph.
  uint32_t MinDegree() const;

  /// Largest degree over all nodes; 0 for the empty graph.
  uint32_t MaxDegree() const;

 private:
  std::vector<size_t> offsets_;   // size num_nodes + 1
  std::vector<NodeId> adjacency_; // size 2 * num_edges, per-node sorted
};

}  // namespace mto
