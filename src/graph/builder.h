#pragma once

#include <vector>

#include "src/graph/graph.h"

namespace mto {

/// Incremental constructor for Graph.
///
/// Accepts arbitrary edge insertions (duplicates and self-loops tolerated,
/// removed at Build time), grows the node count on demand, and implements the
/// paper's directed-to-undirected conversion: keep only edges that appear in
/// both directions ("mutual" edges), so a random walk on the undirected graph
/// is realizable on the original directed graph (Section V-A.2).
class GraphBuilder {
 public:
  GraphBuilder() = default;

  /// Pre-declares at least `n` nodes (ids 0..n-1 valid even if isolated).
  void ReserveNodes(NodeId n);

  /// Adds an undirected edge. Self-loops are silently dropped at Build.
  void AddEdge(NodeId u, NodeId v);

  /// Adds a directed arc, used with BuildMutual().
  void AddArc(NodeId from, NodeId to);

  /// Number of nodes declared so far (max endpoint + 1, or ReserveNodes).
  NodeId num_nodes() const { return num_nodes_; }

  /// Builds the undirected graph: self-loops dropped, duplicates collapsed.
  /// Directed arcs added via AddArc are treated as undirected edges here.
  /// Linear apart from a sort of each degree-sized bucket: the arcs are
  /// counting-sorted by their smaller endpoint.
  Graph Build() const;

  /// Builds the undirected graph keeping only mutual arcs: edge (u,v) is
  /// included iff both arcs u->v and v->u were added. Undirected edges added
  /// via AddEdge count as both arcs. Buckets the arcs by source, as Build
  /// does, and looks each arc's reverse up in its target's bucket.
  Graph BuildMutual() const;

 private:
  std::vector<Edge> arcs_;  // as (from, to); AddEdge records both directions
  NodeId num_nodes_ = 0;
};

/// Relabels the graph to its largest connected component; `mapping`, when
/// non-null, receives old-id -> new-id (num_nodes entries; kInvalidNode for
/// dropped nodes). A connected (or empty) graph is returned as passed in,
/// its edge list untouched, and `mapping` is overwritten with the identity;
/// pass the graph with std::move when the input is no longer needed.
inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);
Graph LargestComponent(Graph g, std::vector<NodeId>* mapping = nullptr);

}  // namespace mto
