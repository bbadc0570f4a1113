#include "src/graph/graph.h"

#include <algorithm>
#include <stdexcept>

namespace mto {

Graph::Graph(NodeId num_nodes, const std::vector<Edge>& edges) {
  offsets_.assign(static_cast<size_t>(num_nodes) + 1, 0);
  for (const Edge& e : edges) {
    if (e.u >= num_nodes || e.v >= num_nodes) {
      throw std::invalid_argument("Graph: edge endpoint out of range");
    }
    if (e.u == e.v) {
      throw std::invalid_argument("Graph: self-loop not allowed");
    }
    ++offsets_[e.u + 1];
    ++offsets_[e.v + 1];
  }
  for (size_t i = 1; i < offsets_.size(); ++i) offsets_[i] += offsets_[i - 1];
  adjacency_.resize(edges.size() * 2);
  std::vector<size_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const Edge& e : edges) {
    adjacency_[cursor[e.u]++] = e.v;
    adjacency_[cursor[e.v]++] = e.u;
  }
  for (NodeId v = 0; v < num_nodes; ++v) {
    auto begin = adjacency_.begin() + static_cast<ptrdiff_t>(offsets_[v]);
    auto end = adjacency_.begin() + static_cast<ptrdiff_t>(offsets_[v + 1]);
    std::sort(begin, end);
    if (std::adjacent_find(begin, end) != end) {
      throw std::invalid_argument("Graph: duplicate edge");
    }
  }
}

bool Graph::HasEdge(NodeId u, NodeId v) const {
  auto nbrs = Neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

std::vector<NodeId> Graph::CommonNeighbors(NodeId u, NodeId v) const {
  auto a = Neighbors(u);
  auto b = Neighbors(v);
  std::vector<NodeId> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

std::vector<Edge> Graph::Edges() const {
  std::vector<Edge> out;
  out.reserve(num_edges());
  for (NodeId u = 0; u < num_nodes(); ++u) {
    for (NodeId v : Neighbors(u)) {
      if (u < v) out.push_back({u, v});
    }
  }
  return out;
}

uint32_t Graph::MinDegree() const {
  uint32_t best = 0;
  for (NodeId v = 0; v < num_nodes(); ++v) {
    uint32_t d = Degree(v);
    if (v == 0 || d < best) best = d;
  }
  return best;
}

uint32_t Graph::MaxDegree() const {
  uint32_t best = 0;
  for (NodeId v = 0; v < num_nodes(); ++v) best = std::max(best, Degree(v));
  return best;
}

}  // namespace mto
