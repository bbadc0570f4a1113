#include "src/core/overlay_graph.h"

#include <algorithm>
#include <stdexcept>

namespace mto {

uint64_t OverlayGraph::Key(NodeId u, NodeId v) {
  if (u > v) std::swap(u, v);
  return (static_cast<uint64_t>(u) << 32) | v;
}

void OverlayGraph::SetEdge(Node& node, NodeId w, bool present) {
  const std::span<const NodeId> nbrs = node.current();
  if (std::binary_search(nbrs.begin(), nbrs.end(), w) == present) return;
  if (!node.rewired) node.rewired.emplace(nbrs.begin(), nbrs.end());
  std::vector<NodeId>& list = *node.rewired;
  const auto pos = std::lower_bound(list.begin(), list.end(), w);
  if (present) {
    list.insert(pos, w);
  } else {
    list.erase(pos);
  }
}

void OverlayGraph::RegisterNode(NodeId v, std::span<const NodeId> original) {
  auto [it, inserted] = nodes_.try_emplace(v, Node{original, {}});
  if (!inserted) return;
  Node& node = it->second;
  // Apply recorded removals.
  if (!removed_.empty()) {
    for (NodeId w : original) {
      if (removed_.count(Key(v, w)) != 0) SetEdge(node, w, false);
    }
  }
  // Apply recorded additions involving v.
  for (uint64_t key : added_) {
    const NodeId a = static_cast<NodeId>(key >> 32);
    const NodeId b = static_cast<NodeId>(key & 0xFFFFFFFFu);
    if (a == v) {
      SetEdge(node, b, true);
    } else if (b == v) {
      SetEdge(node, a, true);
    }
  }
}

std::span<const NodeId> OverlayGraph::Neighbors(NodeId v) const {
  auto it = nodes_.find(v);
  if (it == nodes_.end()) {
    throw std::logic_error("OverlayGraph::Neighbors: node not registered");
  }
  return it->second.current();
}

std::span<const NodeId> OverlayGraph::OriginalNeighbors(NodeId v) const {
  auto it = nodes_.find(v);
  if (it == nodes_.end()) {
    throw std::logic_error("OverlayGraph::OriginalNeighbors: not registered");
  }
  return it->second.original;
}

bool OverlayGraph::HasEdge(NodeId u, NodeId v) const {
  const std::span<const NodeId> nbrs = Neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

void OverlayGraph::RemoveEdge(NodeId u, NodeId v) {
  uint64_t key = Key(u, v);
  if (added_.erase(key) == 0) removed_.insert(key);
  for (NodeId x : {u, v}) {
    auto it = nodes_.find(x);
    if (it != nodes_.end()) SetEdge(it->second, x == u ? v : u, false);
  }
}

void OverlayGraph::AddEdge(NodeId u, NodeId v) {
  if (u == v) return;
  // No-op when the edge is already present in a registered endpoint's view;
  // otherwise a spurious `added_` record would corrupt DegreeDeltas().
  for (NodeId x : {u, v}) {
    if (!IsRegistered(x)) continue;
    if (HasEdge(x, x == u ? v : u)) return;
    break;
  }
  uint64_t key = Key(u, v);
  if (removed_.erase(key) == 0) added_.insert(key);
  for (NodeId x : {u, v}) {
    auto it = nodes_.find(x);
    if (it != nodes_.end()) SetEdge(it->second, x == u ? v : u, true);
  }
}

void OverlayGraph::MarkProcessed(NodeId u, NodeId v) {
  processed_.insert(Key(u, v));
}

bool OverlayGraph::IsProcessed(NodeId u, NodeId v) const {
  return processed_.count(Key(u, v)) != 0;
}

bool OverlayGraph::PathExistsAvoiding(NodeId u, NodeId v,
                                      size_t max_visits) const {
  if (!IsRegistered(u)) return false;
  // Fast path: a shared overlay neighbor is a length-2 detour.
  if (IsRegistered(v) && CountCommon(Neighbors(u), Neighbors(v)) > 0) {
    return true;
  }
  std::unordered_set<NodeId> seen{u};
  std::vector<NodeId> frontier{u};
  std::vector<NodeId> next;
  while (!frontier.empty() && seen.size() < max_visits) {
    next.clear();
    for (NodeId x : frontier) {
      if (!IsRegistered(x)) continue;  // reachable but not expandable
      for (NodeId y : Neighbors(x)) {
        if ((x == u && y == v) || (x == v && y == u)) continue;  // the edge
        if (y == v) return true;
        if (seen.insert(y).second) {
          next.push_back(y);
          if (seen.size() >= max_visits) return false;
        }
      }
    }
    frontier.swap(next);
  }
  return false;
}

std::unordered_map<NodeId, int> OverlayGraph::DegreeDeltas() const {
  std::unordered_map<NodeId, int> delta;
  for (uint64_t key : removed_) {
    --delta[static_cast<NodeId>(key >> 32)];
    --delta[static_cast<NodeId>(key & 0xFFFFFFFFu)];
  }
  for (uint64_t key : added_) {
    ++delta[static_cast<NodeId>(key >> 32)];
    ++delta[static_cast<NodeId>(key & 0xFFFFFFFFu)];
  }
  return delta;
}

OverlayGraph::Delta OverlayGraph::SnapshotDelta() const {
  Delta delta;
  delta.registered.reserve(nodes_.size());
  for (const auto& [v, _] : nodes_) delta.registered.push_back(v);
  delta.removed.assign(removed_.begin(), removed_.end());
  delta.added.assign(added_.begin(), added_.end());
  delta.processed.assign(processed_.begin(), processed_.end());
  std::sort(delta.registered.begin(), delta.registered.end());
  std::sort(delta.removed.begin(), delta.removed.end());
  std::sort(delta.added.begin(), delta.added.end());
  std::sort(delta.processed.begin(), delta.processed.end());
  return delta;
}

void OverlayGraph::RestoreDelta(
    const Delta& delta,
    const std::function<std::span<const NodeId>(NodeId)>& neighbors_of) {
  nodes_.clear();
  removed_ = {delta.removed.begin(), delta.removed.end()};
  added_ = {delta.added.begin(), delta.added.end()};
  processed_ = {delta.processed.begin(), delta.processed.end()};
  for (NodeId v : delta.registered) RegisterNode(v, neighbors_of(v));
}

Graph OverlayGraph::InducedOverlay(std::vector<NodeId>* mapping) const {
  std::vector<NodeId> nodes;
  nodes.reserve(nodes_.size());
  for (const auto& [v, _] : nodes_) nodes.push_back(v);
  std::sort(nodes.begin(), nodes.end());
  std::unordered_map<NodeId, NodeId> relabel;
  for (NodeId i = 0; i < nodes.size(); ++i) relabel[nodes[i]] = i;
  std::vector<Edge> edges;
  for (NodeId u : nodes) {
    for (NodeId w : nodes_.at(u).current()) {
      if (u < w && relabel.count(w) != 0) {
        edges.push_back({relabel[u], relabel[w]});
      }
    }
  }
  if (mapping != nullptr) *mapping = nodes;
  return Graph(static_cast<NodeId>(nodes.size()), edges);
}

}  // namespace mto
