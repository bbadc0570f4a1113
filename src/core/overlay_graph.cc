#include "src/core/overlay_graph.h"

#include <algorithm>
#include <stdexcept>

namespace mto {

uint64_t OverlayGraph::Key(NodeId u, NodeId v) {
  if (u > v) std::swap(u, v);
  return (static_cast<uint64_t>(u) << 32) | v;
}

const OverlayGraph::Node* OverlayGraph::FindNode(NodeId v) const {
  const uint32_t* index = nodes_.Find(v);
  return index == nullptr ? nullptr : &records_[*index];
}

void OverlayGraph::SetEdge(uint32_t index, NodeId w, bool present) {
  Node& node = records_[index];
  const std::span<const NodeId> nbrs = Current(node);
  if (std::binary_search(nbrs.begin(), nbrs.end(), w) == present) return;
  if (node.rewired == kNone) {
    node.rewired = static_cast<uint32_t>(rewired_.size());
    rewired_.emplace_back(nbrs.begin(), nbrs.end());
  }
  std::vector<NodeId>& list = rewired_[node.rewired];
  const auto pos = std::lower_bound(list.begin(), list.end(), w);
  if (present) {
    list.insert(pos, w);
  } else {
    list.erase(pos);
  }
}

void OverlayGraph::IndexMutation(NodeId x, NodeId partner) {
  const auto link = static_cast<uint32_t>(links_.size());
  const auto [head, inserted] = mutation_heads_.Insert(x, link);
  links_.push_back({partner, inserted ? kNone : *head});
  *head = link;
}

void OverlayGraph::Touch(NodeId x, NodeId partner, bool recorded,
                         bool present) {
  if (const uint32_t* index = nodes_.Find(x)) {
    SetEdge(*index, partner, present);
  } else if (recorded) {
    IndexMutation(x, partner);
  }
}

void OverlayGraph::RegisterNode(NodeId v, std::span<const NodeId> original) {
  const auto index = static_cast<uint32_t>(records_.size());
  if (!nodes_.Insert(v, index).second) return;
  records_.push_back(
      {original.data(), static_cast<uint32_t>(original.size()), kNone});
  // Apply the recorded removals and additions involving v: its mutation
  // chain names every partner, so an untouched node costs this one probe.
  const uint32_t* head = mutation_heads_.Find(v);
  if (head == nullptr) return;
  for (uint32_t link = *head; link != kNone; link = links_[link].next) {
    const NodeId w = links_[link].partner;
    const uint64_t key = Key(v, w);
    if (removed_.Contains(key)) {
      SetEdge(index, w, false);
    } else if (added_.Contains(key)) {
      SetEdge(index, w, true);
    }
  }
}

std::span<const NodeId> OverlayGraph::Neighbors(NodeId v) const {
  const Node* node = FindNode(v);
  if (node == nullptr) {
    throw std::logic_error("OverlayGraph::Neighbors: node not registered");
  }
  return Current(*node);
}

std::span<const NodeId> OverlayGraph::OriginalNeighbors(NodeId v) const {
  const Node* node = FindNode(v);
  if (node == nullptr) {
    throw std::logic_error("OverlayGraph::OriginalNeighbors: not registered");
  }
  return {node->original, node->degree};
}

bool OverlayGraph::HasEdge(NodeId u, NodeId v) const {
  const std::span<const NodeId> nbrs = Neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

void OverlayGraph::RemoveEdge(NodeId u, NodeId v) {
  const uint64_t key = Key(u, v);
  const bool recorded = !added_.Erase(key) && removed_.Insert(key).second;
  Touch(u, v, recorded, false);
  Touch(v, u, recorded, false);
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
  const uint64_t key = Key(u, v);
  const bool recorded = !removed_.Erase(key) && added_.Insert(key).second;
  Touch(u, v, recorded, true);
  Touch(v, u, recorded, true);
}

void OverlayGraph::MarkProcessed(NodeId u, NodeId v) {
  processed_.Insert(Key(u, v));
}

bool OverlayGraph::IsProcessed(NodeId u, NodeId v) const {
  return processed_.Contains(Key(u, v));
}

bool OverlayGraph::PathExistsAvoiding(NodeId u, NodeId v,
                                      size_t max_visits) const {
  const Node* source = FindNode(u);
  if (source == nullptr) return false;
  // Fast path: a shared overlay neighbor is a length-2 detour.
  if (const Node* target = FindNode(v);
      target != nullptr && CountCommon(Current(*source), Current(*target)) > 0) {
    return true;
  }
  FlatTable<NodeId, Unit> seen;
  seen.Insert(u);
  std::vector<NodeId> frontier{u};
  std::vector<NodeId> next;
  while (!frontier.empty() && seen.size() < max_visits) {
    next.clear();
    for (NodeId x : frontier) {
      const Node* node = FindNode(x);
      if (node == nullptr) continue;  // reachable but not expandable
      for (NodeId y : Current(*node)) {
        if ((x == u && y == v) || (x == v && y == u)) continue;  // the edge
        if (y == v) return true;
        if (seen.Insert(y).second) {
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
  removed_.ForEach([&delta](uint64_t key, Unit) {
    --delta[static_cast<NodeId>(key >> 32)];
    --delta[static_cast<NodeId>(key & 0xFFFFFFFFu)];
  });
  added_.ForEach([&delta](uint64_t key, Unit) {
    ++delta[static_cast<NodeId>(key >> 32)];
    ++delta[static_cast<NodeId>(key & 0xFFFFFFFFu)];
  });
  return delta;
}

OverlayGraph::Delta OverlayGraph::SnapshotDelta() const {
  Delta delta;
  delta.registered.reserve(nodes_.size());
  nodes_.ForEach([&delta](NodeId v, uint32_t) { delta.registered.push_back(v); });
  for (auto [set, keys] : {std::pair{&removed_, &delta.removed},
                           std::pair{&added_, &delta.added},
                           std::pair{&processed_, &delta.processed}}) {
    keys->reserve(set->size());
    set->ForEach([keys](uint64_t key, Unit) { keys->push_back(key); });
    std::sort(keys->begin(), keys->end());
  }
  std::sort(delta.registered.begin(), delta.registered.end());
  return delta;
}

void OverlayGraph::RestoreDelta(
    const Delta& delta,
    const std::function<std::span<const NodeId>(NodeId)>& neighbors_of) {
  *this = OverlayGraph();
  for (auto [keys, set] : {std::pair{&delta.removed, &removed_},
                           std::pair{&delta.added, &added_}}) {
    set->Reserve(keys->size());
    for (uint64_t key : *keys) {
      if (!set->Insert(key).second) continue;
      const auto a = static_cast<NodeId>(key >> 32);
      const auto b = static_cast<NodeId>(key & 0xFFFFFFFFu);
      IndexMutation(a, b);
      if (a != b) IndexMutation(b, a);
    }
  }
  processed_.Reserve(delta.processed.size());
  for (uint64_t key : delta.processed) processed_.Insert(key);
  nodes_.Reserve(delta.registered.size());
  records_.reserve(delta.registered.size());
  for (NodeId v : delta.registered) RegisterNode(v, neighbors_of(v));
}

Graph OverlayGraph::InducedOverlay(std::vector<NodeId>* mapping) const {
  std::vector<NodeId> nodes;
  nodes.reserve(nodes_.size());
  nodes_.ForEach([&nodes](NodeId v, uint32_t) { nodes.push_back(v); });
  std::sort(nodes.begin(), nodes.end());
  std::unordered_map<NodeId, NodeId> relabel;
  for (NodeId i = 0; i < nodes.size(); ++i) relabel[nodes[i]] = i;
  std::vector<Edge> edges;
  for (NodeId u : nodes) {
    for (NodeId w : Current(*FindNode(u))) {
      if (u < w && relabel.count(w) != 0) {
        edges.push_back({relabel[u], relabel[w]});
      }
    }
  }
  if (mapping != nullptr) *mapping = nodes;
  return Graph(static_cast<NodeId>(nodes.size()), edges);
}

}  // namespace mto
