#include "src/graph/builder.h"

#include <algorithm>
#include <numeric>
#include <span>

namespace mto {
namespace {

/// Arcs grouped by source: bucket `u` is targets[offsets[u], offsets[u+1]),
/// ascending and duplicate-free.
struct ArcBuckets {
  std::vector<size_t> offsets;  // num_nodes + 1 entries
  std::vector<NodeId> targets;

  std::span<const NodeId> operator[](NodeId u) const {
    return {targets.data() + offsets[u], targets.data() + offsets[u + 1]};
  }
};

/// Buckets every non-loop arc of `arcs`, after `orient`, by its `u`: one
/// counting pass and a prefix sum, one scatter of the `v`s, then a sort and
/// unique per bucket (buckets are degree-sized), compacted in place.
template <typename Orient>
ArcBuckets BucketArcs(const std::vector<Edge>& arcs, NodeId num_nodes,
                      Orient orient) {
  ArcBuckets b;
  b.offsets.assign(static_cast<size_t>(num_nodes) + 1, 0);
  for (const Edge& a : arcs) {
    if (a.u != a.v) ++b.offsets[orient(a).u + 1];
  }
  std::partial_sum(b.offsets.begin(), b.offsets.end(), b.offsets.begin());
  b.targets.resize(b.offsets[num_nodes]);
  // After the scatter offsets[u] is the end of bucket u.
  for (const Edge& a : arcs) {
    if (a.u == a.v) continue;
    const Edge o = orient(a);
    b.targets[b.offsets[o.u]++] = o.v;
  }
  size_t begin = 0;  // bucket u's start in the scatter
  size_t kept = 0;   // targets kept by buckets 0..u-1
  for (NodeId u = 0; u < num_nodes; ++u) {
    const auto first = b.targets.begin() + static_cast<ptrdiff_t>(begin);
    const auto last = b.targets.begin() + static_cast<ptrdiff_t>(b.offsets[u]);
    begin = b.offsets[u];
    std::sort(first, last);
    const auto unique_end = std::unique(first, last);
    const auto out = b.targets.begin() + static_cast<ptrdiff_t>(kept);
    if (out != first) std::move(first, unique_end, out);
    b.offsets[u] = kept;
    kept += static_cast<size_t>(unique_end - first);
  }
  b.offsets[num_nodes] = kept;
  b.targets.resize(kept);
  return b;
}

/// The edges (u, v), ascending, of every v in bucket u that `keep(buckets,
/// u, v)` accepts. The buckets are freed before the caller builds its Graph.
template <typename Orient, typename Keep>
std::vector<Edge> BucketedEdges(const std::vector<Edge>& arcs,
                                NodeId num_nodes, Orient orient, Keep keep) {
  const ArcBuckets b = BucketArcs(arcs, num_nodes, orient);
  std::vector<Edge> edges;
  edges.reserve(b.targets.size());
  for (NodeId u = 0; u < num_nodes; ++u) {
    for (NodeId v : b[u]) {
      if (keep(b, u, v)) edges.push_back({u, v});
    }
  }
  return edges;
}

}  // namespace

void GraphBuilder::ReserveNodes(NodeId n) {
  num_nodes_ = std::max(num_nodes_, n);
}

void GraphBuilder::AddEdge(NodeId u, NodeId v) {
  AddArc(u, v);
  AddArc(v, u);
}

void GraphBuilder::AddArc(NodeId from, NodeId to) {
  arcs_.push_back({from, to});
  num_nodes_ = std::max(num_nodes_, static_cast<NodeId>(std::max(from, to) + 1));
}

Graph GraphBuilder::Build() const {
  // Bucketed by the smaller endpoint, every edge appears once, ascending.
  return Graph(num_nodes_,
               BucketedEdges(arcs_, num_nodes_,
                             [](const Edge& a) { return a.Normalized(); },
                             [](const ArcBuckets&, NodeId, NodeId) {
                               return true;
                             }));
}

Graph GraphBuilder::BuildMutual() const {
  // An undirected edge survives iff both (u,v) and (v,u) are present.
  return Graph(num_nodes_,
               BucketedEdges(arcs_, num_nodes_, [](const Edge& a) { return a; },
                             [](const ArcBuckets& b, NodeId u, NodeId v) {
                               const auto back = b[v];
                               return u < v && std::binary_search(
                                                   back.begin(), back.end(), u);
                             }));
}

Graph LargestComponent(Graph g, std::vector<NodeId>* mapping) {
  const NodeId n = g.num_nodes();
  std::vector<NodeId> comp(n, kInvalidNode);
  NodeId num_comps = 0;
  std::vector<size_t> comp_size;
  std::vector<NodeId> stack;
  for (NodeId s = 0; s < n; ++s) {
    if (comp[s] != kInvalidNode) continue;
    comp[s] = num_comps;
    size_t size = 0;
    stack.push_back(s);
    while (!stack.empty()) {
      NodeId v = stack.back();
      stack.pop_back();
      ++size;
      for (NodeId w : g.Neighbors(v)) {
        if (comp[w] == kInvalidNode) {
          comp[w] = num_comps;
          stack.push_back(w);
        }
      }
    }
    comp_size.push_back(size);
    ++num_comps;
  }
  if (num_comps <= 1) {
    if (mapping != nullptr) {
      mapping->resize(n);
      std::iota(mapping->begin(), mapping->end(), NodeId{0});
    }
    return g;
  }
  NodeId best = 0;
  for (NodeId c = 1; c < num_comps; ++c) {
    if (comp_size[c] > comp_size[best]) best = c;
  }
  std::vector<NodeId> map(n, kInvalidNode);
  NodeId next = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (comp[v] == best) map[v] = next++;
  }
  // The relabelling keeps the order of ids, so the kept edges come out
  // ascending and duplicate-free, as Graph wants them.
  std::vector<Edge> edges;
  for (NodeId u = 0; u < n; ++u) {
    if (map[u] == kInvalidNode) continue;
    for (NodeId v : g.Neighbors(u)) {
      if (u < v) edges.push_back({map[u], map[v]});
    }
  }
  if (mapping != nullptr) *mapping = std::move(map);
  return Graph(next, edges);
}

}  // namespace mto
