#include "src/graph/generators.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_set>

#include "src/graph/builder.h"

namespace mto {
namespace {

/// Hash for normalized edges, used by generators that must avoid duplicates.
struct EdgeKeyHash {
  size_t operator()(uint64_t key) const {
    key ^= key >> 33;
    key *= 0xFF51AFD7ED558CCDULL;
    key ^= key >> 33;
    return static_cast<size_t>(key);
  }
};

uint64_t EdgeKey(NodeId u, NodeId v) {
  if (u > v) std::swap(u, v);
  return (static_cast<uint64_t>(u) << 32) | v;
}

}  // namespace

Graph Barbell(NodeId clique_size) {
  if (clique_size < 2) throw std::invalid_argument("Barbell: clique_size < 2");
  GraphBuilder builder;
  auto add_clique = [&](NodeId base) {
    for (NodeId i = 0; i < clique_size; ++i) {
      for (NodeId j = i + 1; j < clique_size; ++j) {
        builder.AddEdge(base + i, base + j);
      }
    }
  };
  add_clique(0);
  add_clique(clique_size);
  // Bridge between the last node of the left clique and the first node of
  // the right clique (the paper's u and v).
  builder.AddEdge(clique_size - 1, clique_size);
  return builder.Build();
}

Graph Complete(NodeId n) {
  GraphBuilder builder;
  builder.ReserveNodes(n);
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) builder.AddEdge(i, j);
  }
  return builder.Build();
}

Graph Star(NodeId n) {
  if (n < 1) throw std::invalid_argument("Star: n < 1");
  GraphBuilder builder;
  builder.ReserveNodes(n);
  for (NodeId i = 1; i < n; ++i) builder.AddEdge(0, i);
  return builder.Build();
}

Graph Path(NodeId n) {
  GraphBuilder builder;
  builder.ReserveNodes(n);
  for (NodeId i = 0; i + 1 < n; ++i) builder.AddEdge(i, i + 1);
  return builder.Build();
}

Graph Cycle(NodeId n) {
  if (n < 3) throw std::invalid_argument("Cycle: n < 3");
  GraphBuilder builder;
  for (NodeId i = 0; i < n; ++i) builder.AddEdge(i, (i + 1) % n);
  return builder.Build();
}

Graph Grid(NodeId rows, NodeId cols) {
  if (rows == 0 || cols == 0) throw std::invalid_argument("Grid: empty");
  GraphBuilder builder;
  builder.ReserveNodes(rows * cols);
  auto id = [cols](NodeId r, NodeId c) { return r * cols + c; };
  for (NodeId r = 0; r < rows; ++r) {
    for (NodeId c = 0; c < cols; ++c) {
      if (c + 1 < cols) builder.AddEdge(id(r, c), id(r, c + 1));
      if (r + 1 < rows) builder.AddEdge(id(r, c), id(r + 1, c));
    }
  }
  return builder.Build();
}

Graph ErdosRenyi(NodeId n, double p, Rng& rng) {
  if (p < 0.0 || p > 1.0) throw std::invalid_argument("ErdosRenyi: bad p");
  GraphBuilder builder;
  builder.ReserveNodes(n);
  if (p > 0.0) {
    // Geometric skipping over the C(n,2) potential edges: O(m) expected.
    uint64_t total = static_cast<uint64_t>(n) * (n - 1) / 2;
    uint64_t idx = (p >= 1.0) ? 0 : rng.Geometric(p);
    auto unrank = [n](uint64_t k, NodeId& u, NodeId& v) {
      // Row-major unranking of the upper triangle.
      uint64_t row = 0;
      uint64_t remaining = k;
      uint64_t row_len = n - 1;
      while (remaining >= row_len) {
        remaining -= row_len;
        ++row;
        --row_len;
      }
      u = static_cast<NodeId>(row);
      v = static_cast<NodeId>(row + 1 + remaining);
    };
    while (idx < total) {
      NodeId u, v;
      unrank(idx, u, v);
      builder.AddEdge(u, v);
      idx += 1 + (p >= 1.0 ? 0 : rng.Geometric(p));
    }
  }
  return builder.Build();
}

Graph ErdosRenyiM(NodeId n, size_t m, Rng& rng) {
  uint64_t total = static_cast<uint64_t>(n) * (n - 1) / 2;
  if (m > total) throw std::invalid_argument("ErdosRenyiM: m too large");
  std::unordered_set<uint64_t, EdgeKeyHash> chosen;
  GraphBuilder builder;
  builder.ReserveNodes(n);
  while (chosen.size() < m) {
    NodeId u = static_cast<NodeId>(rng.UniformInt(n));
    NodeId v = static_cast<NodeId>(rng.UniformInt(n));
    if (u == v) continue;
    if (chosen.insert(EdgeKey(u, v)).second) builder.AddEdge(u, v);
  }
  return builder.Build();
}

Graph BarabasiAlbert(NodeId n, uint32_t m, Rng& rng) {
  return HolmeKim(n, m, 0.0, rng);
}

Graph HolmeKim(NodeId n, uint32_t m, double triad_p, Rng& rng) {
  if (m < 1 || m >= n) throw std::invalid_argument("HolmeKim: need 1 <= m < n");
  if (triad_p < 0.0 || triad_p > 1.0) {
    throw std::invalid_argument("HolmeKim: bad triad_p");
  }
  GraphBuilder builder;
  builder.ReserveNodes(n);
  // `ends` holds one entry per edge endpoint; sampling a uniform element is
  // sampling proportional to degree. `adjacency` supports the triad step
  // (uniform neighbor of the previous target).
  std::vector<NodeId> ends;
  std::vector<std::vector<NodeId>> adjacency(n);
  auto add_edge = [&](NodeId u, NodeId v) {
    builder.AddEdge(u, v);
    ends.push_back(u);
    ends.push_back(v);
    adjacency[u].push_back(v);
    adjacency[v].push_back(u);
  };
  NodeId seed = m + 1;
  for (NodeId i = 0; i < seed; ++i) {
    for (NodeId j = i + 1; j < seed; ++j) add_edge(i, j);
  }
  std::vector<NodeId> targets;
  for (NodeId v = seed; v < n; ++v) {
    targets.clear();
    NodeId prev_target = kInvalidNode;
    while (targets.size() < m) {
      NodeId t = kInvalidNode;
      if (prev_target != kInvalidNode && rng.Bernoulli(triad_p)) {
        // Triad step (Holme–Kim): connect to a uniform neighbor of the
        // previous target, closing a triangle v - prev_target - t.
        const auto& nbrs = adjacency[prev_target];
        t = nbrs[static_cast<size_t>(rng.UniformInt(nbrs.size()))];
      }
      if (t == kInvalidNode) {
        t = ends[static_cast<size_t>(rng.UniformInt(ends.size()))];
      }
      // v's only edges so far are this iteration's targets, so (v, t)
      // already exists iff t is one of them.
      if (t == v ||
          std::find(targets.begin(), targets.end(), t) != targets.end()) {
        // Collision: fall back to a fresh preferential pick next loop.
        prev_target = kInvalidNode;
        continue;
      }
      targets.push_back(t);
      prev_target = t;
    }
    for (NodeId t : targets) {
      ends.push_back(v);
      ends.push_back(t);
      adjacency[v].push_back(t);
      adjacency[t].push_back(v);
      builder.AddEdge(v, t);
    }
  }
  return builder.Build();
}

Graph WattsStrogatz(NodeId n, uint32_t k, double beta, Rng& rng) {
  if (n <= 2 * k) throw std::invalid_argument("WattsStrogatz: need n > 2k");
  if (k < 1) throw std::invalid_argument("WattsStrogatz: k < 1");
  std::unordered_set<uint64_t, EdgeKeyHash> edges;
  for (NodeId i = 0; i < n; ++i) {
    for (uint32_t j = 1; j <= k; ++j) {
      edges.insert(EdgeKey(i, (i + j) % n));
    }
  }
  // Rewire each lattice edge's far endpoint with probability beta.
  std::vector<uint64_t> keys(edges.begin(), edges.end());
  std::sort(keys.begin(), keys.end());  // deterministic iteration order
  for (uint64_t key : keys) {
    if (!rng.Bernoulli(beta)) continue;
    NodeId u = static_cast<NodeId>(key >> 32);
    NodeId v = static_cast<NodeId>(key & 0xFFFFFFFFu);
    for (int attempts = 0; attempts < 64; ++attempts) {
      NodeId w = static_cast<NodeId>(rng.UniformInt(n));
      if (w == u || w == v || edges.count(EdgeKey(u, w)) != 0) continue;
      edges.erase(key);
      edges.insert(EdgeKey(u, w));
      break;
    }
  }
  GraphBuilder builder;
  builder.ReserveNodes(n);
  for (uint64_t key : edges) {
    builder.AddEdge(static_cast<NodeId>(key >> 32),
                    static_cast<NodeId>(key & 0xFFFFFFFFu));
  }
  return builder.Build();
}

Graph StochasticBlockModel(const std::vector<NodeId>& block_sizes, double p_in,
                           double p_out, Rng& rng) {
  NodeId n = 0;
  for (NodeId s : block_sizes) n += s;
  std::vector<uint32_t> block_of(n);
  NodeId base = 0;
  for (uint32_t b = 0; b < block_sizes.size(); ++b) {
    for (NodeId i = 0; i < block_sizes[b]; ++i) block_of[base + i] = b;
    base += block_sizes[b];
  }
  GraphBuilder builder;
  builder.ReserveNodes(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      double p = block_of[u] == block_of[v] ? p_in : p_out;
      if (rng.Bernoulli(p)) builder.AddEdge(u, v);
    }
  }
  return builder.Build();
}

LatentSpaceGraph LatentSpace(const LatentSpaceParams& params, Rng& rng) {
  LatentSpaceGraph out;
  out.x.resize(params.n);
  out.y.resize(params.n);
  for (NodeId i = 0; i < params.n; ++i) {
    out.x[i] = rng.UniformDouble(0.0, params.a);
    out.y[i] = rng.UniformDouble(0.0, params.b);
  }
  GraphBuilder builder;
  builder.ReserveNodes(params.n);
  const bool hard = std::isinf(params.alpha);
  for (NodeId i = 0; i < params.n; ++i) {
    for (NodeId j = i + 1; j < params.n; ++j) {
      double dx = out.x[i] - out.x[j];
      double dy = out.y[i] - out.y[j];
      double d = std::sqrt(dx * dx + dy * dy);
      double p = hard ? (d < params.r ? 1.0 : 0.0)
                      : 1.0 / (1.0 + std::exp(params.alpha * (d - params.r)));
      if (rng.Bernoulli(p)) builder.AddEdge(i, j);
    }
  }
  out.graph = builder.Build();
  return out;
}

Graph CommunityPowerlaw(const CommunityPowerlawParams& params, Rng& rng) {
  if (params.communities == 0) {
    throw std::invalid_argument("CommunityPowerlaw: zero communities");
  }
  if (params.periphery < 0.0 || params.periphery >= 1.0) {
    throw std::invalid_argument("CommunityPowerlaw: periphery in [0,1)");
  }
  if (params.clique_min < 3 || params.clique_max < params.clique_min) {
    throw std::invalid_argument("CommunityPowerlaw: bad clique size range");
  }
  // Power-law-ish community sizes: size_i proportional to 1 / (i + 1),
  // normalized to sum to n, with a floor that keeps Holme-Kim valid and
  // leaves room for at least one micro-clique.
  const uint32_t c = params.communities;
  std::vector<double> raw(c);
  double sum = 0.0;
  for (uint32_t i = 0; i < c; ++i) {
    raw[i] = 1.0 / static_cast<double>(i + 1);
    sum += raw[i];
  }
  const NodeId floor_size = params.m + 2 + params.clique_max;
  std::vector<NodeId> sizes(c);
  NodeId assigned = 0;
  for (uint32_t i = 0; i < c; ++i) {
    NodeId s = static_cast<NodeId>(raw[i] / sum * params.n);
    s = std::max(s, floor_size);
    sizes[i] = s;
    assigned += s;
  }
  if (assigned < params.n) sizes[0] += params.n - assigned;

  // Odd clique sizes fire Theorem 3 at the boundary: K_s edges satisfy the
  // criterion for odd s even with one external link per endpoint.
  auto random_clique_size = [&]() -> uint32_t {
    uint32_t lo = params.clique_min | 1u;
    uint32_t hi = params.clique_max;
    if (hi < lo) hi = lo;
    uint32_t odd_count = (hi - lo) / 2 + 1;
    return lo + 2 * static_cast<uint32_t>(rng.UniformInt(odd_count));
  };

  if (params.m_spread < 0.0 || params.m_spread > 1.0) {
    throw std::invalid_argument("CommunityPowerlaw: m_spread in [0,1]");
  }
  GraphBuilder builder;
  NodeId base = 0;
  size_t in_edges = 0;
  std::vector<std::pair<NodeId, NodeId>> core_ranges(c);  // [begin, end)
  for (uint32_t i = 0; i < c; ++i) {
    const NodeId size = sizes[i];
    // Per-community hub density (see m_spread above).
    const double mean_m = static_cast<double>(params.m);
    uint32_t community_m = static_cast<uint32_t>(rng.UniformDouble(
        mean_m * (1.0 - params.m_spread), mean_m * (1.0 + params.m_spread)));
    community_m = std::max(community_m, 2u);
    NodeId core_size = static_cast<NodeId>(
        static_cast<double>(size) * (1.0 - params.periphery));
    core_size = std::max(core_size, static_cast<NodeId>(community_m + 2));
    core_size = std::min(core_size, size);
    core_ranges[i] = {base, base + core_size};
    Graph core = HolmeKim(core_size, community_m, params.triad_p, rng);
    for (const Edge& e : core.Edges()) {
      builder.AddEdge(base + e.u, base + e.v);
    }
    in_edges += core.num_edges();
    // Carve the remaining nodes into micro-cliques.
    NodeId next = base + core_size;
    const NodeId end = base + size;
    while (next < end) {
      uint32_t s = random_clique_size();
      if (next + s > end) s = static_cast<uint32_t>(end - next);
      if (s == 0) break;
      for (uint32_t a = 0; a < s; ++a) {
        for (uint32_t b = a + 1; b < s; ++b) {
          builder.AddEdge(next + a, next + b);
          ++in_edges;
        }
      }
      // One mandatory anchor into the core, extras with small probability —
      // low external degree is what keeps the clique edges removable.
      for (uint32_t a = 0; a < s; ++a) {
        bool anchor = (a == 0) || rng.Bernoulli(params.extra_link_p);
        if (anchor) {
          NodeId core_node =
              base + static_cast<NodeId>(rng.UniformInt(core_size));
          builder.AddEdge(next + a, core_node);
          ++in_edges;
        }
      }
      next += s;
    }
    base += size;
  }
  // Sparse inter-community core-core edges.
  size_t cross = static_cast<size_t>(
      params.cross_fraction * static_cast<double>(in_edges));
  cross = std::max<size_t>(cross, c);  // keep the graph connectable
  for (size_t e = 0; e < cross; ++e) {
    uint32_t bi = static_cast<uint32_t>(rng.UniformInt(c));
    uint32_t bj = static_cast<uint32_t>(rng.UniformInt(c));
    if (bi == bj) bj = (bj + 1) % c;
    auto pick_core = [&](uint32_t block) {
      auto [lo, hi] = core_ranges[block];
      return lo + static_cast<NodeId>(rng.UniformInt(hi - lo));
    };
    builder.AddEdge(pick_core(bi), pick_core(bj));
  }
  // Free the arcs before the component pass builds its own copy: that pass
  // is the memory peak of building a dataset.
  const Graph graph = builder.Build();
  builder = GraphBuilder();
  return LargestComponent(graph);
}

}  // namespace mto
