// Performance microbenchmarks (google-benchmark): raw throughput of the
// pieces the experiments are built on. These are about implementation speed,
// not query cost — the paper's metric is measured by the fig benches.

#include <benchmark/benchmark.h>

#include <span>

#include "src/core/edge_rules.h"
#include "src/core/full_overlay.h"
#include "src/core/mto_sampler.h"
#include "src/core/overlay_graph.h"
#include "src/graph/builder.h"
#include "src/graph/datasets.h"
#include "src/graph/generators.h"
#include "src/net/restricted_interface.h"
#include "src/spectral/conductance.h"
#include "src/spectral/eigen.h"
#include "src/walk/mhrw.h"
#include "src/walk/srw.h"

namespace {

using namespace mto;

const SocialNetwork& BenchNetwork() {
  static const SocialNetwork* net =
      new SocialNetwork(MakeDataset("slashdot_b_small"));
  return *net;
}

void BM_SrwSteps(benchmark::State& state) {
  const SocialNetwork& net = BenchNetwork();
  RestrictedInterface iface(net);
  Rng rng(1);
  SimpleRandomWalk walk(iface, rng, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(walk.Step());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SrwSteps);

void BM_MhrwSteps(benchmark::State& state) {
  const SocialNetwork& net = BenchNetwork();
  RestrictedInterface iface(net);
  Rng rng(2);
  MetropolisHastingsWalk walk(iface, rng, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(walk.Step());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MhrwSteps);

void BM_MtoSteps(benchmark::State& state) {
  const SocialNetwork& net = BenchNetwork();
  RestrictedInterface iface(net);
  Rng rng(3);
  MtoSampler walk(iface, rng, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(walk.Step());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MtoSteps);

/// RegisterNode of every node of the bench network, in id order, into a
/// fresh overlay: the table insert, the 16-byte record and the one
/// mutation-index probe an untouched node costs.
void BM_OverlayRegister(benchmark::State& state) {
  const Graph& g = BenchNetwork().graph();
  for (auto _ : state) {
    OverlayGraph overlay;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      overlay.RegisterNode(v, g.Neighbors(v));
    }
    benchmark::DoNotOptimize(overlay.num_registered());
  }
  state.SetItemsProcessed(state.iterations() * g.num_nodes());
}
BENCHMARK(BM_OverlayRegister);

/// One Neighbors and one IsProcessed hit per item on a populated overlay:
/// every node registered and every edge classified, as late in a burn-in.
void BM_OverlayLookup(benchmark::State& state) {
  const Graph& g = BenchNetwork().graph();
  OverlayGraph overlay;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    overlay.RegisterNode(v, g.Neighbors(v));
    for (NodeId w : g.Neighbors(v)) overlay.MarkProcessed(v, w);
  }
  NodeId v = 0;
  for (auto _ : state) {
    const std::span<const NodeId> nbrs = overlay.Neighbors(v);
    const NodeId w = nbrs.empty() ? v : nbrs[nbrs.size() / 2];
    benchmark::DoNotOptimize(overlay.IsProcessed(v, w));
    v = (v + 1) % g.num_nodes();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OverlayLookup);

void BM_RemovalCriterion(benchmark::State& state) {
  uint32_t c = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(RemovalCriterion(c % 16, 8 + c % 7, 9));
    ++c;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RemovalCriterion);

void BM_CommonNeighborCount(benchmark::State& state) {
  const Graph& g = BenchNetwork().graph();
  NodeId u = 0;
  for (auto _ : state) {
    NodeId v = g.Neighbors(u)[0];
    benchmark::DoNotOptimize(g.CommonNeighborCount(u, v));
    u = (u + 1) % g.num_nodes();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CommonNeighborCount);

void BM_GenerateHolmeKim(benchmark::State& state) {
  const NodeId n = static_cast<NodeId>(state.range(0));
  uint64_t seed = 1;
  for (auto _ : state) {
    Rng rng(seed++);
    Graph g = HolmeKim(n, 4, 0.6, rng);
    benchmark::DoNotOptimize(g.num_edges());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_GenerateHolmeKim)->Arg(1000)->Arg(10000);

void BM_ExactConductance(benchmark::State& state) {
  Graph g = Barbell(static_cast<NodeId>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExactConductance(g));
  }
}
BENCHMARK(BM_ExactConductance)->Arg(8)->Arg(11);

void BM_Slem(benchmark::State& state) {
  Rng rng(7);
  Graph g = HolmeKim(static_cast<NodeId>(state.range(0)), 4, 0.5, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Slem(g, {.laziness = 0.5}));
  }
}
BENCHMARK(BM_Slem)->Arg(200)->Arg(1000);

void BM_FullOverlay(benchmark::State& state) {
  Rng grng(8);
  Graph g = LargestComponent(HolmeKim(static_cast<NodeId>(state.range(0)),
                                      3, 0.6, grng));
  uint64_t seed = 0;
  for (auto _ : state) {
    Rng rng(seed++);
    benchmark::DoNotOptimize(BuildFullOverlay(g, MtoConfig{}, rng).overlay
                                 .num_edges());
  }
}
BENCHMARK(BM_FullOverlay)->Arg(500);

}  // namespace

BENCHMARK_MAIN();
