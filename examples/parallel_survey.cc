// Parallel survey: the Section VI extension in action, on the concurrent
// crawl runtime. Eight MTO walkers are sharded across four threads by a
// CrawlScheduler; they share one thread-safe API session
// (ConcurrentInterfaceCache: merged cache, shared budget, in-flight
// dedupe) against a simulated API with 150us per round trip, overlapping
// their round trips across threads. Each round every walker peeks the
// overlay pick its step will open with (Sampler::PeekStep), the scheduler
// coalesces the deduplicated frontier into bulk requests, and every walker
// then takes its plain Step() against the warm cache, re-picking
// individually wherever rewiring invalidated the peek — see
// bench_runtime_throughput for the measured hit rate and uplift.
// Convergence is certified across chains with the Gelman–Rubin
// diagnostic instead of a single long burn-in, and the network size —
// which this example pretends the provider does NOT publish — is
// recovered from sample collisions (Katzir et al., the paper's [12]).
// With |V|^ in hand, AVG estimates turn into COUNT estimates.
//
// Build & run:   ./build/examples/parallel_survey

#include <chrono>
#include <iostream>
#include <memory>

#include "src/core/mto_sampler.h"
#include "src/estimate/estimators.h"
#include "src/estimate/size_estimator.h"
#include "src/graph/datasets.h"
#include "src/mcmc/diagnostics.h"
#include "src/net/restricted_interface.h"
#include "src/runtime/concurrent_interface_cache.h"
#include "src/runtime/crawl_scheduler.h"
#include "src/util/table.h"

int main() {
  using namespace mto;
  SocialNetwork network = SocialNetwork::WithSyntheticProfiles(
      MakeDataset("epinions_small"), /*seed=*/5);
  RestrictedInterface api(network);
  api.SetSimulatedLatency(std::chrono::microseconds(150));
  api.SetMaxBatchSize(32);
  ConcurrentInterfaceCache session(api);

  const size_t kWalkers = 8;
  CrawlConfig crawl;
  crawl.num_walkers = kWalkers;
  crawl.num_threads = 4;
  // MTO steps speculatively, so the frontier coalesces into bulk requests;
  // results are bit-identical to free-running (the runtime contract).
  crawl.coalesce_frontier = true;
  CrawlScheduler pool(session, crawl, /*seed=*/17,
                      [&](RestrictedInterface& iface, Rng& rng, size_t) {
                        return std::make_unique<MtoSampler>(
                            iface, rng,
                            static_cast<NodeId>(
                                rng.UniformInt(iface.num_users())));
                      });

  // Burn in until the chains agree (R-hat <= 1.1) instead of trusting any
  // single chain's Geweke statistic. The scheduler hands back one
  // diagnostic value per walker per round, in walker order.
  const auto t0 = std::chrono::steady_clock::now();
  MultiChainMonitor monitor(kWalkers, 1.1, 100, 25);
  std::vector<double> diagnostics;
  size_t rounds = 0;
  while (!monitor.Converged() && rounds < 5000) {
    diagnostics.clear();
    pool.RunRounds(25, &diagnostics);
    for (size_t r = 0; r < 25; ++r) {
      for (size_t c = 0; c < kWalkers; ++c) {
        monitor.Add(c, diagnostics[r * kWalkers + c]);
      }
    }
    rounds += 25;
  }
  std::cout << "burn-in: " << rounds << " rounds x " << kWalkers
            << " walkers on " << crawl.num_threads << " threads, R-hat "
            << monitor.last_rhat() << ", " << session.QueryCost()
            << " unique queries in " << session.BackendRequests()
            << " backend trips\n";

  // Freeze every overlay, then survey.
  for (size_t c = 0; c < pool.size(); ++c) {
    if (auto* mto = dynamic_cast<MtoSampler*>(&pool.walker(c))) {
      mto->FreezeTopology();
    }
  }
  RunningImportanceMean avg_age, active_fraction;
  SizeEstimator size;
  for (int i = 0; i < 350; ++i) {
    for (size_t c = 0; c < pool.size(); ++c) {
      Sampler& w = pool.walker(c);
      double weight = w.ImportanceWeight();
      avg_age.Add(w.CurrentProfile().age, weight);
      active_fraction.Add(w.CurrentProfile().num_posts >= 50 ? 1.0 : 0.0,
                          weight);
      if (w.CurrentDegree() > 0) size.Add(w.current(), w.CurrentDegree());
    }
    pool.RunRounds(6);
  }
  const auto t1 = std::chrono::steady_clock::now();

  const double n_hat = size.Ready() ? size.Estimate() : 0.0;
  PrintBanner(std::cout, "Survey results");
  Table table({"quantity", "estimated", "true"});
  table.AddRow({"network size (collision estimator)", Table::Num(n_hat, 0),
                std::to_string(network.num_users())});
  table.AddRow({"average age", Table::Num(avg_age.Estimate(), 2),
                Table::Num(network.TrueAverageAge(), 2)});
  double true_active = 0;
  for (NodeId v = 0; v < network.num_users(); ++v) {
    if (network.profile(v).num_posts >= 50) ++true_active;
  }
  table.AddRow({"# users with 50+ posts (via |V|^)",
                Table::Num(SumFromMean(active_fraction.Estimate(),
                                       static_cast<size_t>(n_hat)), 0),
                Table::Num(true_active, 0)});
  table.PrintText(std::cout);
  std::cout << "\ntotal unique queries: " << session.QueryCost() << " of "
            << network.num_users() << " users ("
            << session.BackendRequests() << " backend trips, "
            << pool.total_steps() << " walker steps, "
            << std::chrono::duration<double>(t1 - t0).count()
            << " s crawl)\n";
  return 0;
}
