// Crawl-runtime throughput: walkers x threads x batch-size sweep over the
// concurrent scheduler (src/runtime), against the single-threaded
// round-robin pool (walk/ParallelWalkers) as baseline.
//
// Two regimes, two tables:
//  * CPU-bound (zero latency): free-running sharded walkers; the metric is
//    raw steps/sec. Unique-query cost must match the baseline exactly —
//    parallelism and caching change speed, never the paper's cost measure.
//  * Latency-bound (simulated per-request RTT): every backend round trip
//    sleeps; threads overlap RTTs and frontier coalescing amortizes them
//    over bulk requests, so speedups appear even on a single core. This is
//    the regime real crawls live in.
//
// --json=PATH writes every row as a JSON array for CI artifact tracking.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_flags.h"
#include "src/core/mto_sampler.h"
#include "src/graph/datasets.h"
#include "src/net/restricted_interface.h"
#include "src/obs/exporter.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/runtime/concurrent_interface_cache.h"
#include "src/runtime/crawl_scheduler.h"
#include "src/service/backend_pool.h"
#include "src/util/table.h"
#include "src/walk/parallel_walkers.h"
#include "src/walk/srw.h"
#include "src/walk/walk_program.h"

namespace {

using namespace mto;

constexpr uint64_t kSeed = 0xC0FFEE;

/// Observability attached to a scheduler run: off, counters only, counters
/// + span tracing, or counters + a live HTTP exporter being scraped while
/// the crawl runs. The ablation section sweeps all four; the MTO rows use
/// kMetrics so speculation accounting comes from the registry instead of
/// hand-threaded walker casts.
enum class ObsMode { kOff, kMetrics, kTrace, kExporter };

/// One GET /metrics against the local exporter, response drained and
/// discarded — the client half of the kExporter ablation.
void ScrapeOnce(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    const char req[] =
        "GET /metrics HTTP/1.1\r\nHost: l\r\nConnection: close\r\n\r\n";
    (void)!::send(fd, req, sizeof(req) - 1, MSG_NOSIGNAL);
    char buf[4096];
    while (::recv(fd, buf, sizeof(buf), 0) > 0) {
    }
  }
  ::close(fd);
}

struct Row {
  std::string section;
  std::string mode;
  size_t walkers = 0;
  size_t threads = 0;
  size_t batch = 0;
  size_t rounds = 0;
  double wall_ms = 0.0;
  double steps_per_sec = 0.0;
  uint64_t unique_queries = 0;
  uint64_t backend_requests = 0;
  double spec_hit_rate = -1.0;  ///< MTO speculation hit rate; -1 when N/A
  std::vector<NodeId> positions;
};

std::unique_ptr<Sampler> MakeWalker(RestrictedInterface& iface, Rng& rng,
                                    size_t i) {
  return std::make_unique<SimpleRandomWalk>(
      iface, rng, static_cast<NodeId>(i % iface.num_users()));
}

std::unique_ptr<Sampler> MakeMtoWalker(RestrictedInterface& iface, Rng& rng,
                                       size_t i) {
  return std::make_unique<MtoSampler>(
      iface, rng, static_cast<NodeId>(i % iface.num_users()));
}

/// Registry-driven factory for the per-program section; node2vec runs with
/// the customary non-trivial bias (p=0.5, q=2) so the second-order weighing
/// path is actually on the clock.
CrawlScheduler::WalkerFactory ProgramFactory(const std::string& program) {
  return [program](RestrictedInterface& iface, Rng& rng, size_t i) {
    WalkProgramParams params;
    if (program == "node2vec") {
      params.p = 0.5;
      params.q = 2.0;
    }
    return GetWalkProgram(program).MakeWalker(
        iface, rng, static_cast<NodeId>(i % iface.num_users()), params);
  };
}

/// Single-threaded round-robin baseline: the pre-runtime execution model.
Row RunBaseline(const SocialNetwork& net, size_t walkers, size_t rounds,
                std::chrono::microseconds latency) {
  RestrictedInterface iface(net);
  iface.SetSimulatedLatency(latency);
  Rng parent(kSeed);
  std::vector<std::unique_ptr<Rng>> rngs;
  std::vector<std::unique_ptr<Sampler>> pool_walkers;
  for (size_t i = 0; i < walkers; ++i) {
    rngs.push_back(std::make_unique<Rng>(parent.Fork(i)));
    pool_walkers.push_back(MakeWalker(iface, *rngs.back(), i));
  }
  ParallelWalkers pool(std::move(pool_walkers));
  const auto start = std::chrono::steady_clock::now();
  for (size_t r = 0; r < rounds; ++r) pool.StepAll();
  const auto end = std::chrono::steady_clock::now();

  Row row;
  row.section = latency.count() > 0 ? "latency-bound" : "cpu-bound";
  row.mode = "round-robin";
  row.walkers = walkers;
  row.threads = 1;
  row.batch = 1;
  row.rounds = rounds;
  row.wall_ms =
      std::chrono::duration<double, std::milli>(end - start).count();
  row.steps_per_sec =
      static_cast<double>(walkers * rounds) / (row.wall_ms / 1000.0);
  row.unique_queries = iface.QueryCost();
  row.backend_requests = iface.BackendRequests();
  row.positions = pool.Positions();
  return row;
}

Row RunScheduler(const SocialNetwork& net, size_t walkers, size_t threads,
                 size_t rounds, std::chrono::microseconds latency,
                 size_t batch,
                 const CrawlScheduler::WalkerFactory& factory = MakeWalker,
                 const char* mode_override = nullptr,
                 ObsMode obs = ObsMode::kOff) {
  RestrictedInterface base(net);
  base.SetSimulatedLatency(latency);
  base.SetMaxBatchSize(batch == 0 ? 1 : batch);
  ConcurrentInterfaceCache session(base);
  CrawlConfig config;
  config.num_walkers = walkers;
  config.num_threads = threads;
  config.coalesce_frontier = batch > 0;
  CrawlScheduler scheduler(session, config, kSeed, factory);
  std::unique_ptr<obs::MetricsRegistry> registry;
  std::unique_ptr<obs::TraceLog> trace;
  if (obs != ObsMode::kOff) registry = std::make_unique<obs::MetricsRegistry>();
  if (obs == ObsMode::kTrace) trace = std::make_unique<obs::TraceLog>();
  if (registry != nullptr) {
    scheduler.SetObservability(registry.get(), trace.get());
  }
  // kExporter: the crawl is scraped while it runs — a publisher snapshots
  // the registry every 10ms and a client loops GET /metrics against the
  // live server, both inside the timed window. The measured delta over
  // obs-metrics is the whole cost of serving live introspection.
  std::unique_ptr<obs::IntrospectionServer> exporter;
  std::atomic<bool> scrape_stop{false};
  std::thread publisher;
  std::thread scraper;
  if (obs == ObsMode::kExporter) {
    exporter = std::make_unique<obs::IntrospectionServer>(
        obs::IntrospectionServer::Options{}, nullptr);
    obs::MetricsRegistry* reg = registry.get();
    obs::IntrospectionServer* srv = exporter.get();
    publisher = std::thread([reg, srv, &scrape_stop] {
      while (!scrape_stop.load(std::memory_order_relaxed)) {
        srv->Publish(reg->Snapshot(0), "{}");
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    });
    scraper = std::thread([port = exporter->port(), &scrape_stop] {
      while (!scrape_stop.load(std::memory_order_relaxed)) {
        ScrapeOnce(port);
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    });
  }
  const auto start = std::chrono::steady_clock::now();
  scheduler.RunRounds(rounds);
  const auto end = std::chrono::steady_clock::now();
  if (obs == ObsMode::kExporter) {
    scrape_stop.store(true, std::memory_order_relaxed);
    publisher.join();
    scraper.join();
    exporter->Stop();
  }

  Row row;
  row.section = latency.count() > 0 ? "latency-bound" : "cpu-bound";
  row.mode = mode_override != nullptr ? mode_override
                                      : (batch > 0 ? "coalesced" : "free-run");
  row.walkers = walkers;
  row.threads = threads;
  row.batch = batch == 0 ? 1 : batch;
  row.rounds = rounds;
  row.wall_ms =
      std::chrono::duration<double, std::milli>(end - start).count();
  row.steps_per_sec =
      static_cast<double>(walkers * rounds) / (row.wall_ms / 1000.0);
  row.unique_queries = session.QueryCost();
  row.backend_requests = session.BackendRequests();
  // MTO speculation accounting straight from the registry (the scheduler
  // refreshes the gauges from the walkers' counters after RunRounds).
  if (registry != nullptr) {
    const int64_t commits =
        registry->GaugeValue("scheduler.speculative_commits");
    const int64_t hits = registry->GaugeValue("scheduler.speculation_hits");
    if (commits > 0) {
      row.spec_hit_rate =
          static_cast<double>(hits) / static_cast<double>(commits);
    }
  }
  row.positions = scheduler.Positions();
  return row;
}

/// Multi-backend pool behind the concurrent cache: `num_backends` perfect
/// keys, every round trip costing `latency` of real wall time. The
/// coalesced frontier is planned under the ledger lock and each backend's
/// trips are paid on its own fetch lane, so distinct backends overlap —
/// joined every round at depth 0 ("async" rows), with up to
/// `pipeline_depth` rounds in flight otherwise ("pipelined" rows).
Row RunMultiBackend(const SocialNetwork& net, size_t walkers, size_t threads,
                    size_t rounds, std::chrono::microseconds latency,
                    size_t batch, size_t num_backends,
                    BackendSelection selection = BackendSelection::kSharded,
                    size_t pipeline_depth = 0) {
  std::vector<BackendConfig> backends(num_backends);
  BackendPool pool(net, std::move(backends), RetryPolicy{}, selection, kSeed);
  pool.SetSimulatedLatency(latency);
  ConcurrentInterfaceCache session(pool);
  CrawlConfig config;
  config.num_walkers = walkers;
  config.num_threads = threads;
  config.coalesce_frontier = batch > 0;
  config.pipeline_depth = pipeline_depth;
  CrawlScheduler scheduler(session, config, kSeed, MakeWalker);
  const auto start = std::chrono::steady_clock::now();
  scheduler.RunRounds(rounds);
  const auto end = std::chrono::steady_clock::now();

  Row row;
  row.section = "multi-backend";
  // Row keys predate the single fetch engine: "async" is the depth-0
  // engine, kept so the perf gate still pairs rows across commits.
  row.mode = std::string(pipeline_depth > 0 ? "pipelined" : "async") + "-" +
             std::to_string(num_backends) + "b" +
             (selection == BackendSelection::kRendezvous ? "-rdv" : "");
  row.walkers = walkers;
  row.threads = threads;
  // `batch` only toggles frontier coalescing here: the pool charges one
  // round trip per attempt regardless of max_batch_size (no bulk-chunk
  // amortization across keyed quotas), so report the effective size.
  row.batch = 1;
  row.rounds = rounds;
  row.wall_ms =
      std::chrono::duration<double, std::milli>(end - start).count();
  row.steps_per_sec =
      static_cast<double>(walkers * rounds) / (row.wall_ms / 1000.0);
  row.unique_queries = session.QueryCost();
  row.backend_requests = session.BackendRequests();
  row.positions = scheduler.Positions();
  return row;
}

void PrintSection(const std::string& title, const std::vector<Row>& rows,
                  const Row& baseline) {
  PrintBanner(std::cout, title);
  Table table({"mode", "walkers", "threads", "batch", "steps/sec",
               "speedup", "unique queries", "backend trips", "spec hit%",
               "wall ms"});
  for (const Row& r : rows) {
    table.AddRow({r.mode, std::to_string(r.walkers),
                  std::to_string(r.threads), std::to_string(r.batch),
                  Table::Num(r.steps_per_sec, 0),
                  Table::Num(r.steps_per_sec / baseline.steps_per_sec, 2),
                  std::to_string(r.unique_queries),
                  std::to_string(r.backend_requests),
                  r.spec_hit_rate < 0.0
                      ? std::string("-")
                      : Table::Num(100.0 * r.spec_hit_rate, 1),
                  Table::Num(r.wall_ms, 1)});
  }
  table.PrintText(std::cout);
  std::cout << "\n";
}

void WriteJson(const std::string& path, const std::vector<Row>& rows) {
  std::ofstream out(path);
  out << "[\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "  {\"section\": \"" << r.section << "\", \"mode\": \"" << r.mode
        << "\", \"walkers\": " << r.walkers
        << ", \"threads\": " << r.threads << ", \"batch\": " << r.batch
        << ", \"rounds\": " << r.rounds << ", \"wall_ms\": " << r.wall_ms
        << ", \"steps_per_sec\": " << r.steps_per_sec
        << ", \"unique_queries\": " << r.unique_queries
        << ", \"backend_requests\": " << r.backend_requests
        << ", \"spec_hit_rate\": " << r.spec_hit_rate << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "]\n";
  std::cout << "wrote " << rows.size() << " rows to " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (mto::bench::SmokeOrHelpExit(
          argc, argv, "bench_runtime_throughput",
          "[--dataset=NAME] [--walkers=N] [--rounds=N] [--json=PATH]")) {
    return 0;
  }
  std::string dataset = "epinions_small";
  size_t walkers = 64;
  size_t rounds = 2000;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--dataset=", 10) == 0) dataset = argv[i] + 10;
    if (std::strncmp(argv[i], "--walkers=", 10) == 0) {
      walkers = static_cast<size_t>(std::atoll(argv[i] + 10));
    }
    if (std::strncmp(argv[i], "--rounds=", 9) == 0) {
      rounds = static_cast<size_t>(std::atoll(argv[i] + 9));
    }
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
  }

  SocialNetwork net(MakeDataset(dataset));
  std::cout << "dataset " << dataset << ": " << net.num_users() << " users, "
            << net.graph().num_edges() << " edges\n";
  std::vector<Row> all;

  // --- CPU-bound: raw stepping throughput, shared cache, no latency. ---
  const auto kNoLatency = std::chrono::microseconds(0);
  Row cpu_base = RunBaseline(net, walkers, rounds, kNoLatency);
  std::vector<Row> cpu_rows = {cpu_base};
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    cpu_rows.push_back(
        RunScheduler(net, walkers, threads, rounds, kNoLatency, 0));
  }
  PrintSection("CPU-bound (no simulated latency)", cpu_rows, cpu_base);

  // --- Latency-bound: 200us per backend round trip. ---
  const auto kRtt = std::chrono::microseconds(200);
  const size_t lat_rounds = std::max<size_t>(1, rounds / 40);
  Row lat_base = RunBaseline(net, walkers, lat_rounds, kRtt);
  std::vector<Row> lat_rows = {lat_base};
  for (size_t threads : {1u, 4u, 8u}) {
    for (size_t batch : {0u, 16u, 64u}) {
      lat_rows.push_back(
          RunScheduler(net, walkers, threads, lat_rounds, kRtt, batch));
    }
  }
  PrintSection("Latency-bound (200us per backend round trip)", lat_rows,
               lat_base);

  // --- MTO under speculation: the paper's own sampler in the same
  // latency-bound regime. The uncoalesced rows are the pre-speculation
  // execution model (every fetch an individual round trip); the coalesced
  // rows batch the speculated frontier, with misses (invalidated
  // speculations re-picking mid-step) falling back to individual fetches.
  const size_t mto_rounds = std::max<size_t>(1, rounds / 40);
  std::vector<Row> mto_rows;
  for (size_t threads : {1u, 4u, 8u}) {
    for (size_t batch : {0u, 64u}) {
      Row row = RunScheduler(net, walkers, threads, mto_rounds, kRtt, batch,
                             MakeMtoWalker, nullptr, ObsMode::kMetrics);
      row.section = "mto-latency-bound";
      mto_rows.push_back(row);
    }
  }
  PrintSection("MTO speculative stepping (200us per backend round trip)",
               mto_rows, mto_rows.front());

  // --- Multi-backend fetch overlap. Coalesced frontier over N perfect
  // keys (sharded selection) at 200us per round trip; each backend's trips
  // ride its own lane, so the 4b rows should approach 4x the 1b ones while
  // staying bit-identical in positions and cost.
  const size_t mb_rounds = std::max<size_t>(1, rounds / 40);
  std::vector<Row> mb_rows;
  for (size_t threads : {1u, 4u}) {
    for (size_t nbackends : {1u, 4u}) {
      mb_rows.push_back(RunMultiBackend(net, walkers, threads, mb_rounds,
                                        kRtt, 64, nbackends));
    }
  }
  PrintSection("Multi-backend fetch overlap (200us per backend round trip)",
               mb_rows, mb_rows.front());

  // --- Pipelined rounds: depth 0 joins every frontier, paying each
  // round's slowest backend; depth-2 pipelining keeps that latency in
  // flight on the lanes and prefetches speculative peeks, so steady-state
  // throughput is bounded by aggregate backend bandwidth, not per-round max
  // latency. Rendezvous routing spreads the frontier where `v % N`
  // aliases. Positions and cost stay bit-identical across depths and
  // routing policies.
  const size_t pl_rounds = std::max<size_t>(1, rounds / 40);
  std::vector<Row> pl_rows;
  for (size_t nbackends : {1u, 4u}) {
    for (BackendSelection selection :
         {BackendSelection::kSharded, BackendSelection::kRendezvous}) {
      for (size_t depth : {size_t{0}, size_t{2}}) {
        Row row = RunMultiBackend(net, walkers, 4, pl_rounds, kRtt, 64,
                                  nbackends, selection, depth);
        row.section = "pipelined";
        pl_rows.push_back(row);
      }
    }
  }
  PrintSection("Pipelined rounds (200us per backend round trip, depth 2)",
               pl_rows, pl_rows.front());

  // --- Metrics ablation: the same CPU-bound free-run (the hottest
  // instrumented path — every step goes through the cache's hit counter)
  // with observability off, counters on, counters + tracing, and counters
  // + a live scraped HTTP exporter. The passivity contract says the
  // positions and costs are bit-identical; the wall-clock delta is the
  // whole observability overhead, which ci/compare_perf.py warns about
  // when it exceeds 3%.
  std::vector<Row> obs_rows;
  for (ObsMode obs : {ObsMode::kOff, ObsMode::kMetrics, ObsMode::kTrace,
                      ObsMode::kExporter}) {
    const char* mode = obs == ObsMode::kOff        ? "obs-off"
                       : obs == ObsMode::kMetrics  ? "obs-metrics"
                       : obs == ObsMode::kTrace    ? "obs-trace"
                                                   : "obs-exporter";
    Row row =
        RunScheduler(net, walkers, 8, rounds, kNoLatency, 0, MakeWalker,
                     mode, obs);
    row.section = "metrics-ablation";
    obs_rows.push_back(row);
  }
  PrintSection("Metrics ablation (CPU-bound free-run, 8 threads)", obs_rows,
               obs_rows.front());

  bool ok = true;

  // --- Per-program throughput: the WalkProgram registry's built-ins in
  // the latency-bound coalesced regime (batch 64), 1 vs 4 threads. Each
  // program walks its own trajectory, so determinism is checked pairwise
  // within a program (1-thread vs 4-thread positions and unique-query
  // cost) rather than through the cross-section loop below; throughput
  // rows feed the CI perf gate like every other section.
  const size_t prog_rounds = std::max<size_t>(1, rounds / 40);
  std::vector<Row> prog_rows;
  for (const char* program : {"srw", "mhrw", "node2vec", "pagerank"}) {
    std::vector<Row> pair;
    for (size_t threads : {1u, 4u}) {
      Row row = RunScheduler(net, walkers, threads, prog_rounds, kRtt, 64,
                             ProgramFactory(program), program);
      row.section = "per-program";
      pair.push_back(row);
    }
    if (pair[0].positions != pair[1].positions ||
        pair[0].unique_queries != pair[1].unique_queries) {
      ok = false;
      std::cout << "DETERMINISM VIOLATION: program " << program
                << " diverges across thread counts\n";
    }
    prog_rows.insert(prog_rows.end(), pair.begin(), pair.end());
  }
  PrintSection("Per-program throughput (200us RTT, coalesced batch 64)",
               prog_rows, prog_rows.front());

  // Invariant check across every configuration of a section: walkers only
  // go faster, they never walk elsewhere or pay a different query cost.
  for (const auto* rows : {&cpu_rows, &lat_rows, &mto_rows, &mb_rows,
                           &pl_rows, &obs_rows}) {
    for (const Row& r : *rows) {
      const Row& base = rows->front();
      if (r.positions != base.positions ||
          r.unique_queries != base.unique_queries) {
        ok = false;
        std::cout << "DETERMINISM VIOLATION: " << r.mode << " t="
                  << r.threads << " b=" << r.batch << "\n";
      }
    }
  }
  std::cout << (ok ? "determinism: positions and unique-query cost identical"
                     " across all configurations\n"
                   : "determinism: FAILED\n");

  all.insert(all.end(), cpu_rows.begin(), cpu_rows.end());
  all.insert(all.end(), lat_rows.begin(), lat_rows.end());
  all.insert(all.end(), mto_rows.begin(), mto_rows.end());
  all.insert(all.end(), mb_rows.begin(), mb_rows.end());
  all.insert(all.end(), pl_rows.begin(), pl_rows.end());
  all.insert(all.end(), prog_rows.begin(), prog_rows.end());
  all.insert(all.end(), obs_rows.begin(), obs_rows.end());
  if (!json_path.empty()) WriteJson(json_path, all);
  return ok ? 0 : 1;
}
