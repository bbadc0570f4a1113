// crawlbench: the measuring half of the crawl benchmark (perfbench/run.py is
// the driving half). It runs one workload's crawl back to back, each time
// from scenario text to Finish() on a fresh stack (cold cache), until a time
// window closes, and prints one JSON document on stdout: a record per crawl
// plus, in trace mode, per-layer measurements. Checks on the records (digest
// equality, ledger laws, estimate tolerance) live in run.py.
//
//   crawlbench --spec WORKLOAD.json --seconds S --trace 0|1
//              --work DIR [--min-crawls N]
//
// WORKLOAD.json: {"name", "kind": "service"|"fleet", "scenario": "<text>"}.
// "service" scenarios are CrawlService scenario JSON; "fleet" scenarios
// drive BackendPool -> ConcurrentInterfaceCache -> CrawlScheduler ->
// EstimationPipeline directly, in the shape of examples/parallel_survey.cc,
// because scenario JSON has no wall-clock latency key.
//
// Trace mode alternates untraced and traced crawls (the traced ones switch
// on the program's passive telemetry), then runs warm microbenches of single
// layers. Spans are kept in memory and written to DIR/<name>.spans.json.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/core/mto_sampler.h"
#include "src/experiments/harness.h"
#include "src/graph/datasets.h"
#include "src/net/restricted_interface.h"
#include "src/net/social_network.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/runtime/concurrent_interface_cache.h"
#include "src/runtime/crawl_scheduler.h"
#include "src/runtime/estimation_pipeline.h"
#include "src/service/backend_pool.h"
#include "src/service/checkpoint.h"
#include "src/service/crawl_service.h"
#include "src/service/scenario_config.h"
#include "src/util/json.h"
#include "src/util/rng.h"
#include "src/walk/parallel_walkers.h"
#include "src/walk/walk_program.h"

namespace mto {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Same profile seed as CrawlService, so the fleet workload's ground truth
/// is built exactly like a service crawl's.
constexpr uint64_t kProfileSeed = 0x50C1A1;

JsonValue Num(double v) { return JsonValue(v); }

JsonValue NumArray(const std::vector<double>& values) {
  JsonValue out = JsonValue::Array();
  for (double v : values) out.MutableArray().push_back(JsonValue(v));
  return out;
}

std::string Hex(uint64_t v) {
  std::ostringstream os;
  os << std::hex << v;
  return os.str();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// FNV-1a over 64-bit words: the crawl's result digest.
class Digest {
 public:
  void Add(uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (word >> (8 * i)) & 0xFF;
      hash_ *= 0x100000001B3ULL;
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xCBF29CE484222325ULL;
};

/// In-memory span log of the benchmark's own calls into the program. A span
/// records its name, start, end, parent span and run id; nesting follows a
/// scope stack on the calling thread. Disabled logs record nothing.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  class Scope {
   public:
    Scope(SpanLog& log, std::string name, uint64_t run) : log_(log) {
      if (!log_.enabled_) return;
      index_ = log_.spans_.size();
      log_.spans_.push_back({std::move(name), log_.NowUs(), 0,
                             log_.stack_.empty() ? -1 : log_.stack_.back(),
                             run});
      log_.stack_.push_back(static_cast<int64_t>(index_));
    }
    ~Scope() {
      if (!log_.enabled_) return;
      log_.spans_[index_].end_us = log_.NowUs();
      log_.stack_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    size_t index_ = 0;
  };

  JsonValue ToJson() const {
    JsonValue out = JsonValue::Array();
    for (const Span& s : spans_) {
      JsonValue span = JsonValue::Object();
      auto& o = span.MutableObject();
      o["name"] = JsonValue(s.name);
      o["start_us"] = Num(s.start_us);
      o["end_us"] = Num(s.end_us);
      o["parent"] = Num(static_cast<double>(s.parent));
      o["run"] = Num(static_cast<double>(s.run));
      out.MutableArray().push_back(std::move(span));
    }
    return out;
  }

 private:
  struct Span {
    std::string name;
    double start_us;
    double end_us;
    int64_t parent;
    uint64_t run;
  };

  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int64_t> stack_;
};

/// Everything one crawl reports. Times are wall seconds unless named _ms.
struct CrawlRecord {
  bool traced = false;
  double setup_s = 0.0;
  double crawl_s = 0.0;
  std::vector<double> unit_ms;
  double burn_in_s = 0.0;
  double collect_s = 0.0;
  double finish_ms = 0.0;
  std::vector<double> save_ms;
  std::vector<double> save_bytes;
  uint64_t burn_in_rounds = 0;
  uint64_t steps = 0;
  uint64_t unique_queries = 0;
  uint64_t backend_requests = 0;
  uint64_t cache_requests = 0;
  double sim_s = 0.0;
  double estimate = 0.0;
  double truth = 0.0;
  uint64_t digest = 0;
  std::vector<BackendStats> backends;
  std::vector<std::string> backend_names;
  double rtt_us = 0.0;
  // Counts read from the program's passive telemetry (traced crawls).
  std::map<std::string, double> telemetry;
  // MTO walker state summed over walkers.
  uint64_t speculative_commits = 0;
  uint64_t speculation_hits = 0;
  uint64_t overlay_nodes = 0;
  uint64_t edges_removed = 0;
  uint64_t edges_added = 0;

  JsonValue ToJson() const {
    JsonValue out = JsonValue::Object();
    auto& o = out.MutableObject();
    o["traced"] = JsonValue(traced);
    o["setup_s"] = Num(setup_s);
    o["crawl_s"] = Num(crawl_s);
    o["unit_ms"] = NumArray(unit_ms);
    o["burn_in_s"] = Num(burn_in_s);
    o["collect_s"] = Num(collect_s);
    o["finish_ms"] = Num(finish_ms);
    o["save_ms"] = NumArray(save_ms);
    o["save_bytes"] = NumArray(save_bytes);
    o["burn_in_rounds"] = Num(static_cast<double>(burn_in_rounds));
    o["steps"] = Num(static_cast<double>(steps));
    o["unique_queries"] = Num(static_cast<double>(unique_queries));
    o["backend_requests"] = Num(static_cast<double>(backend_requests));
    o["cache_requests"] = Num(static_cast<double>(cache_requests));
    o["sim_s"] = Num(sim_s);
    o["estimate"] = Num(estimate);
    o["truth"] = Num(truth);
    o["digest"] = JsonValue(Hex(digest));
    o["rtt_us"] = Num(rtt_us);
    JsonValue backends_json = JsonValue::Array();
    for (size_t b = 0; b < backends.size(); ++b) {
      const BackendStats& s = backends[b];
      JsonValue entry = JsonValue::Object();
      auto& e = entry.MutableObject();
      e["name"] = JsonValue(backend_names[b]);
      e["requests"] = Num(static_cast<double>(s.requests));
      e["unique"] = Num(static_cast<double>(s.unique_queries));
      e["failed"] = Num(static_cast<double>(s.failed_requests));
      e["timeouts"] = Num(static_cast<double>(s.timeouts));
      e["transient"] = Num(static_cast<double>(s.transient_errors));
      e["quota"] = Num(static_cast<double>(s.quota_rejections));
      backends_json.MutableArray().push_back(std::move(entry));
    }
    o["backends"] = std::move(backends_json);
    JsonValue telemetry_json = JsonValue::Object();
    for (const auto& [name, value] : telemetry) {
      telemetry_json.MutableObject()[name] = Num(value);
    }
    o["telemetry"] = std::move(telemetry_json);
    o["speculative_commits"] = Num(static_cast<double>(speculative_commits));
    o["speculation_hits"] = Num(static_cast<double>(speculation_hits));
    o["overlay_nodes"] = Num(static_cast<double>(overlay_nodes));
    o["edges_removed"] = Num(static_cast<double>(edges_removed));
    o["edges_added"] = Num(static_cast<double>(edges_added));
    return out;
  }
};

/// Digest of what a crawl answers: samples, estimate bits, unique-query
/// cost and every backend's unique-query count.
uint64_t ResultDigest(const std::vector<NodeId>& samples, double estimate,
                      uint64_t unique_queries,
                      const std::vector<BackendStats>& backends) {
  Digest d;
  d.Add(samples.size());
  for (NodeId v : samples) d.Add(v);
  d.Add(std::bit_cast<uint64_t>(estimate));
  d.Add(unique_queries);
  for (const BackendStats& s : backends) d.Add(s.unique_queries);
  return d.value();
}

void CopyLedgers(const BackendPool& pool, CrawlRecord& rec) {
  rec.backends = pool.AllBackendStats();
  rec.backend_names.clear();
  for (size_t b = 0; b < pool.num_backends(); ++b) {
    rec.backend_names.push_back(pool.backend_config(b).name);
  }
}

/// Sums MtoSampler state over the scheduler's walkers (zero for others).
void ReadWalkers(CrawlScheduler& scheduler, CrawlRecord& rec) {
  for (size_t i = 0; i < scheduler.size(); ++i) {
    const auto* mto = dynamic_cast<const MtoSampler*>(&scheduler.walker(i));
    if (mto == nullptr) continue;
    rec.speculative_commits += mto->speculative_commits();
    rec.speculation_hits += mto->speculation_hits();
    rec.overlay_nodes += mto->overlay().num_registered();
    rec.edges_removed += mto->overlay().num_removed();
    rec.edges_added += mto->overlay().num_added();
  }
}

/// Counters and span totals from the program's own telemetry.
void ReadTelemetry(const obs::MetricsRegistry& registry,
                   const obs::TraceLog& trace, CrawlRecord& rec) {
  for (const char* name : {"cache.misses", "cache.dedupe_waits",
                           "prefetch.issued", "prefetch.consumed"}) {
    rec.telemetry[name] = static_cast<double>(registry.CounterValue(name));
  }
  double converge_wait_us = 0.0;
  double lane_wait_us = 0.0;
  const JsonValue doc = trace.ToJson();
  for (const JsonValue& event : doc.At("traceEvents").AsArray()) {
    if (!event.Has("dur")) continue;
    const std::string& name = event.At("name").AsString();
    if (name == "pipeline.converge_wait") {
      converge_wait_us += event.At("dur").AsDouble();
    } else if (name == "lane.wait_until") {
      lane_wait_us += event.At("dur").AsDouble();
    }
  }
  rec.telemetry["pipeline.converge_wait_ms"] = converge_wait_us / 1000.0;
  rec.telemetry["lane.wait_until_ms"] = lane_wait_us / 1000.0;
  rec.telemetry["trace.dropped_events"] =
      static_cast<double>(trace.DroppedEvents());
}

// ---------------------------------------------------------------------------
// Service workloads: CrawlService from scenario JSON.
// ---------------------------------------------------------------------------

/// A crawl's record plus the last checkpoint image it left on disk.
struct Crawl {
  CrawlRecord record;
  std::string last_checkpoint;  ///< empty when it saved none
};

/// Saves with `save` (which writes `path`) and records time and size.
template <typename SaveFn>
void TimedSave(const std::string& path, SaveFn&& save, SpanLog& spans,
               uint64_t run, Crawl& crawl) {
  SpanLog::Scope span(spans, "checkpoint.save", run);
  const Clock::time_point start = Clock::now();
  save();
  crawl.record.save_ms.push_back(SecondsSince(start) * 1000.0);
  crawl.record.save_bytes.push_back(
      static_cast<double>(std::filesystem::file_size(path)));
  crawl.last_checkpoint = path;
}

Crawl RunServiceCrawl(const std::string& scenario_text, bool traced,
                      const std::string& work_dir, SpanLog& spans,
                      uint64_t run) {
  Crawl out;
  CrawlRecord& rec = out.record;
  rec.traced = traced;
  SpanLog::Scope crawl_span(spans, traced ? "crawl.traced" : "crawl", run);

  const Clock::time_point setup_start = Clock::now();
  ScenarioConfig config;
  {
    SpanLog::Scope span(spans, "setup.parse", run);
    config = ScenarioConfig::FromJsonText(scenario_text);
  }
  const std::string trace_path = work_dir + "/service.trace.json";
  if (traced) {
    config.observability.metrics = true;
    config.observability.trace_path = trace_path;
  }
  std::unique_ptr<CrawlService> service;
  {
    SpanLog::Scope span(spans, "setup.service", run);
    service = std::make_unique<CrawlService>(config);
  }
  rec.setup_s = SecondsSince(setup_start);

  const size_t every = config.checkpoint.every_units;
  size_t units = 0;
  const Clock::time_point crawl_start = Clock::now();
  while (!service->Done()) {
    const bool burn_in = service->phase() == CrawlPhase::kBurnIn;
    const Clock::time_point unit_start = Clock::now();
    {
      SpanLog::Scope span(spans, burn_in ? "unit.burn_in" : "unit.collect",
                          run);
      service->Advance();
      ++units;
      if (every > 0 && units % every == 0 && !service->Done()) {
        const std::string& path = config.checkpoint.path;
        TimedSave(path, [&] { service->SaveCheckpoint(path); }, spans, run,
                  out);
      }
    }
    const double unit_s = SecondsSince(unit_start);
    rec.unit_ms.push_back(unit_s * 1000.0);
    (burn_in ? rec.burn_in_s : rec.collect_s) += unit_s;
  }
  ServiceResult result;
  {
    SpanLog::Scope span(spans, "finish", run);
    const Clock::time_point finish_start = Clock::now();
    result = service->Finish();
    rec.finish_ms = SecondsSince(finish_start) * 1000.0;
  }
  rec.crawl_s = SecondsSince(crawl_start);

  rec.burn_in_rounds = result.burn_in_rounds;
  rec.steps = result.total_steps;
  rec.unique_queries = result.total_query_cost;
  rec.backend_requests = result.backend_requests;
  rec.cache_requests = service->session().TotalRequests();
  rec.sim_s = static_cast<double>(result.simulated_time_us) / 1e6;
  rec.estimate = result.final_estimate;
  rec.truth = service->network().TrueAverageDegree();
  rec.digest = ResultDigest(result.samples, result.final_estimate,
                            result.total_query_cost, result.backend_stats);
  CopyLedgers(service->pool(), rec);
  ReadWalkers(service->scheduler(), rec);
  if (traced) {
    ReadTelemetry(*service->metrics(), *service->trace_log(), rec);
    std::filesystem::remove(trace_path);
    // A scenario without checkpoints still gets its checkpoint layer
    // measured: one save of the finished crawl's state.
    if (rec.save_ms.empty()) {
      const std::string path = work_dir + "/end_state.ckpt";
      TimedSave(path, [&] { service->SaveCheckpoint(path); }, spans, run,
                out);
    }
  }
  return out;
}

/// Times LoadCheckpoint of `path` into a freshly constructed service.
double MeasureServiceLoad(const std::string& scenario_text,
                          const std::string& path, SpanLog& spans,
                          uint64_t run) {
  CrawlService service(ScenarioConfig::FromJsonText(scenario_text));
  SpanLog::Scope span(spans, "checkpoint.load", run);
  const Clock::time_point start = Clock::now();
  service.LoadCheckpoint(path);
  return SecondsSince(start) * 1000.0;
}

// ---------------------------------------------------------------------------
// Fleet workload: the library stack examples/parallel_survey.cc builds, with
// a multi-backend pool and a wall-clock round trip on every backend request.
// ---------------------------------------------------------------------------

struct FleetConfig {
  std::string dataset;
  uint64_t seed = 1;
  std::string program;
  size_t walkers = 64;
  size_t threads = 1;
  bool coalesce_frontier = true;
  size_t pipeline_depth = 0;
  size_t backends = 1;
  uint64_t rtt_us = 0;
  double error_rate = 0.0;
  uint64_t fault_seed = 1;
  double geweke_threshold = 0.1;
  size_t geweke_min_length = 200;
  size_t geweke_check_every = 50;
  size_t max_burn_in_rounds = 2000;
  size_t num_samples = 200;
  size_t thinning = 25;

  static FleetConfig Parse(const std::string& text) {
    const JsonValue root = ParseJson(text);
    FleetConfig c;
    c.dataset = root.At("dataset").AsString();
    c.seed = root.At("seed").AsUint();
    c.program = root.At("program").AsString();
    c.walkers = root.At("walkers").AsUint();
    c.threads = root.At("threads").AsUint();
    c.coalesce_frontier = root.At("coalesce_frontier").AsBool();
    c.pipeline_depth = root.At("pipeline_depth").AsUint();
    c.backends = root.At("backends").AsUint();
    c.rtt_us = root.At("rtt_us").AsUint();
    c.error_rate = root.At("error_rate").AsDouble();
    c.fault_seed = root.At("fault_seed").AsUint();
    const JsonValue& geweke = root.At("geweke");
    c.geweke_threshold = geweke.At("threshold").AsDouble();
    c.geweke_min_length = geweke.At("min_length").AsUint();
    c.geweke_check_every = geweke.At("check_every").AsUint();
    c.max_burn_in_rounds = root.At("max_burn_in_rounds").AsUint();
    c.num_samples = root.At("num_samples").AsUint();
    c.thinning = root.At("thinning").AsUint();
    if (c.walkers == 0 || c.threads == 0 || c.backends == 0 ||
        c.geweke_check_every == 0 || c.thinning == 0) {
      throw std::invalid_argument("fleet scenario: zero-sized field");
    }
    return c;
  }
};

/// Components in construction order; telemetry first so it outlives every
/// thread that records into it.
struct FleetStack {
  FleetConfig config;
  std::unique_ptr<obs::MetricsRegistry> registry;
  std::unique_ptr<obs::TraceLog> trace;
  std::unique_ptr<SocialNetwork> network;
  std::unique_ptr<BackendPool> pool;
  std::unique_ptr<ConcurrentInterfaceCache> session;
  std::unique_ptr<CrawlScheduler> scheduler;
  std::unique_ptr<EstimationPipeline> pipeline;
};

Crawl RunFleetCrawl(const std::string& scenario_text, bool traced,
                    const std::string& work_dir, SpanLog& spans,
                    uint64_t run) {
  Crawl out;
  CrawlRecord& rec = out.record;
  rec.traced = traced;
  SpanLog::Scope crawl_span(spans, traced ? "crawl.traced" : "crawl", run);

  const Clock::time_point setup_start = Clock::now();
  FleetStack s;
  {
    SpanLog::Scope span(spans, "setup.parse", run);
    s.config = FleetConfig::Parse(scenario_text);
  }
  const FleetConfig& c = s.config;
  if (traced) {
    s.registry = std::make_unique<obs::MetricsRegistry>();
    s.trace = std::make_unique<obs::TraceLog>(1 << 18);
  }
  {
    SpanLog::Scope span(spans, "setup.dataset", run);
    s.network = std::make_unique<SocialNetwork>(
        SocialNetwork::WithSyntheticProfiles(MakeDataset(c.dataset),
                                             kProfileSeed));
  }
  {
    SpanLog::Scope span(spans, "setup.stack", run);
    std::vector<BackendConfig> backends(c.backends);
    for (size_t b = 0; b < c.backends; ++b) {
      backends[b].name = "backend-" + std::to_string(b);
      backends[b].error_rate = c.error_rate;
    }
    s.pool = std::make_unique<BackendPool>(*s.network, std::move(backends),
                                           RetryPolicy{},
                                           BackendSelection::kRendezvous,
                                           c.fault_seed);
    s.pool->SetSimulatedLatency(std::chrono::microseconds(c.rtt_us));
    s.session = std::make_unique<ConcurrentInterfaceCache>(*s.pool);
    CrawlConfig crawl;
    crawl.num_walkers = c.walkers;
    crawl.num_threads = c.threads;
    crawl.coalesce_frontier = c.coalesce_frontier;
    crawl.pipeline_depth = c.pipeline_depth;
    const WalkProgram& program = GetWalkProgram(c.program);
    s.scheduler = std::make_unique<CrawlScheduler>(
        *s.session, crawl, c.seed,
        [&program](RestrictedInterface& iface, Rng& rng, size_t) {
          const NodeId start =
              static_cast<NodeId>(rng.UniformInt(iface.num_users()));
          return program.MakeWalker(iface, rng, start, WalkProgramParams{});
        });
    EstimationPipeline::Options options;
    options.geweke_threshold = c.geweke_threshold;
    options.geweke_min_length = c.geweke_min_length;
    options.geweke_check_every = c.geweke_check_every;
    s.pipeline = std::make_unique<EstimationPipeline>(options);
    if (traced) {
      s.scheduler->SetObservability(s.registry.get(), s.trace.get());
      s.pipeline->SetObservability(s.registry.get(), s.trace.get());
    }
  }
  rec.setup_s = SecondsSince(setup_start);

  CrawlScheduler& scheduler = *s.scheduler;
  EstimationPipeline& pipeline = *s.pipeline;
  const size_t W = c.walkers;
  const Clock::time_point crawl_start = Clock::now();
  // Burn-in epochs feed the Geweke check, exactly like CrawlService units.
  size_t rounds = 0;
  std::vector<double> diagnostics;
  std::vector<double> diagnostics_stream;
  while (true) {
    const size_t chunk = std::min(c.geweke_check_every,
                                  c.max_burn_in_rounds - rounds);
    const Clock::time_point unit_start = Clock::now();
    bool converged = false;
    {
      SpanLog::Scope span(spans, "unit.burn_in", run);
      diagnostics.clear();
      scheduler.RunRounds(chunk, &diagnostics);
      pipeline.PushDiagnostics(diagnostics);
      diagnostics_stream.insert(diagnostics_stream.end(), diagnostics.begin(),
                                diagnostics.end());
      rounds += chunk;
      converged = pipeline.ConvergedAfter(rounds * W);
    }
    const double unit_s = SecondsSince(unit_start);
    rec.unit_ms.push_back(unit_s * 1000.0);
    rec.burn_in_s += unit_s;
    if (converged || rounds >= c.max_burn_in_rounds) break;
  }
  rec.burn_in_rounds = rounds;
  for (size_t i = 0; i < scheduler.size(); ++i) {
    if (auto* mto = dynamic_cast<MtoSampler*>(&scheduler.walker(i))) {
      mto->FreezeTopology();
    }
  }
  // Collection: one sample per walker per unit, `thinning` rounds apart.
  std::vector<NodeId> samples;
  std::vector<ServiceCheckpoint::SampleRecord> sample_stream;
  const size_t collection_units = (c.num_samples + W - 1) / W;
  for (size_t unit = 0; unit < collection_units; ++unit) {
    const Clock::time_point unit_start = Clock::now();
    {
      SpanLog::Scope span(spans, "unit.collect", run);
      if (unit > 0) scheduler.RunRounds(c.thinning);
      for (size_t i = 0; i < W; ++i) {
        Sampler& walker = scheduler.walker(i);
        ServiceCheckpoint::SampleRecord record;
        record.node = walker.current();
        record.value = AttributeValue(walker, Attribute::kDegree);
        record.weight = walker.ImportanceWeight();
        record.query_cost = s.session->QueryCost();
        pipeline.PushSample(record.value, record.weight, record.query_cost);
        samples.push_back(record.node);
        sample_stream.push_back(record);
      }
    }
    const double unit_s = SecondsSince(unit_start);
    rec.unit_ms.push_back(unit_s * 1000.0);
    rec.collect_s += unit_s;
  }
  EstimationPipeline::Result estimation;
  {
    SpanLog::Scope span(spans, "finish", run);
    const Clock::time_point finish_start = Clock::now();
    estimation = pipeline.Finish();
    rec.finish_ms = SecondsSince(finish_start) * 1000.0;
  }
  rec.crawl_s = SecondsSince(crawl_start);

  rec.steps = scheduler.total_steps();
  rec.unique_queries = s.session->QueryCost();
  rec.backend_requests = s.session->BackendRequests();
  rec.cache_requests = s.session->TotalRequests();
  rec.sim_s = static_cast<double>(s.pool->SimulatedTimeUs()) / 1e6;
  rec.estimate = estimation.estimate;
  rec.truth = s.network->TrueAverageDegree();
  rec.rtt_us = static_cast<double>(c.rtt_us);
  CopyLedgers(*s.pool, rec);
  rec.digest = ResultDigest(samples, estimation.estimate, rec.unique_queries,
                            rec.backends);
  ReadWalkers(scheduler, rec);
  if (traced) {
    ReadTelemetry(*s.registry, *s.trace, rec);
    // The checkpoint layer, measured on the finished crawl's state: the
    // image CrawlService would write, through the checkpoint module.
    ServiceCheckpoint ckpt;
    ckpt.session = s.session->SnapshotSession();
    const BackendPool::PoolSnapshot backends = s.pool->SnapshotBackends();
    ckpt.ledgers = backends.ledgers;
    ckpt.round_robin_cursor = backends.round_robin_cursor;
    ckpt.failed_fetches = backends.failed_fetches;
    ckpt.walkers = scheduler.SnapshotWalkers();
    ckpt.total_steps = scheduler.total_steps();
    ckpt.phase = CrawlPhase::kDone;
    ckpt.rounds = rounds + (collection_units - 1) * c.thinning;
    ckpt.collection_rounds_done = collection_units;
    ckpt.burn_in_rounds = rounds;
    ckpt.diagnostics = std::move(diagnostics_stream);
    ckpt.samples = std::move(sample_stream);
    for (size_t i = 0; i < scheduler.size(); ++i) {
      if (const auto* mto =
              dynamic_cast<const MtoSampler*>(&scheduler.walker(i))) {
        ckpt.overlays.push_back({mto->SnapshotOverlay(), uint8_t{1}});
      }
    }
    const std::string path = work_dir + "/end_state.ckpt";
    TimedSave(path, [&] { ckpt.Save(path); }, spans, run, out);
  }
  return out;
}

/// Times ServiceCheckpoint::Load of `path` (read and validate; the fleet
/// stack has no restore entry point).
double MeasureImageLoad(const std::string& path, SpanLog& spans,
                        uint64_t run) {
  SpanLog::Scope span(spans, "checkpoint.load", run);
  const Clock::time_point start = Clock::now();
  ServiceCheckpoint::Load(path);
  return SecondsSince(start) * 1000.0;
}

// ---------------------------------------------------------------------------
// Microbenches (trace mode only): warm single-layer timings. Each one sizes
// its batch to about kBatchSeconds in a warm-up, then times kBatches batches
// and reports the median per operation; one span per batch.
// ---------------------------------------------------------------------------

/// What the microbenches need to know about the workload.
struct MicroShape {
  std::string dataset;
  std::string program;
  size_t walkers = 1;
  size_t threads = 1;
  bool coalesce_frontier = false;
};

MicroShape ShapeOf(const std::string& kind, const std::string& text) {
  MicroShape shape;
  if (kind == "fleet") {
    const FleetConfig c = FleetConfig::Parse(text);
    shape = {c.dataset, c.program, c.walkers, c.threads, c.coalesce_frontier};
  } else {
    const ScenarioConfig c = ScenarioConfig::FromJsonText(text);
    shape = {c.dataset, c.ProgramName(), c.num_walkers, c.num_threads,
             c.coalesce_frontier};
  }
  return shape;
}

constexpr int kBatches = 5;
constexpr double kBatchSeconds = 0.05;

/// Keeps a computed value alive so the timed loop cannot be dropped.
std::atomic<uint64_t> g_sink{0};

/// `op(count)` performs `count` operations and returns the seconds they
/// took. Doubles `count` until a call takes kBatchSeconds / 8 (the warm-up),
/// scales it to kBatchSeconds, and returns the median seconds per operation
/// over kBatches timed batches.
template <typename Op>
double SecondsPerOp(SpanLog& spans, const char* name, uint64_t run, Op&& op,
                    size_t max_count = SIZE_MAX) {
  size_t count = 1;
  double elapsed = 0.0;
  {
    SpanLog::Scope span(spans, std::string(name) + ".warmup", run);
    while ((elapsed = op(count)) < kBatchSeconds / 8 && count < max_count) {
      count = std::min(max_count, count * 2);
    }
  }
  count = std::clamp<size_t>(
      static_cast<size_t>(static_cast<double>(count) * kBatchSeconds /
                          std::max(elapsed, 1e-9)),
      1, max_count);
  std::vector<double> per_op;
  for (int i = 0; i < kBatches; ++i) {
    SpanLog::Scope span(spans, name, run);
    per_op.push_back(op(count) / static_cast<double>(count));
  }
  return Median(per_op);
}

/// Touches every node once so later queries are all cache hits.
void WarmAll(RestrictedInterface& iface) {
  uint64_t sum = 0;
  for (NodeId v = 0; v < iface.num_users(); ++v) {
    if (auto view = iface.QueryRef(v)) sum += view->degree();
  }
  g_sink.fetch_add(sum, std::memory_order_relaxed);
}

/// Every node id once, in a seeded random order.
std::vector<NodeId> ShuffledIds(NodeId num_users, uint64_t seed) {
  std::vector<NodeId> ids(num_users);
  for (NodeId v = 0; v < num_users; ++v) ids[v] = v;
  Rng rng(seed);
  for (size_t i = ids.size(); i > 1; --i) {
    std::swap(ids[i - 1], ids[rng.UniformInt(i)]);
  }
  return ids;
}

/// Seconds for `count` QueryRef calls cycling through `ids` from `offset`.
double HitLoop(RestrictedInterface& iface, const std::vector<NodeId>& ids,
               size_t offset, size_t count) {
  uint64_t sum = 0;
  size_t i = offset % ids.size();
  const Clock::time_point start = Clock::now();
  for (size_t k = 0; k < count; ++k) {
    if (auto view = iface.QueryRef(ids[i])) sum += view->degree();
    if (++i == ids.size()) i = 0;
  }
  const double seconds = SecondsSince(start);
  g_sink.fetch_add(sum, std::memory_order_relaxed);
  return seconds;
}

std::unique_ptr<Sampler> MakeWalker(const std::string& program,
                                    RestrictedInterface& iface, Rng& rng) {
  const NodeId start = static_cast<NodeId>(rng.UniformInt(iface.num_users()));
  return GetWalkProgram(program).MakeWalker(iface, rng, start,
                                            WalkProgramParams{});
}

/// Warm scheduler rate in steps/s at `threads`, stepping as the workload
/// does (free-run or coalesced), with no backend latency.
double SchedulerRate(const SocialNetwork& network, const MicroShape& shape,
                     size_t threads, SpanLog& spans, const char* name,
                     uint64_t run) {
  RestrictedInterface base(network);
  WarmAll(base);
  ConcurrentInterfaceCache session(base);
  CrawlConfig config;
  config.num_walkers = shape.walkers;
  config.num_threads = threads;
  config.coalesce_frontier = shape.coalesce_frontier;
  const std::string program = shape.program;
  CrawlScheduler scheduler(
      session, config, 7,
      [&program](RestrictedInterface& iface, Rng& rng, size_t) {
        return MakeWalker(program, iface, rng);
      });
  const double seconds_per_round =
      SecondsPerOp(spans, name, run, [&](size_t rounds) {
        const Clock::time_point start = Clock::now();
        scheduler.RunRounds(rounds);
        return SecondsSince(start);
      });
  return static_cast<double>(shape.walkers) / seconds_per_round;
}

std::map<std::string, double> RunMicrobenches(const MicroShape& shape,
                                              SpanLog& spans, uint64_t run) {
  std::map<std::string, double> out;
  SpanLog::Scope all(spans, "micro", run);

  // graph: dataset build plus synthetic profiles, as every setup pays it.
  std::unique_ptr<SocialNetwork> network;
  {
    SpanLog::Scope span(spans, "micro.graph.build", run);
    const Clock::time_point start = Clock::now();
    network = std::make_unique<SocialNetwork>(
        SocialNetwork::WithSyntheticProfiles(MakeDataset(shape.dataset),
                                             kProfileSeed));
    out["graph.build_s"] = SecondsSince(start);
  }
  const std::vector<NodeId> ids = ShuffledIds(network->num_users(), 11);

  // net vs runtime read path: cached QueryRef through the plain interface
  // and through the concurrent cache, 1 thread and `threads` threads.
  {
    RestrictedInterface plain(*network);
    WarmAll(plain);
    out["net.query_hit_ns"] =
        1e9 * SecondsPerOp(spans, "micro.net.query_hit", run, [&](size_t n) {
          return HitLoop(plain, ids, 0, n);
        });
  }
  {
    RestrictedInterface base(*network);
    WarmAll(base);
    ConcurrentInterfaceCache cache(base);
    out["runtime.cache.hit_ns_1t"] =
        1e9 * SecondsPerOp(spans, "micro.cache.hit_1t", run, [&](size_t n) {
          return HitLoop(cache, ids, 0, n);
        });
    // Per-thread time per lookup with every thread hitting at once; equal
    // to hit_ns_1t under perfect scaling.
    const size_t T = shape.threads;
    out["runtime.cache.hit_ns_mt"] =
        1e9 * SecondsPerOp(spans, "micro.cache.hit_mt", run, [&](size_t n) {
          std::atomic<size_t> ready{0};
          std::vector<std::thread> threads;
          const Clock::time_point start = Clock::now();
          for (size_t t = 0; t < T; ++t) {
            threads.emplace_back([&, t] {
              ready.fetch_add(1);
              while (ready.load() < T) {
              }
              HitLoop(cache, ids, t * ids.size() / T, n);
            });
          }
          for (auto& thread : threads) thread.join();
          return SecondsSince(start);
        });
  }

  // runtime miss path: first QueryRef of distinct ids through a
  // zero-latency single-backend pool (fresh pool and cache per batch).
  out["runtime.cache.miss_us"] =
      1e6 * SecondsPerOp(
                spans, "micro.cache.miss", run,
                [&](size_t n) {
                  BackendPool pool(*network, {BackendConfig{}}, RetryPolicy{},
                                   BackendSelection::kSharded, 17);
                  ConcurrentInterfaceCache cache(pool);
                  return HitLoop(cache, ids, 0, n);
                },
                ids.size());

  // walk: the step kernel on a warm plain interface, one walker.
  {
    RestrictedInterface plain(*network);
    WarmAll(plain);
    Rng rng(19);
    auto walker = MakeWalker(shape.program, plain, rng);
    out["walk.step_ns"] =
        1e9 * SecondsPerOp(spans, "micro.walk.step", run, [&](size_t n) {
          const Clock::time_point start = Clock::now();
          for (size_t i = 0; i < n; ++i) walker->Step();
          return SecondsSince(start);
        });
  }

  // Round-robin ParallelWalkers baseline vs the scheduler at 1 and
  // `threads` threads, all warm and with the workload's walkers.
  {
    RestrictedInterface plain(*network);
    WarmAll(plain);
    Rng parent(7);
    std::vector<std::unique_ptr<Rng>> rngs;
    std::vector<std::unique_ptr<Sampler>> walkers;
    for (size_t i = 0; i < shape.walkers; ++i) {
      rngs.push_back(std::make_unique<Rng>(parent.Fork(i)));
      walkers.push_back(MakeWalker(shape.program, plain, *rngs.back()));
    }
    ParallelWalkers pool(std::move(walkers));
    out["walk.round_robin_steps_per_s"] =
        static_cast<double>(shape.walkers) /
        SecondsPerOp(spans, "micro.walk.round_robin", run, [&](size_t rounds) {
          const Clock::time_point start = Clock::now();
          for (size_t r = 0; r < rounds; ++r) pool.StepAll();
          return SecondsSince(start);
        });
  }
  const double rate_1t =
      SchedulerRate(*network, shape, 1, spans, "micro.scheduler.1t", run);
  const double rate_mt = SchedulerRate(*network, shape, shape.threads, spans,
                                       "micro.scheduler.mt", run);
  out["runtime.scheduler.steps_per_s_1t"] = rate_1t;
  out["runtime.scheduler.steps_per_s_mt"] = rate_mt;
  out["runtime.scheduler.scaling_eff"] =
      rate_mt / (static_cast<double>(shape.threads) * rate_1t);
  return out;
}

// ---------------------------------------------------------------------------

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

struct Args {
  std::string spec;
  std::string work;
  double seconds = 10.0;
  bool trace = false;
  size_t min_crawls = 3;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--spec") {
      args.spec = value;
    } else if (key == "--work") {
      args.work = value;
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--min-crawls") {
      args.min_crawls = std::stoul(value);
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (args.spec.empty() || args.work.empty()) {
    throw std::invalid_argument(
        "usage: crawlbench --spec FILE --work DIR [--seconds S] [--trace 0|1] "
        "[--min-crawls N]");
  }
  return args;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const JsonValue spec = ParseJsonFile(args.spec);
  const std::string name = spec.At("name").AsString();
  const std::string kind = spec.At("kind").AsString();
  const std::string scenario = spec.At("scenario").AsString();
  if (kind != "service" && kind != "fleet") {
    throw std::invalid_argument("unknown workload kind " + kind);
  }

  SpanLog spans(args.trace);
  JsonValue crawls = JsonValue::Array();
  JsonValue errors = JsonValue::Array();
  std::string last_checkpoint;
  uint64_t run = 0;
  // Closed loop: one crawl after another until the window closes. Trace
  // mode alternates untraced and traced crawls so the tracing overhead is
  // measured under the same conditions.
  const Clock::time_point window_start = Clock::now();
  while (run < args.min_crawls || SecondsSince(window_start) < args.seconds) {
    const bool traced = args.trace && run % 2 == 1;
    try {
      const Crawl crawl =
          kind == "service"
              ? RunServiceCrawl(scenario, traced, args.work, spans, run)
              : RunFleetCrawl(scenario, traced, args.work, spans, run);
      if (!crawl.last_checkpoint.empty()) {
        last_checkpoint = crawl.last_checkpoint;
      }
      crawls.MutableArray().push_back(crawl.record.ToJson());
    } catch (const std::exception& e) {
      JsonValue error = JsonValue::Object();
      error.MutableObject()["run"] = Num(static_cast<double>(run));
      error.MutableObject()["error"] = JsonValue(std::string(e.what()));
      errors.MutableArray().push_back(std::move(error));
    }
    ++run;
  }

  JsonValue doc = JsonValue::Object();
  auto& o = doc.MutableObject();
  o["workload"] = JsonValue(name);
  o["peak_rss_mb"] = Num(PeakRssMb());
  if (args.trace) {
    JsonValue layers = JsonValue::Object();
    if (!last_checkpoint.empty()) {
      layers.MutableObject()["service.checkpoint.load_ms"] =
          Num(kind == "service"
                  ? MeasureServiceLoad(scenario, last_checkpoint, spans, run)
                  : MeasureImageLoad(last_checkpoint, spans, run));
    }
    for (const auto& [key, value] :
         RunMicrobenches(ShapeOf(kind, scenario), spans, run + 1)) {
      layers.MutableObject()[key] = Num(value);
    }
    o["layers"] = std::move(layers);
    const std::string spans_path = args.work + "/" + name + ".spans.json";
    WriteJsonFile(spans_path, spans.ToJson(), 0);
    o["spans_path"] = JsonValue(spans_path);
  }
  if (!last_checkpoint.empty()) std::filesystem::remove(last_checkpoint);
  o["crawls"] = std::move(crawls);
  o["errors"] = std::move(errors);
  o["compiler"] = JsonValue(std::string(__VERSION__));
  std::cout << DumpJson(doc, 0) << "\n";
  return 0;
}

}  // namespace
}  // namespace mto

int main(int argc, char** argv) {
  try {
    return mto::Main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "crawlbench: " << e.what() << "\n";
    return 2;
  }
}
