#include "src/runtime/crawl_scheduler.h"

#include <stdexcept>
#include <unordered_set>

#include "src/core/mto_sampler.h"
#include "src/runtime/concurrent_interface_cache.h"

namespace mto {

CrawlScheduler::CrawlScheduler(RestrictedInterface& interface,
                               const CrawlConfig& config, uint64_t seed,
                               const WalkerFactory& factory)
    : interface_(&interface), config_(config) {
  if (config.num_walkers == 0) {
    throw std::invalid_argument("CrawlScheduler: num_walkers must be >= 1");
  }
  if (!factory) {
    throw std::invalid_argument("CrawlScheduler: null walker factory");
  }
  // The scheduler owns the execution shape (threads, stepping mode,
  // pipeline depth); when the session is the concurrent cache, configure
  // its join lag here so every construction site inherits the CrawlConfig
  // choice.
  cache_ = dynamic_cast<ConcurrentInterfaceCache*>(&interface);
  if (cache_ != nullptr) cache_->SetPipelineDepth(config.pipeline_depth);
  // Fork per-walker streams in index order: walker i's stream is a function
  // of (seed, i) only, never of num_walkers' layout or num_threads.
  Rng parent(seed);
  rngs_.reserve(config.num_walkers);
  walkers_.reserve(config.num_walkers);
  for (size_t i = 0; i < config.num_walkers; ++i) {
    rngs_.push_back(std::make_unique<Rng>(parent.Fork(i)));
    auto walker = factory(interface, *rngs_.back(), i);
    if (walker == nullptr) {
      throw std::invalid_argument("CrawlScheduler: factory returned null");
    }
    walkers_.push_back(std::move(walker));
  }
  pool_ = std::make_unique<ThreadPool>(config.num_threads);
  proposals_.resize(walkers_.size());
  peeks_.resize(walkers_.size());
}

CrawlScheduler::~CrawlScheduler() = default;

void CrawlScheduler::SetObservability(obs::MetricsRegistry* registry,
                                      obs::TraceLog* trace) {
  trace_ = trace;
  if (registry == nullptr) {
    metrics_ = SchedulerMetrics{};
  } else {
    metrics_.rounds = registry->GetCounter("scheduler.rounds");
    metrics_.steps = registry->GetCounter("scheduler.steps");
    if (!config_.program_label.empty()) {
      metrics_.rounds_labeled = registry->GetCounter(
          "scheduler.rounds", "program", config_.program_label);
      metrics_.steps_labeled = registry->GetCounter(
          "scheduler.steps", "program", config_.program_label);
    }
    metrics_.speculative_commits =
        registry->GetGauge("scheduler.speculative_commits");
    metrics_.speculation_hits =
        registry->GetGauge("scheduler.speculation_hits");
  }
  if (cache_ != nullptr) cache_->SetObservability(registry, trace);
}

void CrawlScheduler::RefreshSpeculationGauges() {
  if (metrics_.speculative_commits == nullptr) return;
  int64_t commits = 0;
  int64_t hits = 0;
  for (const auto& walker : walkers_) {
    if (const auto* mto = dynamic_cast<const MtoSampler*>(walker.get())) {
      commits += static_cast<int64_t>(mto->speculative_commits());
      hits += static_cast<int64_t>(mto->speculation_hits());
    }
  }
  metrics_.speculative_commits->Set(commits);
  metrics_.speculation_hits->Set(hits);
}

void CrawlScheduler::RunRounds(size_t rounds,
                               std::vector<double>* diagnostics) {
  obs::TraceSpan span(trace_, "scheduler.rounds", rounds);
  if (config_.coalesce_frontier) {
    for (size_t r = 0; r < rounds; ++r) RunCoalescedRound(diagnostics);
  } else {
    RunFreeRounds(rounds, diagnostics);
  }
  // RunRounds boundaries are unit boundaries for the service layer
  // (checkpoints, ledger/stat reads): leave the lanes quiescent.
  if (cache_ != nullptr) cache_->DrainPipeline();
  total_steps_ += rounds * walkers_.size();
  ObsAdd(metrics_.rounds, rounds);
  ObsAdd(metrics_.steps, rounds * walkers_.size());
  ObsAdd(metrics_.rounds_labeled, rounds);
  ObsAdd(metrics_.steps_labeled, rounds * walkers_.size());
  // Passive read of the walkers' own speculation counters — legal here
  // because no walker is running between RunRounds calls.
  RefreshSpeculationGauges();
}

void CrawlScheduler::RunFreeRounds(size_t rounds,
                                   std::vector<double>* diagnostics) {
  const size_t W = walkers_.size();
  size_t diag_base = 0;
  if (diagnostics != nullptr) {
    diag_base = diagnostics->size();
    diagnostics->resize(diag_base + rounds * W);
  }
  pool_->Run([&](size_t t) {
    auto [begin, end] = ThreadPool::BlockRange(W, pool_->size(), t);
    for (size_t i = begin; i < end; ++i) {
      Sampler& w = *walkers_[i];
      if (diagnostics == nullptr) {
        // Hot path: no per-round bookkeeping, best cache locality.
        for (size_t r = 0; r < rounds; ++r) w.Step();
      } else {
        for (size_t r = 0; r < rounds; ++r) {
          w.Step();
          // Disjoint slot per (round, walker); round-major, walker order.
          (*diagnostics)[diag_base + r * W + i] =
              w.CurrentDegreeForDiagnostic();
        }
      }
    }
  });
}

void CrawlScheduler::RunCoalescedRound(std::vector<double>* diagnostics) {
  obs::TraceSpan round_span(trace_, "round.coalesced");
  const size_t W = walkers_.size();
  // Phase 1 (parallel): draw or peek step targets; proposals never fetch.
  pool_->Run([&](size_t t) {
    auto [begin, end] = ThreadPool::BlockRange(W, pool_->size(), t);
    for (size_t i = begin; i < end; ++i) {
      Sampler& w = *walkers_[i];
      proposals_[i] = w.step_protocol() == StepProtocol::kSingleStep
                          ? std::nullopt
                          : w.ProposeStep();
    }
  });
  // Phase 2 (coordinator): fetch the deduplicated frontier in bulk. Only
  // uncached targets go to the backend. Through the concurrent cache the
  // frontier is planned here and its round trips ride the fetch lanes;
  // with pipeline_depth k >= 1 the fetch returns once the outcomes are
  // *planned* (cache marked, costs charged), leaving up to k rounds of
  // latency in flight while phase 3 commits. A bare interface serves the
  // frontier through its bulk endpoint, max_batch_size() ids per trip.
  frontier_.clear();
  {
    std::unordered_set<NodeId> seen;
    for (size_t i = 0; i < W; ++i) {
      if (!proposals_[i]) continue;
      const NodeId v = *proposals_[i];
      if (!interface_->IsCached(v) && seen.insert(v).second) {
        frontier_.push_back(v);
      }
    }
  }
  if (!frontier_.empty()) {
    obs::TraceSpan fetch_span(trace_, "frontier.fetch", frontier_.size());
    if (cache_ != nullptr) {
      cache_->FetchFrontier(frontier_);
    } else {
      interface_->BatchQuery(frontier_);
    }
  }
  // Phase 3 (parallel): commit against the now-warm cache. kTwoPhase walks
  // move (only) to their announced target; kSpeculative walks re-validate
  // their speculation inside CommitStep (or take a plain Step when there
  // was nothing to prefetch); kSingleStep walks take their whole step here.
  size_t diag_base = 0;
  if (diagnostics != nullptr) {
    diag_base = diagnostics->size();
    diagnostics->resize(diag_base + W);
  }
  pool_->Run([&](size_t t) {
    auto [begin, end] = ThreadPool::BlockRange(W, pool_->size(), t);
    for (size_t i = begin; i < end; ++i) {
      Sampler& w = *walkers_[i];
      switch (w.step_protocol()) {
        case StepProtocol::kSingleStep:
          w.Step();
          break;
        case StepProtocol::kTwoPhase:
          if (proposals_[i]) w.CommitStep(*proposals_[i]);
          break;
        case StepProtocol::kSpeculative:
          if (proposals_[i]) {
            w.CommitStep(*proposals_[i]);
          } else {
            w.Step();
          }
          break;
      }
      if (diagnostics != nullptr) {
        (*diagnostics)[diag_base + i] = w.CurrentDegreeForDiagnostic();
      }
    }
  });
  // Phase 4 (pipeline_depth >= 1 only; parallel peek, then coordinator
  // publish): ask each walker for its predicted next targets — pure reads
  // on saved RNG state, so this perturbs nothing — and turn them into
  // prefetch tickets. The hints call runs even when empty: it is the
  // deterministic invalidation point for the previous round's stale
  // tickets.
  if (cache_ == nullptr || config_.pipeline_depth == 0) return;
  const size_t width = config_.pipeline_depth;
  pool_->Run([&](size_t t) {
    auto [begin, end] = ThreadPool::BlockRange(W, pool_->size(), t);
    for (size_t i = begin; i < end; ++i) {
      peeks_[i].clear();
      walkers_[i]->PeekNextTargets(width, peeks_[i]);
    }
  });
  predicted_.clear();
  for (size_t i = 0; i < W; ++i) {
    for (NodeId v : peeks_[i]) predicted_.push_back(v);
  }
  cache_->PostPrefetchHints(predicted_);
}

std::vector<CrawlScheduler::WalkerState> CrawlScheduler::SnapshotWalkers()
    const {
  std::vector<WalkerState> states;
  states.reserve(walkers_.size());
  for (size_t i = 0; i < walkers_.size(); ++i) {
    states.push_back({walkers_[i]->current(), rngs_[i]->SaveState(),
                      walkers_[i]->PreviousNode()});
  }
  return states;
}

void CrawlScheduler::RestoreWalkers(const std::vector<WalkerState>& states,
                                    uint64_t total_steps) {
  if (states.size() != walkers_.size()) {
    throw std::invalid_argument(
        "RestoreWalkers: walker count mismatch with snapshot");
  }
  for (size_t i = 0; i < walkers_.size(); ++i) {
    walkers_[i]->Teleport(states[i].position);
    // After the Teleport: teleports clear the second-order register on
    // walks that carry one, and the snapshot's value must win.
    walkers_[i]->RestorePrevious(states[i].previous);
    rngs_[i]->RestoreState(states[i].rng_state);
  }
  total_steps_ = total_steps;
}

std::vector<NodeId> CrawlScheduler::Positions() const {
  std::vector<NodeId> out;
  out.reserve(walkers_.size());
  for (const auto& w : walkers_) out.push_back(w->current());
  return out;
}

}  // namespace mto
