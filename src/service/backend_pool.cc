#include "src/service/backend_pool.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "src/util/rng.h"

namespace mto {

void BackendConfig::Validate() const {
  if (rate_per_sec < 0.0) {
    throw std::invalid_argument("BackendConfig: rate_per_sec must be >= 0");
  }
  if (rate_per_sec > 0.0 && burst < 1.0) {
    throw std::invalid_argument("BackendConfig: burst must be >= 1");
  }
  if (latency_sigma < 0.0) {
    throw std::invalid_argument("BackendConfig: latency_sigma must be >= 0");
  }
  if (timeout_rate < 0.0 || error_rate < 0.0 || quota_rate < 0.0 ||
      timeout_rate + error_rate + quota_rate > 1.0) {
    throw std::invalid_argument(
        "BackendConfig: fault rates must be >= 0 and sum to <= 1");
  }
}

const char* BackendSelectionName(BackendSelection selection) {
  switch (selection) {
    case BackendSelection::kSharded: return "sharded";
    case BackendSelection::kRoundRobin: return "round_robin";
    case BackendSelection::kLeastLoaded: return "least_loaded";
    case BackendSelection::kBudgetAware: return "budget_aware";
    case BackendSelection::kRendezvous: return "rendezvous";
  }
  return "?";
}

namespace {

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit permutation. Fixed
/// constants — rendezvous assignments are part of run reproducibility.
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// FNV-1a over the backend name: the stable identity rendezvous scores key
/// on, so a backend's scores survive reordering and fleet changes.
uint64_t HashName(const std::string& name) {
  uint64_t h = 0xCBF29CE484222325ULL;
  for (char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x00000100000001B3ULL;
  }
  return h;
}

}  // namespace

BackendPool::BackendPool(const SocialNetwork& network,
                         std::vector<BackendConfig> backends,
                         RetryPolicy retry, BackendSelection selection,
                         uint64_t fault_seed)
    : RestrictedInterface(network),
      configs_(std::move(backends)),
      retry_(retry),
      selection_(selection),
      fault_seed_(fault_seed) {
  if (configs_.empty()) {
    throw std::invalid_argument("BackendPool: need at least one backend");
  }
  retry_.Validate();
  for (size_t b = 0; b < configs_.size(); ++b) {
    configs_[b].Validate();
    if (configs_[b].name.empty()) {
      configs_[b].name = "key-" + std::to_string(b);
    }
  }
  ledgers_.resize(configs_.size());
  for (size_t b = 0; b < configs_.size(); ++b) {
    ledgers_[b].bucket_tokens = configs_[b].burst;  // buckets start full
  }
  ledger_mutexes_ = std::make_unique<std::mutex[]>(configs_.size());
  pending_.resize(configs_.size());
  pending_head_.assign(configs_.size(), 0);
  name_hashes_.reserve(configs_.size());
  for (const BackendConfig& config : configs_) {
    name_hashes_.push_back(HashName(config.name));
  }
  SyncRoutingCounters();
}

void BackendPool::SyncRoutingCounters() {
  routed_requests_.assign(ledgers_.size(), 0);
  routed_unique_.assign(ledgers_.size(), 0);
  for (size_t b = 0; b < ledgers_.size(); ++b) {
    routed_requests_[b] = ledgers_[b].stats.requests;
    routed_unique_[b] = ledgers_[b].stats.unique_queries;
  }
}

BackendStats BackendPool::backend_stats(size_t b) const {
  std::lock_guard<std::mutex> lock(ledger_mutexes_[b]);
  return ledgers_[b].stats;
}

std::vector<BackendStats> BackendPool::AllBackendStats() const {
  std::vector<BackendStats> stats;
  stats.reserve(ledgers_.size());
  for (size_t b = 0; b < ledgers_.size(); ++b) stats.push_back(backend_stats(b));
  return stats;
}

uint64_t BackendPool::BackendRequests() const {
  uint64_t total = 0;
  for (size_t b = 0; b < ledgers_.size(); ++b) {
    std::lock_guard<std::mutex> lock(ledger_mutexes_[b]);
    total += ledgers_[b].stats.requests;
  }
  return total;
}

uint64_t BackendPool::SimulatedTimeUs() const {
  uint64_t max_clock = 0;
  for (size_t b = 0; b < ledgers_.size(); ++b) {
    std::lock_guard<std::mutex> lock(ledger_mutexes_[b]);
    max_clock = std::max(max_clock, ledgers_[b].clock_us);
  }
  return max_clock;
}

void BackendPool::PublishMetrics(obs::MetricsRegistry& registry) const {
  const auto set = [&](const char* name, const std::string& backend,
                       uint64_t value) {
    registry.GetGauge(name, "backend", backend)
        ->Set(static_cast<int64_t>(value));
  };
  uint64_t pool_requests = 0;
  uint64_t pool_clock = 0;
  for (size_t b = 0; b < ledgers_.size(); ++b) {
    const std::string& name = configs_[b].name;
    BackendStats s;
    uint64_t clock;
    {
      std::lock_guard<std::mutex> lock(ledger_mutexes_[b]);
      s = ledgers_[b].stats;
      clock = ledgers_[b].clock_us;
    }
    set("backend.requests", name, s.requests);
    set("backend.unique_queries", name, s.unique_queries);
    set("backend.failed_requests", name, s.failed_requests);
    set("backend.timeouts", name, s.timeouts);
    set("backend.transient_errors", name, s.transient_errors);
    set("backend.quota_rejections", name, s.quota_rejections);
    set("backend.budget_refusals", name, s.budget_refusals);
    set("backend.pacing_waits", name, s.pacing_waits);
    set("backend.simulated_us", name, s.simulated_us);
    if (configs_[b].budget) {
      const uint64_t budget = *configs_[b].budget;
      set("backend.budget_remaining", name,
          budget > s.unique_queries ? budget - s.unique_queries : 0);
    }
    pool_requests += s.requests;
    pool_clock = std::max(pool_clock, clock);
  }
  registry.GetGauge("pool.backend_requests")
      ->Set(static_cast<int64_t>(pool_requests));
  registry.GetGauge("pool.failed_fetches")
      ->Set(static_cast<int64_t>(failed_fetches_));
  registry.GetGauge("pool.simulated_us")
      ->Set(static_cast<int64_t>(pool_clock));
}

BackendPool::PoolSnapshot BackendPool::SnapshotBackends() const {
  PoolSnapshot snapshot;
  snapshot.ledgers.reserve(ledgers_.size());
  for (size_t b = 0; b < ledgers_.size(); ++b) {
    std::lock_guard<std::mutex> lock(ledger_mutexes_[b]);
    snapshot.ledgers.push_back(ledgers_[b]);
  }
  snapshot.round_robin_cursor = round_robin_cursor_;
  snapshot.failed_fetches = failed_fetches_;
  return snapshot;
}

void BackendPool::RestoreBackends(const PoolSnapshot& snapshot) {
  if (snapshot.ledgers.size() != ledgers_.size()) {
    throw std::invalid_argument(
        "RestoreBackends: backend count mismatch with snapshot");
  }
  ledgers_ = snapshot.ledgers;
  round_robin_cursor_ = snapshot.round_robin_cursor;
  failed_fetches_ = snapshot.failed_fetches;
  ClearPending();
  SyncRoutingCounters();
}

void BackendPool::Reset() {
  RestrictedInterface::Reset();
  for (size_t b = 0; b < ledgers_.size(); ++b) {
    ledgers_[b] = BackendLedger{};
    ledgers_[b].bucket_tokens = configs_[b].burst;
  }
  round_robin_cursor_ = 0;
  failed_fetches_ = 0;
  ClearPending();
  SyncRoutingCounters();
}

void BackendPool::ClearPending() {
  for (size_t b = 0; b < pending_.size(); ++b) {
    pending_[b].clear();
    pending_head_[b] = 0;
  }
}

uint64_t BackendPool::RendezvousScore(size_t b, NodeId v) const {
  return Mix64(name_hashes_[b] ^ Mix64(v));
}

void BackendPool::SelectionOrder(NodeId v, std::vector<size_t>& order) {
  const size_t n = configs_.size();
  order.clear();
  if (selection_ == BackendSelection::kRendezvous) {
    // Descending score order. Score ties (only possible with duplicate
    // backend names) break toward fewer planned requests — the plan-time
    // load tie-break — then lower index, so the order is a deterministic
    // function of (node, routing counters). Budget-spent backends then sort
    // behind every live one: a spent key is excluded from primary duty
    // instead of answering with a refusal, but stays reachable as a last
    // resort so an all-spent pool still reports refusals.
    for (size_t b = 0; b < n; ++b) order.push_back(b);
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      const uint64_t score_a = RendezvousScore(a, v);
      const uint64_t score_b = RendezvousScore(b, v);
      if (score_a != score_b) return score_a > score_b;
      if (routed_requests_[a] != routed_requests_[b]) {
        return routed_requests_[a] < routed_requests_[b];
      }
      return a < b;
    });
    std::stable_partition(order.begin(), order.end(), [&](size_t b) {
      return !configs_[b].budget || routed_unique_[b] < *configs_[b].budget;
    });
    return;
  }
  size_t primary = 0;
  switch (selection_) {
    case BackendSelection::kSharded:
      primary = v % n;
      break;
    case BackendSelection::kRendezvous:
      break;  // handled above
    case BackendSelection::kRoundRobin:
      primary = static_cast<size_t>(round_robin_cursor_++ % n);
      break;
    case BackendSelection::kLeastLoaded: {
      uint64_t best = routed_requests_[0];
      for (size_t b = 1; b < n; ++b) {
        if (routed_requests_[b] < best) {
          best = routed_requests_[b];
          primary = b;
        }
      }
      break;
    }
    case BackendSelection::kBudgetAware: {
      auto remaining = [&](size_t b) -> uint64_t {
        if (!configs_[b].budget) return UINT64_MAX;
        const uint64_t spent = routed_unique_[b];
        return *configs_[b].budget > spent ? *configs_[b].budget - spent : 0;
      };
      uint64_t best = remaining(0);
      for (size_t b = 1; b < n; ++b) {
        const uint64_t r = remaining(b);
        if (r > best || (r == best && routed_unique_[b] <
                                          routed_unique_[primary])) {
          best = r;
          primary = b;
        }
      }
      break;
    }
  }
  for (size_t i = 0; i < n; ++i) order.push_back((primary + i) % n);
}

void BackendPool::PaceRequest(size_t b) {
  const BackendConfig& config = configs_[b];
  if (config.rate_per_sec <= 0.0) return;
  BackendLedger& ledger = ledgers_[b];
  const double rate_per_us = config.rate_per_sec / 1e6;
  ledger.bucket_tokens = std::min(
      config.burst, ledger.bucket_tokens +
                        static_cast<double>(ledger.clock_us -
                                            ledger.last_refill_us) *
                            rate_per_us);
  ledger.last_refill_us = ledger.clock_us;
  if (ledger.bucket_tokens < 1.0) {
    const uint64_t wait_us = static_cast<uint64_t>(
        std::ceil((1.0 - ledger.bucket_tokens) / rate_per_us));
    ledger.clock_us += wait_us;
    ledger.bucket_tokens =
        std::min(config.burst, ledger.bucket_tokens +
                                   static_cast<double>(wait_us) * rate_per_us);
    ledger.last_refill_us = ledger.clock_us;
    ++ledger.stats.pacing_waits;
    ledger.stats.simulated_us += wait_us;
  }
  ledger.bucket_tokens -= 1.0;
}

BackendPool::AttemptDraw BackendPool::DrawAttempt(size_t b, NodeId v,
                                                  uint64_t attempt) const {
  const BackendConfig& config = configs_[b];
  // One pure-function stream per (backend, node, attempt): latency first,
  // then the fault draw — arrival order never enters.
  Rng stream = Rng(fault_seed_).Fork(b).Fork(v).Fork(attempt);
  AttemptDraw draw;
  draw.latency_us = config.latency_mean_us;
  if (config.latency_mean_us > 0 && config.latency_sigma > 0.0) {
    const double sigma = config.latency_sigma;
    const double mu = std::log(static_cast<double>(config.latency_mean_us)) -
                      0.5 * sigma * sigma;  // keeps the mean at latency_mean_us
    draw.latency_us = static_cast<uint64_t>(stream.LogNormal(mu, sigma));
  }
  const double u = stream.UniformDouble();
  if (u < config.timeout_rate) {
    draw.fault = Fault::kTimeout;
  } else if (u < config.timeout_rate + config.error_rate) {
    draw.fault = Fault::kTransientError;
  } else if (u < config.timeout_rate + config.error_rate +
                     config.quota_rate) {
    draw.fault = Fault::kQuotaRejected;
  }
  return draw;
}

BackendPool::PlanScratch& BackendPool::ThreadScratch() {
  thread_local PlanScratch scratch;
  return scratch;
}

void BackendPool::PreparePlan(NodeId v) const {
  const size_t n = configs_.size();
  if (n != 1 && selection_ != BackendSelection::kSharded) return;
  PlanScratch& scratch = ThreadScratch();
  scratch.prepared_pool = this;
  scratch.prepared_node = v;
  scratch.prepared_backend = v % n;
  scratch.prepared_draw = DrawAttempt(v % n, v, 0);
}

bool BackendPool::PlanOne(NodeId v, PlanScratch& scratch) {
  SelectionOrder(v, scratch.order);
  uint64_t attempt = 0;
  for (size_t b : scratch.order) {
    const BackendConfig& config = configs_[b];
    for (size_t a = 0; a < retry_.max_attempts_per_backend; ++a, ++attempt) {
      if (config.budget && routed_unique_[b] >= *config.budget) {
        scratch.per_backend[b].push_back(
            {v, static_cast<uint32_t>(attempt), 1, AttemptDraw{}});
        break;  // this key is spent; fail over
      }
      ++routed_requests_[b];
      const bool prepared = attempt == 0 && scratch.prepared_pool == this &&
                            scratch.prepared_node == v &&
                            scratch.prepared_backend == b;
      const AttemptDraw draw =
          prepared ? scratch.prepared_draw : DrawAttempt(b, v, attempt);
      scratch.per_backend[b].push_back(
          {v, static_cast<uint32_t>(attempt), 0, draw});
      if (draw.fault == Fault::kNone) {
        ++routed_unique_[b];
        ChargeFetch();
        return true;
      }
    }
  }
  ++failed_fetches_;
  return false;
}

void BackendPool::ApplyFetchBatch(const FetchPlan::Batch& batch) {
  const size_t b = batch.backend;
  std::lock_guard<std::mutex> lock(ledger_mutexes_[b]);
  std::vector<LedgerOp>& queue = pending_[b];
  size_t& head = pending_head_[b];
  if (queue.size() - head < batch.ops) {
    throw std::logic_error("ApplyFetchBatch: batch was never planned");
  }
  const BackendConfig& config = configs_[b];
  BackendLedger& ledger = ledgers_[b];
  for (size_t i = head; i < head + batch.ops; ++i) {
    const LedgerOp& op = queue[i];
    if (op.refusal != 0) {
      ++ledger.stats.budget_refusals;
      continue;
    }
    PaceRequest(b);
    const AttemptDraw& draw = op.draw;
    ledger.clock_us += draw.latency_us;
    ledger.stats.simulated_us += draw.latency_us;
    ++ledger.stats.requests;
    if (draw.fault == Fault::kNone) {
      ++ledger.stats.unique_queries;
      continue;
    }
    ++ledger.stats.failed_requests;
    switch (draw.fault) {
      case Fault::kTimeout:
        ++ledger.stats.timeouts;
        ledger.clock_us += config.timeout_us;
        ledger.stats.simulated_us += config.timeout_us;
        break;
      case Fault::kTransientError:
        ++ledger.stats.transient_errors;
        break;
      case Fault::kQuotaRejected:
        ++ledger.stats.quota_rejections;
        break;
      case Fault::kNone:
        break;
    }
    const uint64_t backoff_us =
        retry_.BackoffUs(fault_seed_, op.node, op.attempt);
    ledger.clock_us += backoff_us;
    ledger.stats.simulated_us += backoff_us;
  }
  head += batch.ops;
  // Reuse the queue's storage: reset it whenever it drains, and compact a
  // long-lived backlog so a queue that never quite empties stays bounded.
  if (head == queue.size()) {
    queue.clear();
    head = 0;
  } else if (head >= 1024 && 2 * head >= queue.size()) {
    queue.erase(queue.begin(), queue.begin() + static_cast<ptrdiff_t>(head));
    head = 0;
  }
}

void BackendPool::PlanFetchMisses(std::span<const NodeId> misses,
                                  FetchPlan& plan) {
  PlanScratch& scratch = ThreadScratch();
  const size_t n = configs_.size();
  if (scratch.per_backend.size() < n) scratch.per_backend.resize(n);
  for (size_t b = 0; b < n; ++b) scratch.per_backend[b].clear();
  plan.batches.clear();
  plan.fetched.assign(misses.size(), 0);
  for (size_t i = 0; i < misses.size(); ++i) {
    if (BudgetExhausted()) break;  // pool-wide cap, same as the base model
    plan.fetched[i] = PlanOne(misses[i], scratch) ? 1 : 0;
  }
  scratch.prepared_pool = nullptr;  // a prepared draw serves one plan
  for (size_t b = 0; b < n; ++b) {
    const std::vector<LedgerOp>& ops = scratch.per_backend[b];
    if (ops.empty()) continue;
    uint32_t trips = 0;
    for (const LedgerOp& op : ops) {
      if (op.refusal == 0) ++trips;
    }
    {
      std::lock_guard<std::mutex> lock(ledger_mutexes_[b]);
      pending_[b].insert(pending_[b].end(), ops.begin(), ops.end());
    }
    plan.batches.push_back(
        {static_cast<uint32_t>(b), static_cast<uint32_t>(ops.size()), trips});
  }
}

}  // namespace mto
