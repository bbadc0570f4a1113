#include "src/runtime/concurrent_interface_cache.h"

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <utility>

namespace mto {
namespace {

/// Per-thread plan storage. Every fetch path is done with its plan before
/// it returns (lane tasks carry their batch by value), so one plan per
/// thread serves every call and a steady-state fetch allocates no plan.
FetchPlan& ThreadPlan() {
  thread_local FetchPlan plan;
  return plan;
}

/// Sleeps the wall-clock price of `trips` backend round trips.
void SleepRoundTrips(std::chrono::microseconds rtt, uint64_t trips) {
  if (rtt.count() > 0 && trips > 0) {
    std::this_thread::sleep_for(rtt * static_cast<int64_t>(trips));
  }
}

}  // namespace

ConcurrentInterfaceCache::ConcurrentInterfaceCache(RestrictedInterface& base)
    : RestrictedInterface(base.network()), base_(&base) {
  const NodeId n = num_users();
  cached_flags_ = std::make_unique<std::atomic<uint8_t>[]>(n);
  for (NodeId v = 0; v < n; ++v) {
    cached_flags_[v].store(base.IsCached(v) ? 1 : 0,
                           std::memory_order_relaxed);
  }
  // Take over latency simulation: the wrapped session is only the ledger
  // from here on; round trips are slept outside its mutex (see FetchOne).
  SetSimulatedLatency(base.simulated_latency());
  base.SetSimulatedLatency(std::chrono::microseconds(0));
  lanes_ = std::make_unique<SerialChannels>(
      std::max<size_t>(1, base.FetchLanes()));
}

void ConcurrentInterfaceCache::SetPipelineDepth(size_t depth) {
  DrainPipeline();
  pipeline_depth_ = depth;
}

void ConcurrentInterfaceCache::SetObservability(obs::MetricsRegistry* registry,
                                                obs::TraceLog* trace) {
  if (registry == nullptr) {
    metrics_ = CacheMetrics{};
  } else {
    metrics_.hits = registry->GetGauge("cache.hits");
    metrics_.misses = registry->GetCounter("cache.misses");
    metrics_.dedupe_waits = registry->GetCounter("cache.dedupe_waits");
    metrics_.miss_batch = registry->GetHistogram("cache.miss_batch_size");
  }
  lanes_->SetObservability(registry, trace);
}

void ConcurrentInterfaceCache::PublishMetrics() {
  if (metrics_.hits == nullptr || metrics_.misses == nullptr) return;
  metrics_.hits->Set(
      static_cast<int64_t>(TotalRequests() - metrics_.misses->Value()));
}

void ConcurrentInterfaceCache::PostApplyTask(const FetchPlan::Batch& batch) {
  lanes_->Post(batch.backend % lanes_->size(),
               [base = base_, batch, rtt = simulated_latency()] {
                 base->ApplyFetchBatch(batch);  // pure ledger math
                 // The wall-clock price of this backend's round trips.
                 SleepRoundTrips(rtt, batch.trips);
               });
}

void ConcurrentInterfaceCache::DrainPipeline() {
  round_marks_.clear();
  lanes_->Drain();
}

void ConcurrentInterfaceCache::PlanMisses(std::span<const NodeId> misses,
                                          FetchPlan& plan) {
  std::lock_guard<std::mutex> lock(base_mutex_);
  // The plan runs on the caller, in miss order, at every depth: the same
  // state mutations (routing counters, cache marks, cost) the depth-0
  // crawl makes. Only the ledger/latency tail is deferred.
  base_->PlanFetchMisses(misses, plan);
}

void ConcurrentInterfaceCache::FetchFrontierMisses(
    std::span<const NodeId> misses) {
  // One request per distinct uncached frontier id, every one of them a miss.
  total_requests_.fetch_add(misses.size(), std::memory_order_relaxed);
  ObsAdd(metrics_.misses, misses.size());
  ObsRecord(metrics_.miss_batch, misses.size());
  FetchPlan& plan = ThreadPlan();
  PlanMisses(misses, plan);
  // Publish planned outcomes: no query-path thread runs during a frontier
  // fetch, so the flags are set directly. Readers may see these nodes
  // while their round trips are still in flight on the lanes.
  for (size_t i = 0; i < misses.size(); ++i) {
    if (plan.fetched[i] != 0) {
      cached_flags_[misses[i]].store(1, std::memory_order_release);
    }
  }
  for (size_t k = 0; k < plan.batches.size(); ++k) {
    const FetchPlan::Batch& batch = plan.batches[k];
    if (pipeline_depth_ == 0 && k + 1 == plan.batches.size()) {
      // The join below would only wait for the lanes: serve the last
      // backend here, sparing the lane hand-off and wake-up per batch.
      // Plan-order queues keep the ledgers as if a lane had applied it.
      base_->ApplyFetchBatch(batch);
      SleepRoundTrips(simulated_latency(), batch.trips);
    } else {
      PostApplyTask(batch);
    }
  }
  // The lag-k join: at most pipeline_depth_ rounds of posted work may stay
  // in flight; wait out markers older than that (at depth 0, this round's
  // own). This bounds run-ahead and keeps "steps/sec limited by aggregate
  // backend bandwidth" honest — every trip still occupies its lane for one
  // RTT before the crawl can finish.
  round_marks_.push_back(lanes_->Mark());
  while (round_marks_.size() > pipeline_depth_) {
    lanes_->WaitUntil(round_marks_.front());
    round_marks_.pop_front();
  }
}

bool ConcurrentInterfaceCache::FetchOne(NodeId v) {
  const NodeId miss[1] = {v};
  FetchPlan& plan = ThreadPlan();
  PlanMisses(miss, plan);
  // A demand miss is urgent: it applies its batches here, holding nothing
  // but our in-flight claim, instead of queueing behind the lanes' posted
  // frontier backlog (which would turn a one-RTT stall into a multi-round
  // one). The session applies every backend's ops in plan order, so the
  // ledgers come out the same as if the lanes had applied them. The wire
  // time is paid inline.
  uint64_t wire_trips = 0;
  for (const FetchPlan::Batch& batch : plan.batches) {
    base_->ApplyFetchBatch(batch);
    wire_trips += batch.trips;
  }
  SleepRoundTrips(simulated_latency(), wire_trips);
  return plan.fetched[0] != 0;
}

bool ConcurrentInterfaceCache::IsCached(NodeId v) const {
  return v < num_users() &&
         cached_flags_[v].load(std::memory_order_acquire) != 0;
}

std::optional<uint32_t> ConcurrentInterfaceCache::CachedDegree(
    NodeId v) const {
  if (!IsCached(v)) return std::nullopt;
  return network().graph().Degree(v);
}

uint64_t ConcurrentInterfaceCache::QueryCost() const {
  std::lock_guard<std::mutex> lock(base_mutex_);
  return base_->QueryCost();
}

uint64_t ConcurrentInterfaceCache::BackendRequests() const {
  std::lock_guard<std::mutex> lock(base_mutex_);
  return base_->BackendRequests();
}

void ConcurrentInterfaceCache::SetBudget(std::optional<uint64_t> budget) {
  std::lock_guard<std::mutex> lock(base_mutex_);
  base_->SetBudget(budget);
}

void ConcurrentInterfaceCache::SetMaxBatchSize(size_t max_batch_size) {
  std::lock_guard<std::mutex> lock(base_mutex_);
  base_->SetMaxBatchSize(max_batch_size);
}

size_t ConcurrentInterfaceCache::max_batch_size() const {
  std::lock_guard<std::mutex> lock(base_mutex_);
  return base_->max_batch_size();
}

SessionSnapshot ConcurrentInterfaceCache::SnapshotSession() const {
  SessionSnapshot snapshot;
  {
    std::lock_guard<std::mutex> lock(base_mutex_);
    snapshot = base_->SnapshotSession();
  }
  snapshot.total_requests = total_requests_.load(std::memory_order_relaxed);
  return snapshot;
}

void ConcurrentInterfaceCache::RestoreSession(
    const SessionSnapshot& snapshot) {
  DrainPipeline();  // ledgers must be quiescent before rewriting state
  {
    std::lock_guard<std::mutex> lock(base_mutex_);
    base_->RestoreSession(snapshot);
  }
  const NodeId n = num_users();
  for (NodeId v = 0; v < n; ++v) {
    cached_flags_[v].store(base_->IsCached(v) ? 1 : 0,
                           std::memory_order_relaxed);
  }
  total_requests_.store(snapshot.total_requests, std::memory_order_relaxed);
}

void ConcurrentInterfaceCache::Reset() {
  DrainPipeline();
  base_->Reset();
  const NodeId n = num_users();
  for (NodeId v = 0; v < n; ++v) {
    cached_flags_[v].store(0, std::memory_order_relaxed);
  }
  total_requests_.store(0, std::memory_order_relaxed);
}

bool ConcurrentInterfaceCache::ClaimFetch(NodeId v) {
  Shard& s = shard(v);
  std::unique_lock<std::mutex> lock(s.mutex);
  bool counted_wait = false;
  while (true) {
    if (HitCached(v)) return false;
    if (s.in_flight.insert(v).second) return true;  // we own the fetch
    if (!counted_wait) {
      // One dedupe wait per episode, not per spurious wakeup.
      ObsAdd(metrics_.dedupe_waits);
      counted_wait = true;
    }
    s.cv.wait(lock);  // another walker is fetching v; share its response
  }
}

void ConcurrentInterfaceCache::ResolveFetch(NodeId v, bool fetched) {
  Shard& s = shard(v);
  {
    std::lock_guard<std::mutex> lock(s.mutex);
    s.in_flight.erase(v);
    if (fetched) cached_flags_[v].store(1, std::memory_order_release);
  }
  s.cv.notify_all();
}

std::optional<QueryView> ConcurrentInterfaceCache::QueryRef(NodeId v) {
  if (v >= num_users()) {
    throw std::invalid_argument("QueryRef: unknown user id");
  }
  // Hot path: a set flag plus the immutable network is enough to answer
  // without locks or allocations. Hits are deliberately not counted here —
  // PublishMetrics derives them from total_requests_.
  if (HitCached(v)) {
    total_requests_.fetch_add(1, std::memory_order_relaxed);
    return MakeView(v);
  }
  total_requests_.fetch_add(1, std::memory_order_relaxed);
  if (ClaimFetch(v)) {  // else cached while we waited (a hit, derived)
    ObsAdd(metrics_.misses);  // we own the fetch, whatever its outcome
    const bool fetched = FetchOne(v);
    // Walkers racing to `v` wait in ClaimFetch until here, i.e. until the
    // response "arrived".
    ResolveFetch(v, fetched);
    if (!fetched) return std::nullopt;
  }
  return MakeView(v);
}

}  // namespace mto
