#include "src/runtime/concurrent_interface_cache.h"

#include <algorithm>
#include <mutex>
#include <stdexcept>
#include <utility>

namespace mto {
namespace {

/// The calling thread's request slot: threads are dealt slots round-robin
/// on their first count, process-wide.
size_t ThreadRequestSlot(size_t slots) {
  static std::atomic<size_t> next_ticket{0};
  thread_local const size_t ticket =
      next_ticket.fetch_add(1, std::memory_order_relaxed);
  return ticket % slots;
}

}  // namespace

ConcurrentInterfaceCache::ConcurrentInterfaceCache(RestrictedInterface& base)
    : RestrictedInterface(SharedLedger{base}),
      base_(&base),
      request_slots_(std::make_unique<RequestSlot[]>(kRequestSlots)),
      lanes_(std::make_unique<SerialChannels>(
          std::max<size_t>(1, base.FetchLanes()))) {}

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
    metrics_.plan_lock_waits = registry->GetCounter("cache.plan_lock_waits");
    published_lock_waits_ = plan_lock_.parks();  // count from attach on
    metrics_.miss_batch = registry->GetHistogram("cache.miss_batch_size");
  }
  lanes_->SetObservability(registry, trace);
}

void ConcurrentInterfaceCache::CountRequests(uint64_t n) {
  request_slots_[ThreadRequestSlot(kRequestSlots)].count.fetch_add(
      n, std::memory_order_relaxed);
}

uint64_t ConcurrentInterfaceCache::TotalRequests() const {
  uint64_t total = 0;
  for (size_t i = 0; i < kRequestSlots; ++i) {
    total += request_slots_[i].count.load(std::memory_order_relaxed);
  }
  return total;
}

void ConcurrentInterfaceCache::PublishMetrics() {
  if (metrics_.hits == nullptr || metrics_.misses == nullptr) return;
  metrics_.hits->Set(
      static_cast<int64_t>(TotalRequests() - metrics_.misses->Value()));
  const uint64_t parks = plan_lock_.parks();
  metrics_.plan_lock_waits->Add(parks - published_lock_waits_);
  published_lock_waits_ = parks;
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
  std::lock_guard<SpinParkLock> lock(plan_lock_);
  // The plan runs on the caller, in miss order, at every depth: the same
  // state mutations (routing counters, cost) the depth-0 crawl makes. Only
  // the ledger/latency tail is deferred.
  base_->PlanFetchMisses(misses, plan);
}

void ConcurrentInterfaceCache::FetchFrontierMisses(
    std::span<const NodeId> misses) {
  // One request per distinct uncached frontier id, every one of them a miss.
  CountRequests(misses.size());
  ObsAdd(metrics_.misses, misses.size());
  ObsRecord(metrics_.miss_batch, misses.size());
  FetchPlan& plan = ThreadPlan();
  PlanMisses(misses, plan);
  // Cache the planned outcomes: no query-path thread runs during a
  // frontier fetch, so the flags are set directly. Readers may see these
  // nodes while their round trips are still in flight on the lanes.
  CacheFetched(misses, plan);
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
  base_->PreparePlan(v);  // the pure part, outside the plan lock
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

uint64_t ConcurrentInterfaceCache::BackendRequests() const {
  std::lock_guard<SpinParkLock> lock(plan_lock_);
  return base_->BackendRequests();
}

void ConcurrentInterfaceCache::RestoreSession(
    const SessionSnapshot& snapshot) {
  DrainPipeline();  // ledgers must be quiescent before rewriting state
  base_->RestoreSession(snapshot);
  StoreTotalRequests(snapshot.total_requests);
}

void ConcurrentInterfaceCache::Reset() {
  DrainPipeline();
  base_->Reset();
  StoreTotalRequests(0);
}

void ConcurrentInterfaceCache::StoreTotalRequests(uint64_t total) {
  request_slots_[0].count.store(total, std::memory_order_relaxed);
  for (size_t i = 1; i < kRequestSlots; ++i) {
    request_slots_[i].count.store(0, std::memory_order_relaxed);
  }
}

bool ConcurrentInterfaceCache::ClaimFetch(NodeId v) {
  std::atomic<uint8_t>& flag = CacheFlag(v);
  bool counted_wait = false;
  while (true) {
    uint8_t state = kUncached;
    if (flag.compare_exchange_strong(state, kClaimed,
                                     std::memory_order_acquire)) {
      return true;  // we own the fetch
    }
    if (state == kCached) return false;
    if (!counted_wait) {
      // One dedupe wait per episode, not per spurious wakeup.
      ObsAdd(metrics_.dedupe_waits);
      counted_wait = true;
    }
    // Another walker is fetching v: share its response, or claim v
    // ourselves if it was refused.
    flag.wait(kClaimed, std::memory_order_acquire);
  }
}

void ConcurrentInterfaceCache::ResolveFetch(NodeId v, bool fetched) {
  std::atomic<uint8_t>& flag = CacheFlag(v);
  flag.store(fetched ? kCached : kUncached, std::memory_order_release);
  flag.notify_all();
}

std::optional<QueryView> ConcurrentInterfaceCache::QueryRef(NodeId v) {
  if (v >= num_users()) {
    throw std::invalid_argument("QueryRef: unknown user id");
  }
  // Hot path: a set flag plus the immutable network is enough to answer
  // without locks or allocations. Hits are deliberately not counted here —
  // PublishMetrics derives them from TotalRequests().
  CountRequests(1);
  if (HitCached(v)) return MakeView(v);
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
