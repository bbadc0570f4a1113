#include "src/runtime/concurrent_interface_cache.h"

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <unordered_map>
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
  // from here on; round trips are slept outside its mutex (see Query).
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
    metrics_.prefetch_issued = registry->GetCounter("prefetch.issued");
    metrics_.prefetch_consumed = registry->GetCounter("prefetch.consumed");
    metrics_.prefetch_mispredicted =
        registry->GetCounter("prefetch.mispredicted");
    metrics_.prefetch_stale = registry->GetCounter("prefetch.stale_cancelled");
  }
  lanes_->SetObservability(registry, trace);
}

void ConcurrentInterfaceCache::PublishMetrics() {
  if (metrics_.hits == nullptr || metrics_.misses == nullptr) return;
  metrics_.hits->Set(
      static_cast<int64_t>(TotalRequests() - metrics_.misses->Value()));
}

void ConcurrentInterfaceCache::CancelTicket(PrefetchTicket& ticket) {
  {
    std::lock_guard<std::mutex> lock(ticket.mutex);
    ticket.cancelled = true;
  }
  ticket.cv.notify_all();
}

void ConcurrentInterfaceCache::PostApplyTask(const FetchPlan::Batch& batch,
                                             uint32_t prepaid,
                                             std::function<void()> on_done) {
  lanes_->Post(batch.backend % lanes_->size(),
               [base = base_, batch, prepaid, rtt = simulated_latency(),
                on_done = std::move(on_done)] {
                 // on_done fires even when the apply throws (the lane
                 // records the error), so a joiner never waits forever.
                 struct Finally {
                   const std::function<void()>& fn;
                   ~Finally() {
                     if (fn) fn();
                   }
                 } finally{on_done};
                 base->ApplyFetchBatch(batch);  // pure ledger math
                 // The wall-clock price of this backend's round trips,
                 // minus the trips its prefetch tickets already slept on
                 // this same FIFO lane (total lane busy time is conserved:
                 // prepaid trips merely started earlier).
                 SleepRoundTrips(rtt, batch.trips - prepaid);
               });
}

void ConcurrentInterfaceCache::DrainPipeline() {
  {
    std::lock_guard<std::mutex> lock(base_mutex_);
    ObsAdd(metrics_.prefetch_stale, tickets_.size());
    for (auto& entry : tickets_) CancelTicket(*entry.second);
    tickets_.clear();
  }
  round_marks_.clear();
  lanes_->Drain();
}

std::vector<std::optional<QueryResult>>
ConcurrentInterfaceCache::LockedBatchFetch(std::span<const NodeId> ids) {
  uint64_t trips = 0;
  std::vector<std::optional<QueryResult>> results;
  {
    std::lock_guard<std::mutex> lock(base_mutex_);
    const uint64_t before = base_->BackendRequests();
    results = base_->BatchQuery(ids);
    trips = base_->BackendRequests() - before;
  }
  SleepRoundTrips(simulated_latency(), trips);
  return results;
}

void ConcurrentInterfaceCache::FetchFrontier(
    std::span<const NodeId> frontier) {
  for (NodeId v : frontier) {
    if (v >= num_users()) {
      throw std::invalid_argument("FetchFrontier: unknown user id");
    }
  }
  // Mirror BatchQuery's request accounting: one request per frontier slot,
  // every one of them a miss by contract.
  total_requests_.fetch_add(frontier.size(), std::memory_order_relaxed);
  if (frontier.empty()) return;
  ObsAdd(metrics_.misses, frontier.size());
  ObsRecord(metrics_.miss_batch, frontier.size());

  FetchPlan& plan = ThreadPlan();
  bool planned = false;
  std::vector<std::shared_ptr<PrefetchTicket>> consumed;
  {
    std::lock_guard<std::mutex> lock(base_mutex_);
    // The plan runs on the coordinator, in frontier order, at every depth:
    // the same state mutations (routing counters, cache marks, cost) the
    // depth-0 crawl makes. Only the ledger/latency tail rides the lanes.
    planned = base_->PlanFetchMisses(frontier, plan);
    if (planned && !tickets_.empty()) {
      consumed.resize(frontier.size());
      for (size_t i = 0; i < frontier.size(); ++i) {
        auto it = tickets_.find(frontier[i]);
        if (it != tickets_.end()) {
          consumed[i] = std::move(it->second);
          tickets_.erase(it);
        }
      }
    }
  }
  if (!planned) {
    const auto results = LockedBatchFetch(frontier);
    for (size_t i = 0; i < frontier.size(); ++i) {
      if (results[i].has_value()) {
        cached_flags_[frontier[i]].store(1, std::memory_order_release);
      }
    }
    return;
  }

  // Speculation validation: a consumed ticket prepays one round trip on its
  // lane iff it predicted the node's actual first-request backend; a
  // mispredicted (or never-requested) node's ticket is cancelled so the
  // wrong lane frees early. Both outcomes are wall-clock-only.
  std::vector<uint32_t> prepaid;
  for (size_t i = 0; i < consumed.size(); ++i) {
    if (!consumed[i]) continue;
    ObsAdd(metrics_.prefetch_consumed);
    const uint32_t actual = plan.first_backend[i];
    if (actual != UINT32_MAX && consumed[i]->backend == actual) {
      prepaid.resize(lanes_->size(), 0);
      ++prepaid[actual % lanes_->size()];
    } else {
      ObsAdd(metrics_.prefetch_mispredicted);
      CancelTicket(*consumed[i]);
    }
  }
  // Publish planned outcomes: the coordinator is the only query-path thread
  // during this phase (CrawlScheduler's barriers), so the claim machinery
  // is unnecessary — set the flags directly. At depth >= 1 commits may read
  // these nodes while their round trips are still in flight on the lanes.
  for (size_t i = 0; i < frontier.size(); ++i) {
    if (plan.fetched[i] != 0) {
      cached_flags_[frontier[i]].store(1, std::memory_order_release);
    }
  }
  for (const FetchPlan::Batch& batch : plan.batches) {
    uint32_t take = 0;
    if (!prepaid.empty()) {
      uint32_t& pre = prepaid[batch.backend % lanes_->size()];
      take = std::min(pre, batch.trips);
      pre -= take;
    }
    PostApplyTask(batch, take, nullptr);
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

void ConcurrentInterfaceCache::PostPrefetchHints(
    std::span<const NodeId> predicted) {
  if (pipeline_depth_ == 0) return;
  struct Route {
    std::shared_ptr<PrefetchTicket> ticket;
  };
  std::vector<Route> routes;
  {
    std::lock_guard<std::mutex> lock(base_mutex_);
    // Deterministic stale-invalidation point: whatever the previous window
    // predicted and this round did not consume is stale now — cancel it.
    // The stale set is exactly (predicted \ consumed), a pure function of
    // the crawl state, never of timing.
    ObsAdd(metrics_.prefetch_stale, tickets_.size());
    for (auto& entry : tickets_) CancelTicket(*entry.second);
    tickets_.clear();
    std::vector<NodeId> fresh;
    for (NodeId v : predicted) {
      if (v >= num_users()) continue;  // hints are best-effort, not errors
      if (cached_flags_[v].load(std::memory_order_acquire) != 0) continue;
      if (std::find(fresh.begin(), fresh.end(), v) != fresh.end()) continue;
      fresh.push_back(v);
    }
    if (fresh.empty()) return;
    const auto plan = base_->PlanPrefetch(fresh);
    if (!plan) return;  // no pure routing preview: skip prefetching
    for (size_t i = 0; i < fresh.size(); ++i) {
      if ((*plan)[i] == UINT32_MAX) continue;  // no backend would accept it
      auto ticket = std::make_shared<PrefetchTicket>();
      ticket->backend = (*plan)[i];
      tickets_.emplace(fresh[i], ticket);
      routes.push_back({std::move(ticket)});
      ObsAdd(metrics_.prefetch_issued);
    }
  }
  // Tickets are wall-clock-only: each live one occupies its predicted
  // backend's lane for one RTT, and touches no session state — which is
  // the entire bitwise-equality argument. One lane task per hints call
  // sleeps the whole batch at once (live-count x RTT): per-ticket timed
  // waits oversleep by a scheduler quantum each, which at hundreds of
  // tickets per round dwarfs the RTTs being modelled. Cancellations land
  // before the batch runs in steady state (the coordinator runs at most
  // pipeline_depth rounds ahead of the lanes); a cancel arriving mid-sleep
  // costs modelling accuracy only, never correctness.
  const auto rtt = simulated_latency();
  std::vector<std::vector<std::shared_ptr<PrefetchTicket>>> per_lane(
      lanes_->size());
  for (auto& route : routes) {
    per_lane[route.ticket->backend % lanes_->size()].push_back(
        std::move(route.ticket));
  }
  for (size_t lane = 0; lane < per_lane.size(); ++lane) {
    if (per_lane[lane].empty()) continue;
    lanes_->Post(lane, [batch = std::move(per_lane[lane]), rtt] {
      uint64_t live = 0;
      for (const auto& ticket : batch) {
        std::lock_guard<std::mutex> lock(ticket->mutex);
        if (!ticket->cancelled) ++live;
      }
      SleepRoundTrips(rtt, live);
    });
  }
}

bool ConcurrentInterfaceCache::FetchOne(NodeId v) {
  const NodeId miss[1] = {v};
  FetchPlan& plan = ThreadPlan();
  std::shared_ptr<PrefetchTicket> ticket;
  std::unique_lock<std::mutex> lock(base_mutex_);
  if (!base_->PlanFetchMisses(miss, plan)) {
    // The wrapped session cannot plan (one perfect backend): its ledger
    // runs under the mutex and the round trip is slept outside it.
    const bool fetched = base_->QueryRef(v).has_value();
    lock.unlock();
    SleepRoundTrips(simulated_latency(), fetched ? 1 : 0);
    return fetched;
  }
  if (!tickets_.empty()) {
    auto it = tickets_.find(v);
    if (it != tickets_.end()) {
      ticket = std::move(it->second);
      tickets_.erase(it);
    }
  }
  lock.unlock();
  uint32_t prepaid_backend = UINT32_MAX;
  if (ticket) {
    ObsAdd(metrics_.prefetch_consumed);
    const uint32_t actual = plan.first_backend[0];
    if (actual != UINT32_MAX && ticket->backend == actual) {
      prepaid_backend = actual;
    } else {
      ObsAdd(metrics_.prefetch_mispredicted);
      CancelTicket(*ticket);
    }
  }
  // A demand miss is urgent: it applies its batches here, holding nothing
  // but our in-flight claim, instead of queueing behind the lanes'
  // speculative backlog (which would turn a one-RTT stall into a
  // multi-round one). The session applies every backend's ops in plan
  // order, so the ledgers come out the same as if the lanes had applied
  // them. The wire time is paid inline, minus one trip when a matching
  // prefetch ticket is already sleeping it out.
  uint64_t wire_trips = 0;
  for (const FetchPlan::Batch& batch : plan.batches) {
    base_->ApplyFetchBatch(batch);
    wire_trips += batch.trips;
    if (batch.backend == prepaid_backend && batch.trips > 0) --wire_trips;
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

bool ConcurrentInterfaceCache::Admit(NodeId v) {
  total_requests_.fetch_add(1, std::memory_order_relaxed);
  // Lock-free hit path: the network is immutable, so a set flag is enough
  // to materialize the response locally. Hits are deliberately not
  // counted here — PublishMetrics derives them from total_requests_.
  if (HitCached(v)) return true;
  if (!ClaimFetch(v)) return true;  // cached while we waited (a hit, derived)
  ObsAdd(metrics_.misses);  // we own the fetch, whatever its outcome
  const bool fetched = FetchOne(v);
  // Walkers racing to `v` wait in ClaimFetch until here, i.e. until the
  // response "arrived".
  ResolveFetch(v, fetched);
  return fetched;
}

std::optional<QueryResult> ConcurrentInterfaceCache::Query(NodeId v) {
  if (v >= num_users()) {
    throw std::invalid_argument("Query: unknown user id");
  }
  if (!Admit(v)) return std::nullopt;
  return MakeResult(v);
}

std::optional<QueryView> ConcurrentInterfaceCache::QueryRef(NodeId v) {
  if (v >= num_users()) {
    throw std::invalid_argument("QueryRef: unknown user id");
  }
  // Hot path: a set flag plus the immutable network is enough to answer
  // without locks or allocations.
  if (HitCached(v)) {
    total_requests_.fetch_add(1, std::memory_order_relaxed);
    return MakeView(v);
  }
  if (!Admit(v)) return std::nullopt;
  return MakeView(v);
}

std::vector<std::optional<QueryResult>> ConcurrentInterfaceCache::BatchQuery(
    std::span<const NodeId> ids) {
  for (NodeId v : ids) {
    if (v >= num_users()) {
      throw std::invalid_argument("BatchQuery: unknown user id");
    }
  }
  total_requests_.fetch_add(ids.size(), std::memory_order_relaxed);

  // Claim every distinct uncached id we can without blocking. Ids already
  // being fetched by another walker are picked up afterwards, once our own
  // claims are resolved — never while holding claims, so two overlapping
  // BatchQuery calls cannot deadlock waiting on each other.
  std::vector<NodeId> claimed;
  std::vector<NodeId> busy;
  std::unordered_map<NodeId, std::optional<QueryResult>> fetched;
  for (NodeId v : ids) {
    if (fetched.count(v) != 0) continue;  // duplicate within this batch
    if (HitCached(v)) continue;
    Shard& s = shard(v);
    std::lock_guard<std::mutex> lock(s.mutex);
    if (HitCached(v)) continue;
    if (s.in_flight.insert(v).second) {
      claimed.push_back(v);
      fetched.emplace(v, std::nullopt);
    } else {
      busy.push_back(v);
    }
  }
  // Busy ids re-enter through Query below and count themselves there; of
  // the rest, claims are misses and everything else (duplicates within the
  // batch, already-cached ids) was answered from cache (hits, derived at
  // PublishMetrics time).
  ObsAdd(metrics_.misses, claimed.size());
  ObsRecord(metrics_.miss_batch, claimed.size());

  if (!claimed.empty()) {
    FetchPlan& plan = ThreadPlan();
    bool planned = false;
    {
      std::lock_guard<std::mutex> lock(base_mutex_);
      planned = base_->PlanFetchMisses(claimed, plan);
    }
    if (planned) {
      // One task per backend touched, each on its backend's lane: round
      // trips served by *different* backends overlap in real time, so this
      // join costs the max over backends instead of the sum.
      struct Join {
        std::mutex mutex;
        std::condition_variable cv;
        size_t remaining = 0;
      } join;
      join.remaining = plan.batches.size();
      for (const FetchPlan::Batch& batch : plan.batches) {
        PostApplyTask(batch, 0, [&join] {
          // Notify under the lock: `join` dies as soon as the waiter wakes.
          std::lock_guard<std::mutex> lock(join.mutex);
          --join.remaining;
          join.cv.notify_all();
        });
      }
      {
        std::unique_lock<std::mutex> lock(join.mutex);
        join.cv.wait(lock, [&join] { return join.remaining == 0; });
      }
      for (size_t i = 0; i < claimed.size(); ++i) {
        const bool ok = plan.fetched[i] != 0;
        ResolveFetch(claimed[i], ok);
        if (ok) fetched[claimed[i]] = MakeResult(claimed[i]);
      }
    } else {
      auto backend = LockedBatchFetch(claimed);
      for (size_t i = 0; i < claimed.size(); ++i) {
        ResolveFetch(claimed[i], backend[i].has_value());
        fetched[claimed[i]] = std::move(backend[i]);
      }
    }
  }
  for (NodeId v : busy) {
    // Waits out the other walker's fetch (or re-fetches on budget refusal);
    // the request was already counted above.
    total_requests_.fetch_sub(1, std::memory_order_relaxed);
    fetched[v] = Query(v);
  }

  std::vector<std::optional<QueryResult>> results(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    auto it = fetched.find(ids[i]);
    if (it != fetched.end()) {
      results[i] = it->second;
    } else if (HitCached(ids[i])) {
      results[i] = MakeResult(ids[i]);
    }
  }
  return results;
}

}  // namespace mto
