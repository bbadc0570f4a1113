#include "src/net/restricted_interface.h"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <thread>

namespace mto {

FetchPlan& ThreadPlan() {
  thread_local FetchPlan plan;
  return plan;
}

void SleepRoundTrips(std::chrono::microseconds rtt, uint64_t trips) {
  if (rtt.count() > 0 && trips > 0) {
    std::this_thread::sleep_for(rtt * static_cast<int64_t>(trips));
  }
}

RestrictedInterface::RestrictedInterface(const SocialNetwork& network)
    : network_(&network),
      owned_ledger_(std::make_unique<Ledger>(network.num_users())),
      ledger_(owned_ledger_.get()),
      cached_(ledger_->cached.get()) {}

RestrictedInterface::RestrictedInterface(SharedLedger shared)
    : network_(shared.owner.network_),
      ledger_(shared.owner.ledger_),
      cached_(ledger_->cached.get()) {}

void RestrictedInterface::PlanFetchMisses(std::span<const NodeId> misses,
                                          FetchPlan& plan) {
  plan.batches.clear();
  plan.fetched.assign(misses.size(), 0);
  size_t admitted = 0;
  for (; admitted < misses.size() && !BudgetExhausted(); ++admitted) {
    ChargeFetch();
    plan.fetched[admitted] = 1;
  }
  if (admitted == 0) return;
  // The one perfect backend's ledger is a trip counter: charging it now
  // leaves nothing for ApplyFetchBatch to defer.
  const size_t batch = ledger_->max_batch_size;
  const auto trips = static_cast<uint32_t>((admitted + batch - 1) / batch);
  ledger_->backend_requests += trips;
  plan.batches.push_back({0, trips, trips});
}

QueryView RestrictedInterface::MakeView(NodeId v) const {
  return {v, &network_->profile(v), network_->graph().Neighbors(v)};
}

void RestrictedInterface::CacheFetched(std::span<const NodeId> misses,
                                       const FetchPlan& plan) {
  for (size_t i = 0; i < misses.size(); ++i) {
    if (plan.fetched[i] != 0) MarkCached(misses[i]);
  }
}

void RestrictedInterface::FetchInline(std::span<const NodeId> misses) {
  FetchPlan& plan = ThreadPlan();
  PlanFetchMisses(misses, plan);
  CacheFetched(misses, plan);
  uint64_t trips = 0;
  for (const FetchPlan::Batch& batch : plan.batches) {
    ApplyFetchBatch(batch);
    trips += batch.trips;
  }
  SleepRoundTrips(ledger_->simulated_latency, trips);
}

std::optional<QueryView> RestrictedInterface::QueryRef(NodeId v) {
  if (v >= num_users()) {
    throw std::invalid_argument("QueryRef: unknown user id");
  }
  ++ledger_->total_requests;
  if (!HitCached(v)) {
    const NodeId miss[1] = {v};
    FetchInline(miss);
    if (!HitCached(v)) return std::nullopt;
  }
  return MakeView(v);
}

void RestrictedInterface::FetchFrontier(std::span<const NodeId> ids) {
  for (NodeId v : ids) {
    if (v >= num_users()) {
      throw std::invalid_argument("FetchFrontier: unknown user id");
    }
  }
  // Distinct cache-missing ids in first-appearance order; hits and repeats
  // are already answered from cache and cost nothing. Sorted (id, position)
  // keys put each id's first appearance first, with no per-call hash set.
  frontier_keys_.clear();
  for (size_t i = 0; i < ids.size(); ++i) {
    if (!HitCached(ids[i])) {
      frontier_keys_.push_back(uint64_t{ids[i]} << 32 | i);
    }
  }
  std::sort(frontier_keys_.begin(), frontier_keys_.end());
  frontier_keys_.erase(
      std::unique(frontier_keys_.begin(), frontier_keys_.end(),
                  [](uint64_t a, uint64_t b) { return a >> 32 == b >> 32; }),
      frontier_keys_.end());
  for (uint64_t& key : frontier_keys_) key = key << 32 | key >> 32;
  std::sort(frontier_keys_.begin(), frontier_keys_.end());  // by position
  frontier_misses_.clear();
  for (uint64_t key : frontier_keys_) {
    frontier_misses_.push_back(static_cast<NodeId>(key));
  }
  if (!frontier_misses_.empty()) FetchFrontierMisses(frontier_misses_);
}

void RestrictedInterface::FetchFrontierMisses(
    std::span<const NodeId> misses) {
  ledger_->total_requests += misses.size();
  FetchInline(misses);
}

std::optional<uint32_t> RestrictedInterface::CachedDegree(NodeId v) const {
  if (!IsCached(v)) return std::nullopt;
  return network_->graph().Degree(v);
}

std::optional<QueryView> RestrictedInterface::RandomUser(Rng& rng) {
  return QueryRef(static_cast<NodeId>(rng.UniformInt(num_users())));
}

void RestrictedInterface::SetMaxBatchSize(size_t max_batch_size) {
  if (max_batch_size == 0) {
    throw std::invalid_argument("SetMaxBatchSize: batch size must be >= 1");
  }
  ledger_->max_batch_size = max_batch_size;
}

SessionSnapshot RestrictedInterface::SnapshotSession() const {
  SessionSnapshot snapshot;
  for (NodeId v = 0; v < num_users(); ++v) {
    if (cached_[v].load(std::memory_order_relaxed) == kCached) {
      snapshot.cached_ids.push_back(v);
    }
  }
  snapshot.unique_queries = ledger_->unique_queries;
  snapshot.total_requests = TotalRequests();
  snapshot.backend_requests = ledger_->backend_requests;
  return snapshot;
}

void RestrictedInterface::RestoreSession(const SessionSnapshot& snapshot) {
  const std::vector<NodeId>& ids = snapshot.cached_ids;
  if (!ids.empty() && ids.back() >= num_users()) {
    throw std::invalid_argument("RestoreSession: unknown user id");
  }
  if (std::adjacent_find(ids.begin(), ids.end(), std::greater_equal<>()) !=
          ids.end() ||
      snapshot.unique_queries != ids.size()) {
    throw std::invalid_argument(
        "RestoreSession: cached ids are not strictly ascending or disagree "
        "with unique_queries");
  }
  RestrictedInterface::Reset();  // the ledger only, whoever overrides Reset
  for (NodeId v : ids) cached_[v].store(kCached, std::memory_order_relaxed);
  ledger_->unique_queries = snapshot.unique_queries;
  ledger_->total_requests = snapshot.total_requests;
  ledger_->backend_requests = snapshot.backend_requests;
}

void RestrictedInterface::Reset() {
  for (NodeId v = 0; v < num_users(); ++v) {
    cached_[v].store(kUncached, std::memory_order_relaxed);
  }
  ledger_->unique_queries = 0;
  ledger_->total_requests = 0;
  ledger_->backend_requests = 0;
}

}  // namespace mto
