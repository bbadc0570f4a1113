#include "src/net/restricted_interface.h"

#include <stdexcept>
#include <thread>
#include <unordered_set>

namespace mto {

RestrictedInterface::RestrictedInterface(const SocialNetwork& network)
    : network_(&network), cached_(network.num_users(), false) {}

void RestrictedInterface::PlanFetchMisses(std::span<const NodeId> misses,
                                          FetchPlan& plan) {
  plan.batches.clear();
  plan.fetched.assign(misses.size(), 0);
  size_t admitted = 0;
  for (; admitted < misses.size() && !BudgetExhausted(); ++admitted) {
    MarkFetched(misses[admitted]);
    plan.fetched[admitted] = 1;
  }
  if (admitted == 0) return;
  // The one perfect backend's ledger is a trip counter: charging it now
  // leaves nothing for ApplyFetchBatch to defer.
  const auto trips =
      static_cast<uint32_t>((admitted + max_batch_size_ - 1) / max_batch_size_);
  backend_requests_ += trips;
  plan.batches.push_back({0, trips, trips});
}

void RestrictedInterface::ApplyFetchBatch(const FetchPlan::Batch& batch) {
  (void)batch;  // planning already settled the only ledger
}

QueryView RestrictedInterface::MakeView(NodeId v) const {
  return {v, &network_->profile(v), network_->graph().Neighbors(v)};
}

void RestrictedInterface::FetchInline(std::span<const NodeId> misses) {
  PlanFetchMisses(misses, inline_plan_);
  uint64_t trips = 0;
  for (const FetchPlan::Batch& batch : inline_plan_.batches) {
    ApplyFetchBatch(batch);
    trips += batch.trips;
  }
  if (simulated_latency_.count() > 0 && trips > 0) {
    std::this_thread::sleep_for(simulated_latency_ *
                                static_cast<int64_t>(trips));
  }
}

std::optional<QueryView> RestrictedInterface::QueryRef(NodeId v) {
  if (v >= network_->num_users()) {
    throw std::invalid_argument("QueryRef: unknown user id");
  }
  ++total_requests_;
  if (!cached_[v]) {
    const NodeId miss[1] = {v};
    FetchInline(miss);
    if (!cached_[v]) return std::nullopt;
  }
  return MakeView(v);
}

void RestrictedInterface::FetchFrontier(std::span<const NodeId> ids) {
  for (NodeId v : ids) {
    if (v >= network_->num_users()) {
      throw std::invalid_argument("FetchFrontier: unknown user id");
    }
  }
  // Distinct cache-missing ids in first-appearance order; hits and repeats
  // are already answered from cache and cost nothing.
  frontier_misses_.clear();
  std::unordered_set<NodeId> seen;
  for (NodeId v : ids) {
    if (!IsCached(v) && seen.insert(v).second) frontier_misses_.push_back(v);
  }
  if (!frontier_misses_.empty()) FetchFrontierMisses(frontier_misses_);
}

void RestrictedInterface::FetchFrontierMisses(
    std::span<const NodeId> misses) {
  total_requests_ += misses.size();
  FetchInline(misses);
}

std::optional<uint32_t> RestrictedInterface::CachedDegree(NodeId v) const {
  if (!IsCached(v)) return std::nullopt;
  return network_->graph().Degree(v);
}

std::optional<QueryView> RestrictedInterface::RandomUser(Rng& rng) {
  return QueryRef(static_cast<NodeId>(rng.UniformInt(network_->num_users())));
}

void RestrictedInterface::SetMaxBatchSize(size_t max_batch_size) {
  if (max_batch_size == 0) {
    throw std::invalid_argument("SetMaxBatchSize: batch size must be >= 1");
  }
  max_batch_size_ = max_batch_size;
}

SessionSnapshot RestrictedInterface::SnapshotSession() const {
  SessionSnapshot snapshot;
  for (NodeId v = 0; v < cached_.size(); ++v) {
    if (cached_[v]) snapshot.cached_ids.push_back(v);
  }
  snapshot.unique_queries = unique_queries_;
  snapshot.total_requests = total_requests_;
  snapshot.backend_requests = backend_requests_;
  return snapshot;
}

void RestrictedInterface::RestoreSession(const SessionSnapshot& snapshot) {
  for (NodeId v : snapshot.cached_ids) {
    if (v >= network_->num_users()) {
      throw std::invalid_argument("RestoreSession: unknown user id");
    }
  }
  cached_.assign(network_->num_users(), false);
  for (NodeId v : snapshot.cached_ids) cached_[v] = true;
  unique_queries_ = snapshot.unique_queries;
  total_requests_ = snapshot.total_requests;
  backend_requests_ = snapshot.backend_requests;
}

void RestrictedInterface::Reset() {
  cached_.assign(network_->num_users(), false);
  unique_queries_ = 0;
  total_requests_ = 0;
  backend_requests_ = 0;
}

}  // namespace mto
