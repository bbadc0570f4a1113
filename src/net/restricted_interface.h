#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/net/social_network.h"

namespace mto {

/// A planned-but-not-applied fetch of a miss group, filled by
/// `PlanFetchMisses` into storage the caller owns and reuses, so a
/// steady-state plan allocates nothing. Planning already decided every
/// per-node outcome, cached and charged the fetched nodes, and moved every
/// routing counter. What remains is per-backend ledger work, queued inside
/// the session in plan order: one `ApplyFetchBatch` call per entry of
/// `batches` completes it, from any thread, in any order.
struct FetchPlan {
  /// One backend's share of the plan: `ops` queued ledger ops, of which
  /// `trips` are real round trips (the rest are budget refusals).
  struct Batch {
    uint32_t backend = 0;
    uint32_t ops = 0;
    uint32_t trips = 0;
  };
  std::vector<Batch> batches;
  /// Parallel to the planned misses: 1 iff that node was fetched (it is
  /// cached and cost was charged), 0 iff it was refused.
  std::vector<uint8_t> fetched;
};

/// Response of one individual-user query q(v) (paper Section II-A): the
/// user's profile plus the complete list of connected users, borrowed from
/// the interface's immutable backing store, so a cache hit allocates
/// nothing. Valid until the interface is destroyed.
struct QueryView {
  NodeId user = 0;
  const UserProfile* profile = nullptr;
  std::span<const NodeId> neighbors;

  uint32_t degree() const { return static_cast<uint32_t>(neighbors.size()); }
};

/// Checkpointable session state: which users are cached plus the cost
/// counters. `SnapshotSession`/`RestoreSession` round-trip it so a crawl can
/// resume from disk with the exact ledger of an uninterrupted run (see
/// src/service/checkpoint.h).
struct SessionSnapshot {
  std::vector<NodeId> cached_ids;  ///< ascending
  uint64_t unique_queries = 0;
  uint64_t total_requests = 0;
  uint64_t backend_requests = 0;
};

/// The restrictive web interface of an online social network, as seen by a
/// third-party sampler.
///
/// Models the paper's access rules precisely:
///  * the only operation is q(v), `QueryRef(v)`, returning v's profile and
///    neighbors as a view into the immutable backing store;
///  * duplicate queries are answered from the sampler's local cache ("any
///    duplicate query can be answered from local cache without consuming
///    the query limit", Section II-B), so cost counts *unique* users only;
///  * the total number of users is public (footnote 4) via `num_users()`;
///  * `RandomUser()` models samplers that exploit a known id space (the
///    Random Jump baseline, Section I-B); it costs one query.
///  * an optional hard query budget makes `QueryRef` report exhaustion,
///    which experiment harnesses use to cap runs.
///
/// Beside the single-user read the interface models the bulk-fetch
/// endpoints real OSN APIs expose (`users/lookup`-style): `FetchFrontier`
/// fetches many users ahead of their reads, up to `max_batch_size()` per
/// backend round trip. An optional simulated per-request latency makes the
/// round-trip economics measurable: every backend request (one
/// cache-missing `QueryRef`, or one chunk of a frontier) sleeps
/// `simulated_latency()`, while cache hits stay free. `BackendRequests()`
/// counts the round trips paid.
///
/// Every cache-missing fetch — single or frontier — is one plan/apply pair:
/// `PlanFetchMisses` decides outcomes and charges cost, `ApplyFetchBatch`
/// settles the per-backend ledgers, and the single-threaded fetch then
/// sleeps the round trips. The base class plans the paper's
/// one-perfect-backend model; src/service/BackendPool plans a multi-backend
/// fault/retry/failover model without touching the cache or
/// cost-accounting logic here, and runtime/ConcurrentInterfaceCache drives
/// either through the same two calls.
///
/// `QueryRef` and the frontier's fetch are virtual so schedulers can swap
/// in a thread-safe session (runtime/ConcurrentInterfaceCache) without
/// samplers noticing. This base class itself is single-threaded: concurrent
/// calls on one instance are undefined behavior.
class RestrictedInterface {
 public:
  /// Wraps a network. The interface does not own the network; keep it alive.
  explicit RestrictedInterface(const SocialNetwork& network);

  virtual ~RestrictedInterface() = default;

  RestrictedInterface(const RestrictedInterface&) = delete;
  RestrictedInterface& operator=(const RestrictedInterface&) = delete;

  /// Issues q(v). Counts one request, and one unit of query cost iff `v`
  /// was never queried before. Returns std::nullopt when the query budget
  /// is exhausted and `v` is not cached. The response borrows the
  /// interface's storage (valid until destruction). Throws
  /// std::invalid_argument on an out-of-range id.
  virtual std::optional<QueryView> QueryRef(NodeId v);

  /// The bulk fetch: fetches each distinct uncached id of `ids` once, in
  /// first-appearance order, so the reads that follow are hits. Cached and
  /// repeated ids cost nothing; each fetched id counts one request and, as
  /// with `QueryRef`, one unit of query cost. Latency is paid once per
  /// backend chunk of up to `max_batch_size()` ids instead of once per
  /// miss. Ids refused by the budget stay uncached. Throws
  /// std::invalid_argument, before fetching anything, when any id is out
  /// of range. Not a query-path call: on the concurrent cache it must come
  /// from one coordinator thread while no walker runs.
  void FetchFrontier(std::span<const NodeId> ids);

  /// Degree of a previously queried user, without issuing a query.
  /// Returns std::nullopt when `v` has never been queried (its degree is
  /// unknown to a third party) — this powers Theorem 5's N* set — or when
  /// `v` is not a valid user id.
  virtual std::optional<uint32_t> CachedDegree(NodeId v) const;

  /// True iff `v` is a valid user id that has been queried before (and is
  /// hence locally cached). Out-of-range ids are simply not cached.
  virtual bool IsCached(NodeId v) const {
    return v < cached_.size() && cached_[v];
  }

  /// Non-counting cache read: the response for `v` iff it is already
  /// cached, std::nullopt otherwise (including out-of-range ids). Unlike
  /// QueryRef this never issues a fetch and never moves *any* counter —
  /// not even total_requests — so a sampler may read an already-paid
  /// neighborhood (node2vec's N(prev)) without perturbing the
  /// checkpointable session state.
  virtual std::optional<QueryView> PeekCached(NodeId v) const {
    if (!IsCached(v)) return std::nullopt;
    return MakeView(v);
  }

  /// Public total user count (paper footnote 4).
  NodeId num_users() const { return network_->num_users(); }

  /// q(v) of a uniformly random user id v through `QueryRef`: one request,
  /// and one unit of query cost when v is uncached (it is fetched and
  /// cached). Used by Random Jump.
  std::optional<QueryView> RandomUser(Rng& rng);

  /// Unique queries issued so far — the paper's query-cost measure.
  virtual uint64_t QueryCost() const { return unique_queries_; }

  /// Total requests including cache hits (for diagnostics only).
  virtual uint64_t TotalRequests() const { return total_requests_; }

  /// Backend round trips paid so far (cache-missing queries plus frontier
  /// chunks). With zero simulated latency this is still counted; it is the
  /// crawl's wall-clock cost model.
  virtual uint64_t BackendRequests() const { return backend_requests_; }

  /// Sets a hard budget on unique queries; std::nullopt = unlimited.
  virtual void SetBudget(std::optional<uint64_t> budget) { budget_ = budget; }

  /// Sleep executed per backend round trip; zero (the default) disables the
  /// latency simulation entirely.
  void SetSimulatedLatency(std::chrono::microseconds latency) {
    simulated_latency_ = latency;
  }
  std::chrono::microseconds simulated_latency() const {
    return simulated_latency_;
  }

  /// Maximum ids FetchFrontier serves per backend round trip (>= 1).
  virtual void SetMaxBatchSize(size_t max_batch_size);
  virtual size_t max_batch_size() const { return max_batch_size_; }

  /// Two-phase fetch: plans the fetch of `misses` into `plan` — routing,
  /// budget checks, fault-draw outcomes, cache marking and unique-cost
  /// accounting all happen before this returns — and queues the
  /// per-backend ledger ops for `ApplyFetchBatch`. The base class admits
  /// misses in order until the budget is spent and charges its only
  /// ledger, the round-trip counter, right here: one trip per chunk of up
  /// to `max_batch_size()` admitted misses, as one batch on backend 0.
  ///
  /// Caller contract: `misses` must be valid, distinct, uncached ids; the
  /// call must be externally serialized with every other query-path entry
  /// point (it mutates the cache and cost ledger); and every batch must be
  /// applied before the next checkpoint/stat read reaches the ledgers.
  virtual void PlanFetchMisses(std::span<const NodeId> misses,
                               FetchPlan& plan);

  /// Applies one planned batch: the oldest `batch.ops` queued ops of
  /// `batch.backend`, so each backend's ledger sees its ops in plan order
  /// whoever applies them. Thread-safe across backends and against
  /// PlanFetchMisses. Sleeps nothing: the caller pays the wall-clock price
  /// of `batch.trips` round trips. A no-op in the base class, whose plan
  /// already settled its ledger.
  virtual void ApplyFetchBatch(const FetchPlan::Batch& batch);

  /// Independent serial connections worth modelling as fetch lanes: one
  /// per backend. The base class has one perfect backend.
  virtual size_t FetchLanes() const { return 1; }

  /// Copies out the checkpointable session state (cache + counters).
  virtual SessionSnapshot SnapshotSession() const;

  /// Restores a previously snapshotted session: every id in
  /// `snapshot.cached_ids` becomes cached and the counters are overwritten.
  /// Throws std::invalid_argument on out-of-range ids.
  virtual void RestoreSession(const SessionSnapshot& snapshot);

  /// Clears the cache and counters (new sampler session).
  virtual void Reset();

  /// The wrapped network. Infrastructure/diagnostics use only — sampler
  /// code must never reach around the query interface.
  const SocialNetwork& network() const { return *network_; }

 protected:
  /// Materializes q(v) from the (immutable) network; shared by the cache
  /// implementations. `v` must be a valid id.
  QueryView MakeView(NodeId v) const;

  /// FetchFrontier's fetch of `misses` (valid, distinct, uncached ids, at
  /// least one): counts one request per id and fetches them. The base
  /// class fetches inline (FetchInline).
  virtual void FetchFrontierMisses(std::span<const NodeId> misses);

  /// Records a successful fetch of `v`: caches it and charges one unit of
  /// unique-query cost.
  void MarkFetched(NodeId v) {
    cached_[v] = true;
    ++unique_queries_;
  }

  /// True iff a budget is set and spent.
  bool BudgetExhausted() const {
    return budget_.has_value() && unique_queries_ >= *budget_;
  }

 private:
  /// The single-threaded fetch of distinct cache-missing ids: plans them,
  /// applies every batch, then sleeps `simulated_latency()` per round trip.
  /// Ids left uncached on return were refused (budget/backend exhaustion).
  void FetchInline(std::span<const NodeId> misses);

  const SocialNetwork* network_;
  std::vector<bool> cached_;
  uint64_t unique_queries_ = 0;
  uint64_t total_requests_ = 0;
  uint64_t backend_requests_ = 0;
  std::optional<uint64_t> budget_;
  std::chrono::microseconds simulated_latency_{0};
  size_t max_batch_size_ = 32;
  FetchPlan inline_plan_;                ///< FetchInline's reused plan
  std::vector<NodeId> frontier_misses_;  ///< FetchFrontier's reused list
};

}  // namespace mto
