#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/net/restricted_interface.h"
#include "src/obs/metrics.h"
#include "src/service/retry_policy.h"

namespace mto {

/// One API backend (key/region): its quota, pacing, latency, and failure
/// behavior. All randomness is drawn from pure-function streams keyed on
/// (fault_seed, backend, node, attempt), so a backend's behavior toward a
/// given fetch is identical across runs, thread interleavings, and
/// checkpoint resume.
struct BackendConfig {
  std::string name;  ///< e.g. "key-0", "us-east"; defaulted if empty

  /// Unique queries this backend may pay for; std::nullopt = unlimited.
  std::optional<uint64_t> budget;

  /// Token-bucket rate limit in requests per *simulated* second; 0 disables
  /// pacing. `burst` is the bucket capacity in tokens (>= 1).
  double rate_per_sec = 0.0;
  double burst = 1.0;

  /// Per-request latency: log-normal with this mean (in simulated
  /// microseconds) and shape `latency_sigma` (0 = constant latency).
  uint64_t latency_mean_us = 0;
  double latency_sigma = 0.0;

  /// Per-attempt fault probabilities (independent draws, must sum <= 1):
  /// a timeout burns `timeout_us` of simulated time and fails; a transient
  /// error fails fast; a quota rejection models 429-style throttling.
  double timeout_rate = 0.0;
  double error_rate = 0.0;
  double quota_rate = 0.0;
  uint64_t timeout_us = 50'000;

  /// Throws std::invalid_argument on out-of-range fields.
  void Validate() const;
};

/// Running counters of one backend.
struct BackendStats {
  uint64_t unique_queries = 0;  ///< unique fetches this backend paid for
  uint64_t requests = 0;        ///< round trips, including failed attempts
  uint64_t failed_requests = 0;
  uint64_t timeouts = 0;
  uint64_t transient_errors = 0;
  uint64_t quota_rejections = 0;
  uint64_t budget_refusals = 0;  ///< fetches turned away at the door
  uint64_t pacing_waits = 0;     ///< requests the token bucket delayed
  uint64_t simulated_us = 0;     ///< simulated time spent (latency + waits)
};

/// Checkpointable per-backend state: the stats plus the token bucket.
struct BackendLedger {
  BackendStats stats;
  double bucket_tokens = 0.0;
  uint64_t clock_us = 0;        ///< backend-local simulated clock
  uint64_t last_refill_us = 0;  ///< bucket refill watermark on that clock
};

/// How the pool picks the backend that serves a cache miss. Failover walks
/// the remaining backends from the selected one in index order.
enum class BackendSelection {
  /// Backend `v % N` serves node v. Assignment is a pure function of the
  /// node id (like kRendezvous) — per-backend costs are bit-identical
  /// across thread interleavings (the ledger-sharding mode; see the class
  /// comment) — but `v % N` aliases badly on strided or skewed node-id
  /// populations.
  kSharded,
  /// Rotating cursor over the backends (classic API-key rotation).
  kRoundRobin,
  /// The backend with the fewest requests so far.
  kLeastLoaded,
  /// The backend with the most remaining budget (unlimited counts as
  /// infinite; ties break toward fewer unique queries, then lower index).
  kBudgetAware,
  /// Rendezvous (highest-random-weight) hashing on (backend name, node):
  /// node v is served by the backend with the highest hash score for v, and
  /// fails over down the score order. Like kSharded the assignment is a
  /// pure function of the node id — interleaving-independent ledgers — but
  /// the hash mixes node ids uniformly (no aliasing on strided/skewed id
  /// populations) and fleet changes only move the nodes whose top scorer
  /// changed (minimal disruption). Equal scores (duplicate backend names)
  /// break toward fewer planned requests, then lower index; backends whose
  /// budget is spent sort behind all live ones instead of emitting a
  /// refusal op (see SelectionOrder).
  kRendezvous,
};

const char* BackendSelectionName(BackendSelection selection);

/// Multi-backend crawl session: a `RestrictedInterface` whose cache-missing
/// fetches are served by N simulated backends with independent budgets,
/// token-bucket rate pacing, latency distributions, and seeded fault
/// injection, behind bounded-retry failover (RetryPolicy).
///
/// The cache, unique-cost accounting, and query semantics live unchanged in
/// the base class; this class only overrides the plan/apply pair
/// (`PlanFetchMisses`/`ApplyFetchBatch`) every miss runs through. Every
/// unique fetch costs one request on whichever backend ends up serving it —
/// per-user endpoints under per-key quotas, the restricted-access regime
/// the paper models, whether it arrives as one `QueryRef` miss or inside a
/// `FetchFrontier`. (Chunk amortization of a frontier is a property of the
/// single-backend transport; a bulk endpoint with keyed quotas is modeled
/// here by scaling a backend's rate/budget.)
///
/// Determinism: fault, latency, and jitter draws are pure functions of
/// (fault_seed, backend, node, attempt) — never of arrival order — so
/// whether a given node's fetch ultimately succeeds, and on which backend
/// under the pure per-node policies (kSharded, kRendezvous), is
/// independent of thread interleaving. Walker
/// trajectories therefore stay bit-identical across thread counts and
/// stepping modes even with faults injected, as long as no budget (pool- or
/// backend-level) is exhausted mid-crawl — exhaustion order is the one
/// interleaving-dependent quantity, the same caveat the plain budget
/// carries (see CrawlScheduler).
///
/// Internally every fetch is split into two halves (DESIGN.md §9):
///  * a **routing front** — selection, budget checks, fault-draw outcomes,
///    cache marking, unique-cost accounting — that runs synchronously on
///    the caller and reads only its own per-backend counters (never the
///    ledgers), so outcomes are decided before any ledger is touched; and
///  * **per-backend ledger application** — pacing, virtual clocks, stats —
///    behind one fine-grained mutex per backend, with no cross-backend
///    state, so ledgers of different backends can be applied concurrently.
/// `PlanFetchMisses` runs the front and queues each backend's ledger ops;
/// `ApplyFetchBatch` pops and applies them. The queue keeps every ledger's
/// op sequence in plan order no matter which thread applies a batch or
/// when, and a backend's ledger evolution depends only on that sequence.
/// A bare pool's queries plan and apply at once (the base class' inline
/// fetch).
///
/// Like the base class, routing is single-threaded: serialize query-path
/// entry points externally (runtime/ConcurrentInterfaceCache does). Only
/// `ApplyFetchBatch` may run concurrently. Simulated time (latency,
/// backoff, pacing) is charged to per-backend virtual clocks, never slept,
/// so scenario sweeps run at full CPU speed. Real wall time is only the
/// session's `simulated_latency()` per round trip — slept by the inline
/// fetch, or by a concurrent wrapper outside the pool.
class BackendPool final : public RestrictedInterface {
 public:
  /// `backends` must be non-empty; configs are validated.
  BackendPool(const SocialNetwork& network,
              std::vector<BackendConfig> backends, RetryPolicy retry,
              BackendSelection selection, uint64_t fault_seed);

  size_t num_backends() const { return configs_.size(); }
  const BackendConfig& backend_config(size_t b) const { return configs_[b]; }
  /// Copied under the backend's ledger mutex (safe against in-flight
  /// batch applies, though steady only at quiescence).
  BackendStats backend_stats(size_t b) const;
  std::vector<BackendStats> AllBackendStats() const;
  BackendSelection selection() const { return selection_; }

  /// Fetches permanently refused (all backends exhausted their attempts or
  /// budgets). Each refusal left its node uncached; a later query retries.
  uint64_t FailedFetches() const { return failed_fetches_; }

  /// Round trips paid across all backends, including failed attempts.
  uint64_t BackendRequests() const override;

  /// Pool-wide simulated time: the max over backend clocks (backends run
  /// in parallel in the simulation).
  uint64_t SimulatedTimeUs() const;

  /// Checkpointable pool state beyond the base-class session (which is
  /// snapshotted separately via SnapshotSession).
  struct PoolSnapshot {
    std::vector<BackendLedger> ledgers;
    uint64_t round_robin_cursor = 0;
    uint64_t failed_fetches = 0;
  };
  PoolSnapshot SnapshotBackends() const;
  /// Throws std::invalid_argument when the backend count mismatches.
  void RestoreBackends(const PoolSnapshot& snapshot);

  void Reset() override;

  /// Publishes the current ledgers into `registry` as labeled gauges
  /// (backend.requests{backend=name}, .unique_queries, .failed_requests,
  /// .timeouts, .transient_errors, .quota_rejections, .budget_refusals,
  /// .pacing_waits, .simulated_us, .budget_remaining where budgeted) plus
  /// pool.failed_fetches / pool.backend_requests / pool.simulated_us.
  /// Strictly a pull: reads each ledger under its mutex and writes the
  /// registry — the fetch path carries no extra bookkeeping. Call at
  /// quiescent points (between rounds / at snapshot time).
  void PublishMetrics(obs::MetricsRegistry& registry) const;

  /// Plans every miss on the calling thread (see RestrictedInterface) and
  /// queues each touched backend's ledger ops; `plan.batches` lists the
  /// backends in ascending order.
  void PlanFetchMisses(std::span<const NodeId> misses,
                       FetchPlan& plan) override;

  /// Applies the oldest `batch.ops` queued ops of `batch.backend` under
  /// that backend's ledger mutex.
  void ApplyFetchBatch(const FetchPlan::Batch& batch) override;

  /// One fetch lane per backend.
  size_t FetchLanes() const override { return configs_.size(); }

 private:
  enum class Fault { kNone, kTimeout, kTransientError, kQuotaRejected };

  /// The pure per-attempt draw: latency and fault outcome from the
  /// (fault_seed, backend, node, attempt) stream. Arrival order and
  /// ledger state never enter.
  struct AttemptDraw {
    uint64_t latency_us = 0;
    Fault fault = Fault::kNone;
  };
  AttemptDraw DrawAttempt(size_t b, NodeId v, uint64_t attempt) const;

  /// One deferred ledger mutation: a request attempt (pace + latency +
  /// fault bookkeeping) or a budget refusal. Applied under the owning
  /// backend's ledger mutex. The plan's draw rides along so the apply
  /// never recomputes the RNG stream.
  struct LedgerOp {
    NodeId node = 0;
    uint32_t attempt = 0;  ///< global attempt index of this node's fetch
    uint8_t refusal = 0;   ///< 1 = budget refusal (no request issued)
    AttemptDraw draw;      ///< unused when refusal
  };

  /// Order in which backends are tried for node v. For kSharded that is
  /// `v % N` then index-order failover; for kRendezvous the descending
  /// score order with budget-spent backends partitioned to the back; the
  /// cursor/load policies pick a primary from mutable state and fail over
  /// in index order. Reads the routing counters, not ledgers.
  void SelectionOrder(NodeId v, std::vector<size_t>& order);

  /// Rendezvous score of backend b for node v: a pure hash of the
  /// backend's (stable) name hash and the node id.
  uint64_t RendezvousScore(size_t b, NodeId v) const;

  /// Routing front for one node: runs the retry/failover loop against the
  /// routing counters, appends the resulting ledger ops per backend, and
  /// on success marks the node fetched. Returns true iff fetched.
  bool PlanOne(NodeId v, std::vector<std::vector<LedgerOp>>& per_backend);

  /// Token-bucket pacing on the backend's virtual clock. Caller holds the
  /// backend's ledger mutex.
  void PaceRequest(size_t b);

  /// Re-derives the routing counters from the ledgers (construction,
  /// Reset, RestoreBackends — all quiescent points where they agree).
  void SyncRoutingCounters();

  /// Drops every queued op (Reset, RestoreBackends — quiescent points).
  void ClearPending();

  std::vector<BackendConfig> configs_;
  std::vector<BackendLedger> ledgers_;
  /// One lock per ledger; never held across backends, so batches of
  /// different backends apply fully independently.
  mutable std::unique_ptr<std::mutex[]> ledger_mutexes_;
  /// Per backend: ops planned but not yet applied, oldest first from
  /// `pending_head_`. Guarded by that backend's ledger mutex.
  std::vector<std::vector<LedgerOp>> pending_;
  std::vector<size_t> pending_head_;
  RetryPolicy retry_;
  BackendSelection selection_;
  uint64_t fault_seed_;
  uint64_t round_robin_cursor_ = 0;
  uint64_t failed_fetches_ = 0;
  /// Routing-front mirrors of ledger counters (requests / unique queries
  /// per backend), updated at plan time so selection and budget decisions
  /// never wait on — or race with — deferred ledger applies.
  std::vector<uint64_t> routed_requests_;
  std::vector<uint64_t> routed_unique_;
  /// Stable per-backend name hashes for rendezvous scoring (computed once;
  /// a backend keeps its scores when siblings come and go).
  std::vector<uint64_t> name_hashes_;
  std::vector<size_t> order_scratch_;
  std::vector<std::vector<LedgerOp>> plan_scratch_;
};

}  // namespace mto
