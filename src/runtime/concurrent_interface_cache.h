#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/net/restricted_interface.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/serial_channels.h"
#include "src/util/task_queue.h"

namespace mto {

/// Thread-safe crawl session: wraps a (single-threaded) RestrictedInterface
/// so any number of walkers can share one cache and one query budget.
///
/// Design (see DESIGN.md §6):
///  * **Lock-free hit path.** A per-node atomic "cached" flag mirrors the
///    wrapped session's cache. Since the underlying network is immutable,
///    a set flag lets the result be materialized without any lock — the
///    common case once walkers have warmed a region ("a region one walker
///    has paid for is free for the others", paper Section VI).
///  * **In-flight dedupe.** Misses register in a sharded in-flight table
///    before fetching; a second walker racing to the same node waits on the
///    shard's condition variable instead of issuing a duplicate backend
///    query. Two walkers hitting the same uncached node consume exactly one
///    unit of query cost.
///  * **Serialized ledger.** The wrapped RestrictedInterface remains the
///    source of truth for cost, budget, and latency bookkeeping; it is only
///    touched under one mutex, and simulated latency is paid *outside* that
///    mutex so concurrent misses to different nodes overlap their round
///    trips — the effect the throughput bench measures.
///  * **Async fetch overlap (`SetFetchMode(kAsync)`).** When the wrapped
///    session supports two-phase fetches (a service/BackendPool), a miss
///    group is only *planned* under the ledger mutex — routing, budget,
///    outcomes, cost — and the per-backend ledger/latency work runs outside
///    it: a single miss applies on the calling walker's thread, a batched
///    frontier dispatches one task per backend to a small completion queue
///    and blocks on the join. Round trips served by different backends
///    overlap in real time; results stay bit-identical to kSync because
///    sync and async share the plan (see DESIGN.md §9).
///  * **Pipelined rounds (`SetPipelineDepth(k)`, k >= 1).** The async path
///    still joins every frontier before the round continues, so round R+1
///    waits on round R's slowest backend. The pipelined engine drops that
///    join: `PipelinedFetch` plans the frontier exactly like sync/async
///    (same coordinator thread, same order, identical state mutations) but
///    posts the per-backend ledger/latency tasks onto per-backend FIFO
///    channels (util/SerialChannels) and returns immediately — commits read
///    the planned outcomes from the cache while the round trips are still
///    "in flight" as wall time on the channels. A lag-k join bounds
///    run-ahead: before round R's tasks are posted, round R-k must have
///    drained. `PostPrefetchHints` turns sampler peeks into wall-clock-only
///    prefetch *tickets* — a ticket occupies its predicted backend's
///    channel for one RTT and lets the real fetch's apply task discount one
///    prepaid trip; a wrong or stale prediction is cancelled. Tickets never
///    touch ledger, cache, or cost state, so samples/trace/estimate/ledgers
///    stay bitwise equal to sync mode by construction (DESIGN.md §10).
///
/// The wrapper takes over latency simulation from the wrapped session (the
/// session's own latency is zeroed at construction) so a round trip is
/// never paid twice.
///
/// `Reset()` and `SetFetchMode()` are *not* thread-safe: call them only
/// while no walker is running.
class ConcurrentInterfaceCache final : public RestrictedInterface {
 public:
  /// Number of independent lock shards for the miss path.
  static constexpr size_t kShards = 16;

  /// Wraps `base`, which must outlive this object. Cache state already in
  /// `base` is honored (its flags are imported).
  explicit ConcurrentInterfaceCache(RestrictedInterface& base);

  /// Selects the miss-fetch execution mode. kAsync spawns a completion
  /// queue of `fetch_threads` workers used to join batched frontier
  /// fetches; 0 falls back to kMaxFetchThreads — the cache cannot see the
  /// backend fleet, so callers that can (CrawlService sizes one worker
  /// per backend) should pass the real channel count. kAsync silently
  /// behaves like kSync when the wrapped session has no async-capable
  /// backend model. Call between rounds only.
  void SetFetchMode(FetchMode mode, size_t fetch_threads = 0);
  FetchMode fetch_mode() const { return fetch_mode_; }

  /// Upper bound on async fetch workers (backend channels worth of
  /// overlap; more would only contend on the ledger shards).
  static constexpr size_t kMaxFetchThreads = 16;

  /// Enables (depth >= 1) or disables (depth == 0) the pipelined engine:
  /// `depth` rounds of deferred per-backend work may be in flight behind
  /// the crawl (the lag-k join), and samplers are asked for up to `depth`
  /// prefetch candidates per walker. `channels` sizes the per-backend FIFO
  /// lane set (0 falls back to kMaxFetchThreads; pass the backend count).
  /// Drains any active pipeline first. Call between rounds only.
  void SetPipelineDepth(size_t depth, size_t channels = 0);
  size_t pipeline_depth() const { return pipeline_depth_; }

  /// True iff PipelinedFetch/PostPrefetchHints are live.
  bool PipelineActive() const {
    return pipeline_depth_ > 0 && channels_ != nullptr;
  }

  /// Pipelined replacement for the coordinator's frontier BatchQuery
  /// (CrawlScheduler only): plans the whole frontier under the ledger mutex
  /// — consuming matching prefetch tickets — marks planned-fetched nodes
  /// cached, posts each backend's ledger/latency task to its channel, and
  /// returns without joining. Requires PipelineActive(); must be called
  /// from a single coordinator thread with no concurrent query-path calls
  /// (CrawlScheduler's phase barriers guarantee this). Falls back to
  /// sync-identical inline behavior when the wrapped session cannot plan.
  void PipelinedFetch(std::span<const NodeId> frontier);

  /// Publishes the next round's predicted targets as prefetch tickets:
  /// routes each valid, uncached, deduplicated prediction via the wrapped
  /// session's PlanPrefetch and posts a one-RTT wall-clock ticket on the
  /// predicted backend's channel. First cancels every ticket left from the
  /// previous prediction window (the deterministic stale-invalidation
  /// point). Tickets mutate no session state whatsoever. Coordinator-only,
  /// like PipelinedFetch; a no-op when the session cannot preview routes.
  void PostPrefetchHints(std::span<const NodeId> predicted);

  /// Cancels all outstanding tickets and drains every channel; after this
  /// the ledgers are quiescent (checkpoint/stat-read safe). Coordinator
  /// only. No-op when the pipeline is inactive.
  void DrainPipeline();

  std::optional<QueryResult> Query(NodeId v) override;
  /// Allocation-free read path: cache hits return a borrowed view without
  /// taking any lock; misses fall back to the full Query machinery.
  std::optional<QueryView> QueryRef(NodeId v) override;
  std::vector<std::optional<QueryResult>> BatchQuery(
      std::span<const NodeId> ids) override;
  std::optional<uint32_t> CachedDegree(NodeId v) const override;
  bool IsCached(NodeId v) const override;

  uint64_t QueryCost() const override;
  uint64_t TotalRequests() const override {
    return total_requests_.load(std::memory_order_relaxed);
  }
  uint64_t BackendRequests() const override;
  void SetBudget(std::optional<uint64_t> budget) override;

  /// Bulk-chunking is performed by the wrapped session; forward to it.
  void SetMaxBatchSize(size_t max_batch_size) override;
  size_t max_batch_size() const override;

  /// Session checkpointing (src/service): snapshots read the wrapped
  /// ledger's state but report this wrapper's total-request counter (the
  /// wrapped session never sees cache hits). RestoreSession forwards to the
  /// wrapped session and re-imports its cache flags. Neither is safe while
  /// walkers are running; call them only between scheduler rounds.
  SessionSnapshot SnapshotSession() const override;
  void RestoreSession(const SessionSnapshot& snapshot) override;

  /// Clears this cache and the wrapped session. Not thread-safe.
  void Reset() override;

  /// Attaches (or detaches, with nulls) passive telemetry. Resolves metric
  /// pointers once so the hot paths pay a null check + one relaxed
  /// increment; never draws randomness, queries, or mutates session state.
  /// Forwarded to the pipelined engine's SerialChannels (existing and
  /// future). Call between rounds only, like the other mode switches.
  ///
  /// Metric catalog (docs/observability.md): cache.hits (gauge, derived at
  /// PublishMetrics time), cache.misses (fetch claims, refusals included;
  /// hits + misses == TotalRequests), cache.dedupe_waits,
  /// cache.miss_batch_size (histogram),
  /// prefetch.issued / consumed / mispredicted / stale_cancelled.
  void SetObservability(obs::MetricsRegistry* registry, obs::TraceLog* trace);

  /// Publishes the derived cache.hits gauge: TotalRequests() minus the
  /// miss counter. Hits are *not* counted on the hot path — the lock-free
  /// hit path already bumps the session's total-request counter, so the
  /// split is pure arithmetic at pull time (exact at quiescent points,
  /// like BackendPool::PublishMetrics). No-op when observability is off.
  void PublishMetrics();

 private:
  struct Shard {
    std::mutex mutex;
    std::condition_variable cv;
    std::unordered_set<NodeId> in_flight;
  };

  Shard& shard(NodeId v) { return shards_[v % kShards]; }

  /// Claims the fetch of `v`, waiting out another walker's in-flight fetch.
  /// Returns false when `v` turned out cached (no fetch needed).
  bool ClaimFetch(NodeId v);

  /// Publishes the outcome of a claimed fetch and wakes waiters.
  void ResolveFetch(NodeId v, bool fetched);

  /// True iff misses should go through the two-phase plan/apply path.
  bool AsyncActive() const {
    return fetch_mode_ == FetchMode::kAsync && fetch_queue_ != nullptr;
  }

  /// A wall-clock-only prefetch reservation: its channel task sleeps one
  /// RTT (or until cancelled) on the predicted backend's lane. Carries no
  /// ledger, cache, or cost effect — that is the whole determinism
  /// argument. Guarded by its own mutex; the tickets_ map by base_mutex_.
  struct PrefetchTicket {
    std::mutex mutex;
    std::condition_variable cv;
    bool cancelled = false;
    uint32_t backend = 0;  ///< predicted first-request backend
  };

  static void CancelTicket(PrefetchTicket& ticket);

  /// Posts one backend's deferred apply task to its channel: ledger math
  /// first (the plan carried zero latency), then the wall-clock price of
  /// its round trips minus `prepaid` ticket trips. `on_done` (optional)
  /// fires after the sleep — the single-miss path joins on it.
  void PostApplyTask(std::function<void()> task, uint32_t backend,
                     uint32_t trips, uint32_t prepaid,
                     std::function<void()> on_done);

  /// Single-miss fetch through the channels (commit-phase walker misses
  /// while the pipeline is live): plans under the ledger mutex, consumes a
  /// matching ticket, posts per-backend tasks, joins on its own fetch.
  /// Returns whether `v` was fetched, or std::nullopt when the wrapped
  /// session cannot plan (caller falls back to the sync path).
  std::optional<bool> PipelinedQueryMiss(NodeId v);

  /// Cache-hit predicate for the query paths: one acquire load of the
  /// per-node flag (0 = uncached, 1 = cached).
  bool HitCached(NodeId v) const {
    return cached_flags_[v].load(std::memory_order_acquire) != 0;
  }

  /// Resolved metric pointers; all null when observability is off.
  /// `hits` is a gauge, not a counter: the lock-free hit path is the
  /// hottest line in the crawl, so hits are derived at publish time from
  /// the pre-existing total-request counter instead of being counted.
  struct CacheMetrics {
    obs::Gauge* hits = nullptr;
    obs::Counter* misses = nullptr;
    obs::Counter* dedupe_waits = nullptr;
    obs::Histogram* miss_batch = nullptr;
    obs::Counter* prefetch_issued = nullptr;
    obs::Counter* prefetch_consumed = nullptr;
    obs::Counter* prefetch_mispredicted = nullptr;
    obs::Counter* prefetch_stale = nullptr;
  };

  RestrictedInterface* base_;
  std::unique_ptr<std::atomic<uint8_t>[]> cached_flags_;
  std::atomic<uint64_t> total_requests_{0};
  CacheMetrics metrics_;
  obs::MetricsRegistry* registry_ = nullptr;
  obs::TraceLog* trace_ = nullptr;
  mutable std::mutex base_mutex_;
  Shard shards_[kShards];
  FetchMode fetch_mode_ = FetchMode::kSync;
  std::unique_ptr<TaskQueue> fetch_queue_;

  // Pipelined engine state. channels_/pipeline_depth_ change only between
  // rounds (SetPipelineDepth); tickets_ and round_marks_ are touched under
  // base_mutex_ / by the coordinator respectively.
  size_t pipeline_depth_ = 0;
  std::unique_ptr<SerialChannels> channels_;
  std::unordered_map<NodeId, std::shared_ptr<PrefetchTicket>> tickets_;
  std::deque<SerialChannels::Marker> round_marks_;
};

}  // namespace mto
