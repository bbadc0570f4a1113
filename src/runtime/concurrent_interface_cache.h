#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_set>
#include <vector>

#include "src/net/restricted_interface.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/serial_channels.h"

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
///  * **Serialized plans.** The wrapped RestrictedInterface remains the
///    source of truth for cost, budget, and latency bookkeeping; its plans
///    run under one mutex, and ledger applies and simulated latency run
///    *outside* that mutex so concurrent misses to different nodes overlap
///    their round trips — the effect the throughput bench measures.
///  * **One fetch engine (DESIGN.md §9).** Every miss is only *planned*
///    under the ledger mutex (`PlanFetchMisses`: routing, budget, outcomes,
///    cost) and its per-backend ledger batches are applied outside it —
///    for the paper's one perfect backend and a service/BackendPool alike.
///    A single miss applies its batches on the calling walker's thread and
///    sleeps its round trips there. A frontier (`FetchFrontier`, the
///    scheduler's coalesced prefetch) publishes its planned outcomes and
///    posts one apply-and-sleep task per backend to that backend's FIFO
///    lane (util/SerialChannels), so round trips served by different
///    backends overlap in real time.
///  * **Frontier pipelining (`SetPipelineDepth(k)`).** `FetchFrontier`
///    plans the coordinator's frontier (its distinct uncached ids, as on
///    every session), posts its lane tasks and then joins with lag k:
///    before it returns, round R-k must have drained. With k = 0 that is
///    the frontier's own tasks — commits see a fully settled round. With
///    k >= 1, commits read the planned outcomes from the cache while the
///    round trips are still "in flight" as wall time on the lanes. Every
///    fetch is planned, in order, by the coordinator or its claiming
///    walker before anything is posted, so the depth moves only
///    wall-clock time: samples/trace/estimate/ledgers are bitwise
///    independent of it (DESIGN.md §10).
///
/// The wrapper takes over latency simulation from the wrapped session (the
/// session's own latency is zeroed at construction) so a round trip is
/// never paid twice.
///
/// `Reset()` and `SetPipelineDepth()` are *not* thread-safe: call them only
/// while no walker is running.
class ConcurrentInterfaceCache final : public RestrictedInterface {
 public:
  /// Number of independent lock shards for the miss path.
  static constexpr size_t kShards = 16;

  /// Wraps `base`, which must outlive this object. Cache state already in
  /// `base` is honored (its flags are imported).
  explicit ConcurrentInterfaceCache(RestrictedInterface& base);

  /// Sets the lag of FetchFrontier's join: `depth` rounds of posted
  /// per-backend work may stay in flight behind the crawl. Drains the
  /// lanes first. Call between rounds only.
  void SetPipelineDepth(size_t depth);
  size_t pipeline_depth() const { return pipeline_depth_; }

  /// Drains every lane; after this the ledgers are quiescent
  /// (checkpoint/stat-read safe). Coordinator only.
  void DrainPipeline();

  /// Read path: a cache hit returns a borrowed view without taking any
  /// lock; a miss claims the node (racing walkers wait and share one
  /// fetch) and fetches it on this thread.
  std::optional<QueryView> QueryRef(NodeId v) override;
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
  /// Forwarded to the fetch lanes. Call between rounds only.
  ///
  /// Metric catalog (docs/observability.md): cache.hits (gauge, derived at
  /// PublishMetrics time), cache.misses (fetch claims, refusals included;
  /// hits + misses == TotalRequests), cache.dedupe_waits,
  /// cache.miss_batch_size (histogram).
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

  /// Fetches one claimed miss: plans it (PlanMisses), applies its batches
  /// on this thread, and sleeps its round trips. Ledger order holds behind
  /// in-flight frontier batches at any depth: the session applies ops in
  /// plan order. Returns whether `v` was fetched.
  bool FetchOne(NodeId v);

  /// Plans `misses` into `plan` under the ledger mutex.
  void PlanMisses(std::span<const NodeId> misses, FetchPlan& plan);

  /// The coordinator's frontier fetch (FetchFrontier, called by
  /// CrawlScheduler between its phase barriers, so no query-path call
  /// runs meanwhile and no other thread can fetch these ids): plans the
  /// misses under the ledger mutex, publishes the fetched nodes' cache
  /// flags, posts each backend's apply task to its lane, and runs the
  /// lag-k join. At depth 0 the coordinator would only wait for the lanes,
  /// so it applies and sleeps the last batch itself.
  void FetchFrontierMisses(std::span<const NodeId> misses) override;

  /// Posts one planned batch to its backend's lane: ledger apply first,
  /// then the wall-clock price of its round trips.
  void PostApplyTask(const FetchPlan::Batch& batch);

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
  };

  RestrictedInterface* base_;
  std::unique_ptr<std::atomic<uint8_t>[]> cached_flags_;
  std::atomic<uint64_t> total_requests_{0};
  CacheMetrics metrics_;
  mutable std::mutex base_mutex_;
  Shard shards_[kShards];

  // Lane state. One lane per FetchLanes() of the wrapped session, created
  // at construction; pipeline_depth_ changes only between rounds;
  // round_marks_ is touched by the coordinator only.
  size_t pipeline_depth_ = 0;
  std::unique_ptr<SerialChannels> lanes_;
  std::deque<SerialChannels::Marker> round_marks_;
};

}  // namespace mto
