#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>

#include "src/net/restricted_interface.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/serial_channels.h"
#include "src/util/spin_park_lock.h"

namespace mto {

/// Thread-safe crawl session: wraps a (single-threaded) RestrictedInterface
/// so any number of walkers can share one cache and one query budget.
///
/// Design (see DESIGN.md §6):
///  * **One ledger.** The cache is built over the wrapped session's ledger
///    (cache flags, cost, budget, batch size, latency), so a budget set on
///    either binds both and nothing is copied. It calls only the wrapped
///    session's plan/apply pair and adds locking and a request count.
///  * **Lock-free hit path.** The ledger's per-node atomic "cached" flag is
///    set only once a node's response has arrived. Since the underlying
///    network is immutable, a set flag lets the result be materialized
///    without any lock — the common case once walkers have warmed a region
///    ("a region one walker has paid for is free for the others", paper
///    Section VI).
///  * **In-flight dedupe on the flag byte.** A miss claims its node by a
///    CAS of the ledger flag from uncached to claimed; a second walker
///    racing to the same node sees the claim and waits on the byte
///    (`std::atomic::wait`) instead of issuing a duplicate backend query.
///    The claimant stores cached or, if refused, uncached and wakes the
///    waiters. Two walkers hitting the same uncached node consume exactly
///    one unit of query cost, and no lock or heap node is taken per miss.
///  * **Serialized plans.** Plans run under one `SpinParkLock` (spin
///    briefly, then park), since a plan is a few hundred cycles and a
///    kernel sleep per collision would cost more than the plan. Ledger
///    applies and simulated latency run *outside* that lock so concurrent
///    misses to different nodes overlap their round trips — the effect the
///    throughput bench measures.
///  * **One fetch engine (DESIGN.md §9).** Every miss is only *planned*
///    under the plan lock (`PlanFetchMisses`: routing, budget, outcomes,
///    cost) and its per-backend ledger batches are applied outside it —
///    for the paper's one perfect backend and a service/BackendPool alike.
///    A single miss applies its batches on the calling walker's thread,
///    sleeps its round trips there and then caches the node
///    (`ResolveFetch`). A frontier (`FetchFrontier`, the scheduler's
///    coalesced prefetch) caches its planned outcomes right after its plan
///    and posts one apply-and-sleep task per backend to that backend's FIFO
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
/// The cache sleeps the ledger's simulated latency itself, outside the
/// lock, and never runs the wrapped session's inline fetch.
///
/// `Reset()`, `RestoreSession()`, `SetBudget()`, `SetMaxBatchSize()` and
/// `SetPipelineDepth()` are *not* thread-safe: call them only while no
/// walker is running. Walkers that outlive a Reset or RestoreSession must
/// be re-Teleported (Sampler holds the neighbours of its position).
class ConcurrentInterfaceCache final : public RestrictedInterface {
 public:
  /// Wraps `base`, which must outlive this object, sharing its ledger:
  /// cache state already in `base` is this cache's state.
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

  /// Sums the per-thread request slots: exact whenever no walker is
  /// counting (the quiescent points where it is read). The wrapped session
  /// never sees cache hits, so this count is the cache's own.
  uint64_t TotalRequests() const override;
  /// The wrapped session's round trips (a BackendPool counts its own), read
  /// under the plan lock.
  uint64_t BackendRequests() const override;

  /// Restores the shared ledger through the wrapped session (which rejects
  /// an inconsistent snapshot before changing anything) and puts the
  /// restored request total in one request slot. Drains the lanes first.
  void RestoreSession(const SessionSnapshot& snapshot) override;

  /// Resets the wrapped session (and with it the shared ledger) and the
  /// request count. Drains the lanes first.
  void Reset() override;

  /// Attaches (or detaches, with nulls) passive telemetry. Resolves metric
  /// pointers once so the hot paths pay a null check + one relaxed
  /// increment; never draws randomness, queries, or mutates session state.
  /// Forwarded to the fetch lanes. Call between rounds only.
  ///
  /// Metric catalog (docs/observability.md): cache.hits (gauge, derived at
  /// PublishMetrics time), cache.misses (fetch claims, refusals included;
  /// hits + misses == TotalRequests), cache.dedupe_waits,
  /// cache.plan_lock_waits (pulled at PublishMetrics time),
  /// cache.miss_batch_size (histogram).
  void SetObservability(obs::MetricsRegistry* registry, obs::TraceLog* trace);

  /// Publishes the derived cache.hits gauge: TotalRequests() minus the
  /// miss counter. Hits are *not* counted on the hot path — the lock-free
  /// hit path already bumps its thread's request slot, so the split is
  /// pure arithmetic at pull time (exact at quiescent points, like
  /// BackendPool::PublishMetrics). Also adds the plan lock's parks since
  /// the last publish to cache.plan_lock_waits: the lock counts them only
  /// on its slow path, so an uncontended miss pays nothing for the
  /// counter. No-op when observability is off.
  void PublishMetrics();

 private:
  /// Claims the fetch of `v` (its flag: uncached -> claimed), waiting on
  /// the flag out another walker's claim. Returns false when `v` turned
  /// out cached (no fetch needed).
  bool ClaimFetch(NodeId v);

  /// Publishes the outcome of a claimed fetch (flag: cached, or uncached
  /// again when refused) and wakes the walkers waiting on it.
  void ResolveFetch(NodeId v, bool fetched);

  /// Fetches one claimed miss: plans it (PlanMisses), applies its batches
  /// on this thread, and sleeps its round trips; the caller caches it.
  /// Ledger order holds behind in-flight frontier batches at any depth:
  /// the session applies ops in plan order. Returns whether `v` was
  /// fetched.
  bool FetchOne(NodeId v);

  /// Plans `misses` into `plan` under the plan lock.
  void PlanMisses(std::span<const NodeId> misses, FetchPlan& plan);

  /// The coordinator's frontier fetch (FetchFrontier, called by
  /// CrawlScheduler between its phase barriers, so no query-path call
  /// runs meanwhile and no other thread can fetch these ids): plans the
  /// misses under the plan lock, caches the fetched nodes, posts each
  /// backend's apply task to its lane, and runs the lag-k join. At depth 0
  /// the coordinator would only wait for the lanes, so it applies and
  /// sleeps the last batch itself.
  void FetchFrontierMisses(std::span<const NodeId> misses) override;

  /// Posts one planned batch to its backend's lane: ledger apply first,
  /// then the wall-clock price of its round trips.
  void PostApplyTask(const FetchPlan::Batch& batch);

  /// Adds `n` requests to the calling thread's slot.
  void CountRequests(uint64_t n);

  /// Sets TotalRequests() to `total`: slot 0 holds it, the rest are zeroed.
  /// Quiescent points only (Reset, RestoreSession).
  void StoreTotalRequests(uint64_t total);

  /// Resolved metric pointers; all null when observability is off.
  /// `hits` is a gauge, not a counter: the lock-free hit path is the
  /// hottest line in the crawl, so hits are derived at publish time from
  /// TotalRequests() instead of being counted.
  struct CacheMetrics {
    obs::Gauge* hits = nullptr;
    obs::Counter* misses = nullptr;
    obs::Counter* dedupe_waits = nullptr;
    obs::Counter* plan_lock_waits = nullptr;
    obs::Histogram* miss_batch = nullptr;
  };

  RestrictedInterface* base_;
  /// Request counts, one cache line per slot. A thread adds only to its
  /// own slot (threads are dealt slots round-robin, so two share one only
  /// beyond kRequestSlots threads), which keeps the hit path free of a
  /// write every walker contends on.
  static constexpr size_t kRequestSlots = 64;
  struct alignas(64) RequestSlot {
    std::atomic<uint64_t> count{0};
  };
  std::unique_ptr<RequestSlot[]> request_slots_;
  CacheMetrics metrics_;
  /// Serializes plans. Starts a cache line: misses write it, and it must
  /// not share a line with the fields hits read (EXPERIMENTS.md).
  alignas(64) mutable SpinParkLock plan_lock_;
  /// plan_lock_.parks() at the last PublishMetrics (or attach).
  uint64_t published_lock_waits_ = 0;

  // Lane state. One lane per FetchLanes() of the wrapped session, created
  // at construction; pipeline_depth_ changes only between rounds;
  // round_marks_ is touched by the coordinator only.
  size_t pipeline_depth_ = 0;
  std::unique_ptr<SerialChannels> lanes_;
  std::deque<SerialChannels::Marker> round_marks_;
};

}  // namespace mto
