#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/overlay_graph.h"
#include "src/net/restricted_interface.h"
#include "src/runtime/crawl_scheduler.h"
#include "src/service/backend_pool.h"

namespace mto {

/// Phase of a CrawlService run, serialized in checkpoints.
enum class CrawlPhase : uint8_t { kBurnIn = 0, kSampling = 1, kDone = 2 };

/// Complete on-disk image of a crawl-service session, sufficient to resume
/// bit-identically: the interface-cache contents and cost counters, every
/// backend's ledger (stats + token bucket), every walker's position and RNG
/// state, the driver's progress, the full prefix of the estimation streams
/// (diagnostics and weighted samples), and — for MTO crawls — every
/// walker's overlay delta (registered nodes + edge-rule mutations + frozen
/// flag; the walker's rewiring RNG is the walker RNG already captured in
/// WalkerState). On resume the streams are replayed into a fresh
/// EstimationPipeline — its state after n items is a pure function of the
/// stream prefix, so replay reproduces the exact Geweke verdicts, running
/// estimate, and trace — and each overlay is rebuilt from its delta (see
/// DESIGN.md §7/§8).
///
/// Format: little-endian binary, magic "MTOCKPT" + version. Version 2 adds
/// the overlay section, guarded by its own FNV-1a checksum so a corrupted
/// overlay fails loudly instead of resuming a silently different topology.
/// Version 3 appends the second-order walker section (the (prev, cur)
/// register of second-order programs like node2vec), checksummed the same
/// way — the v2 walker record layout is unchanged, so the new state rides
/// in its own trailing section. Version 4 appended a block-residency
/// section for a block-major scheduler that has since been removed;
/// version 5 drops that section again, so the second-order section is the
/// last one and any byte after its checksum is rejected. Any version other
/// than kVersion is rejected (v4 carries the removed residency section,
/// older ones predate v5, newer ones come from a future build) — there is
/// no silent downgrade path. A fingerprint of the scenario
/// (ScenarioConfig::Fingerprint) guards against resuming under a different
/// configuration.
struct ServiceCheckpoint {
  static constexpr uint32_t kVersion = 5;

  uint64_t config_fingerprint = 0;

  // Session: shared cache + cost ledger (wrapper-level totals).
  SessionSnapshot session;

  // Backend pool extras.
  std::vector<BackendLedger> ledgers;
  uint64_t round_robin_cursor = 0;
  uint64_t failed_fetches = 0;

  // Walkers.
  std::vector<CrawlScheduler::WalkerState> walkers;
  uint64_t total_steps = 0;

  // Driver progress.
  CrawlPhase phase = CrawlPhase::kBurnIn;
  uint64_t rounds = 0;
  uint64_t collection_rounds_done = 0;
  uint8_t burn_in_converged = 0;
  uint64_t burn_in_rounds = 0;
  uint64_t burn_in_query_cost = 0;

  // Estimation-stream prefix, replayed on resume.
  std::vector<double> diagnostics;
  struct SampleRecord {
    double value = 0.0;
    double weight = 0.0;
    uint64_t query_cost = 0;
    NodeId node = 0;
  };
  std::vector<SampleRecord> samples;

  // Per-walker overlay state (MTO crawls only): empty, or exactly one
  // record per walker, in walker order. Serialized with a trailing FNV-1a
  // checksum over the section's encoded words.
  struct OverlayRecord {
    OverlayGraph::Delta delta;
    uint8_t frozen = 0;
  };
  std::vector<OverlayRecord> overlays;

  // Second-order walker state (v3; second-order programs only): empty, or
  // exactly one record per walker, in walker order — the walker's
  // (prev, cur) register beyond the position already in its WalkerState.
  // Serialized as the file's trailing section with its own FNV-1a checksum.
  struct SecondOrderRecord {
    uint8_t has_prev = 0;
    NodeId prev = 0;
  };
  std::vector<SecondOrderRecord> second_order;

  /// Writes the checkpoint atomically (tmp file + rename) so a crash while
  /// saving never corrupts the previous checkpoint. Throws
  /// std::runtime_error on I/O failure.
  void Save(const std::string& path) const;

  /// Loads and validates magic/version/structure. Throws
  /// std::runtime_error on I/O errors, corruption, or version mismatch.
  static ServiceCheckpoint Load(const std::string& path);
};

}  // namespace mto
