#include "src/service/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/util/rng.h"

namespace mto {
namespace {

std::string TempPath(const char* tag) {
  return testing::TempDir() + "/checkpoint_test_" + tag + ".ckpt";
}

/// A small but fully populated checkpoint, overlay section included.
ServiceCheckpoint MakeCheckpoint() {
  ServiceCheckpoint ckpt;
  ckpt.config_fingerprint = 0xFEEDFACE;
  ckpt.session.cached_ids = {1, 2, 5, 8};
  ckpt.session.unique_queries = 4;
  ckpt.session.total_requests = 11;
  ckpt.session.backend_requests = 6;
  ckpt.ledgers.resize(2);
  ckpt.ledgers[0].stats.unique_queries = 3;
  ckpt.ledgers[1].stats.requests = 7;
  ckpt.walkers.resize(2);
  ckpt.walkers[0] = {5, {1, 2, 3, 4}};
  ckpt.walkers[1] = {8, {9, 10, 11, 12}};
  ckpt.total_steps = 40;
  ckpt.phase = CrawlPhase::kSampling;
  ckpt.rounds = 20;
  ckpt.diagnostics = {4.0, 2.5};
  ckpt.samples.push_back({6.0, 0.25, 4, 5});
  ServiceCheckpoint::OverlayRecord overlay;
  overlay.frozen = 1;
  overlay.delta.registered = {1, 2, 5};
  overlay.delta.removed = {(uint64_t{1} << 32) | 2};
  overlay.delta.added = {(uint64_t{2} << 32) | 5};
  overlay.delta.processed = {(uint64_t{1} << 32) | 2, (uint64_t{2} << 32) | 5};
  ckpt.overlays.push_back(overlay);
  // Second walker: no rewiring yet, but one classified-as-kept edge (so the
  // file ends in a payload word, which the corruption test flips).
  ServiceCheckpoint::OverlayRecord second;
  second.delta.registered = {8};
  second.delta.processed = {(uint64_t{8} << 32) | 9};
  ckpt.overlays.push_back(second);
  // Second-order walker section (v3): walker 0 mid-edge, walker 1 fresh.
  ckpt.second_order.push_back({1, 3});
  ckpt.second_order.push_back({0, 0});
  return ckpt;
}

std::vector<char> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void WriteAll(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A multi-megabyte image built from a seeded Rng: large enough to cross any
/// write-buffer block boundary, with every field populated.
ServiceCheckpoint MakeLargeCheckpoint() {
  Rng rng(0xC4EC4);
  ServiceCheckpoint ckpt;
  ckpt.config_fingerprint = rng.Next();
  ckpt.session.cached_ids.resize(200000);
  for (NodeId& v : ckpt.session.cached_ids) {
    v = static_cast<NodeId>(rng.Next());
  }
  ckpt.session.unique_queries = rng.Next();
  ckpt.session.total_requests = rng.Next();
  ckpt.session.backend_requests = rng.Next();
  ckpt.ledgers.resize(4);
  for (BackendLedger& ledger : ckpt.ledgers) {
    BackendStats& s = ledger.stats;
    for (uint64_t* field :
         {&s.unique_queries, &s.requests, &s.failed_requests, &s.timeouts,
          &s.transient_errors, &s.quota_rejections, &s.budget_refusals,
          &s.pacing_waits, &s.simulated_us, &ledger.clock_us,
          &ledger.last_refill_us}) {
      *field = rng.Next();
    }
    ledger.bucket_tokens = rng.UniformDouble(0.0, 64.0);
  }
  ckpt.round_robin_cursor = rng.Next();
  ckpt.failed_fetches = rng.Next();
  ckpt.walkers.resize(3);
  for (auto& walker : ckpt.walkers) {
    walker.position = static_cast<NodeId>(rng.Next());
    for (uint64_t& word : walker.rng_state) word = rng.Next();
  }
  ckpt.total_steps = rng.Next();
  ckpt.phase = CrawlPhase::kSampling;
  ckpt.rounds = rng.Next();
  ckpt.collection_rounds_done = rng.Next();
  ckpt.burn_in_converged = 1;
  ckpt.burn_in_rounds = rng.Next();
  ckpt.burn_in_query_cost = rng.Next();
  ckpt.diagnostics.resize(30000);
  for (double& d : ckpt.diagnostics) d = rng.Normal();
  ckpt.samples.resize(100000);
  for (auto& sample : ckpt.samples) {
    sample.value = rng.Normal();
    sample.weight = rng.UniformDouble();
    sample.query_cost = rng.Next();
    sample.node = static_cast<NodeId>(rng.Next());
  }
  ckpt.overlays.resize(3);
  for (auto& overlay : ckpt.overlays) {
    overlay.frozen = static_cast<uint8_t>(rng.UniformInt(2));
    overlay.delta.registered.resize(5000);
    for (NodeId& v : overlay.delta.registered) {
      v = static_cast<NodeId>(rng.Next());
    }
    for (auto* keys : {&overlay.delta.removed, &overlay.delta.added,
                       &overlay.delta.processed}) {
      keys->resize(5000);
      for (uint64_t& key : *keys) key = rng.Next();
    }
  }
  ckpt.second_order.resize(3);
  for (auto& record : ckpt.second_order) {
    record.has_prev = static_cast<uint8_t>(rng.UniformInt(2));
    record.prev = static_cast<NodeId>(rng.Next());
  }
  return ckpt;
}

/// FNV-1a-64 of a byte string.
uint64_t Fnv1a64(const std::vector<char>& bytes) {
  uint64_t hash = 0xCBF29CE484222325ULL;
  for (char c : bytes) {
    hash = (hash ^ static_cast<unsigned char>(c)) * 0x100000001B3ULL;
  }
  return hash;
}

TEST(CheckpointTest, SaveLoadRoundTripsEveryField) {
  const ServiceCheckpoint saved = MakeCheckpoint();
  const std::string path = TempPath("roundtrip");
  saved.Save(path);
  const ServiceCheckpoint loaded = ServiceCheckpoint::Load(path);
  EXPECT_EQ(loaded.config_fingerprint, saved.config_fingerprint);
  EXPECT_EQ(loaded.session.cached_ids, saved.session.cached_ids);
  EXPECT_EQ(loaded.session.total_requests, saved.session.total_requests);
  ASSERT_EQ(loaded.ledgers.size(), 2u);
  EXPECT_EQ(loaded.ledgers[0].stats.unique_queries, 3u);
  EXPECT_EQ(loaded.ledgers[1].stats.requests, 7u);
  ASSERT_EQ(loaded.walkers.size(), 2u);
  EXPECT_EQ(loaded.walkers[1].position, 8u);
  EXPECT_EQ(loaded.walkers[1].rng_state, saved.walkers[1].rng_state);
  EXPECT_EQ(loaded.phase, CrawlPhase::kSampling);
  EXPECT_EQ(loaded.diagnostics, saved.diagnostics);
  ASSERT_EQ(loaded.samples.size(), 1u);
  EXPECT_EQ(loaded.samples[0].node, 5u);
  ASSERT_EQ(loaded.overlays.size(), 2u);
  EXPECT_EQ(loaded.overlays[0].frozen, 1u);
  EXPECT_EQ(loaded.overlays[0].delta.registered,
            saved.overlays[0].delta.registered);
  EXPECT_EQ(loaded.overlays[0].delta.removed, saved.overlays[0].delta.removed);
  EXPECT_EQ(loaded.overlays[0].delta.added, saved.overlays[0].delta.added);
  EXPECT_EQ(loaded.overlays[0].delta.processed,
            saved.overlays[0].delta.processed);
  EXPECT_EQ(loaded.overlays[1].delta.registered,
            saved.overlays[1].delta.registered);
  EXPECT_EQ(loaded.overlays[1].delta.processed,
            saved.overlays[1].delta.processed);
  EXPECT_TRUE(loaded.overlays[1].delta.removed.empty());
  ASSERT_EQ(loaded.second_order.size(), 2u);
  EXPECT_EQ(loaded.second_order[0].has_prev, 1u);
  EXPECT_EQ(loaded.second_order[0].prev, 3u);
  EXPECT_EQ(loaded.second_order[1].has_prev, 0u);
  std::remove(path.c_str());
}

TEST(CheckpointTest, V5ImageBytesArePinned) {
  // The v5 byte layout is a compatibility contract: checkpoints written by
  // one build must load in the next. Pin the exact bytes Save writes for a
  // small image and for a multi-megabyte one, so any reordering, width
  // change or buffering bug in the encoder shows up here.
  const std::string path = TempPath("pinned");
  MakeCheckpoint().Save(path);
  const std::vector<char> small = ReadAll(path);
  EXPECT_EQ(small.size(), 630u);
  EXPECT_EQ(Fnv1a64(small), 0xB46F921AFA09E74BULL);
  MakeLargeCheckpoint().Save(path);
  const std::vector<char> large = ReadAll(path);
  EXPECT_EQ(large.size(), 4260780u);
  EXPECT_EQ(Fnv1a64(large), 0xD6928BEBD71E8804ULL);
  // The large image loads back and re-encodes to the same bytes.
  ServiceCheckpoint::Load(path).Save(path);
  EXPECT_EQ(ReadAll(path), large);
  std::remove(path.c_str());
}

TEST(CheckpointTest, TruncatedFileFailsLoudly) {
  const std::string path = TempPath("truncated");
  MakeCheckpoint().Save(path);
  const std::vector<char> bytes = ReadAll(path);
  // Cut the file at every length from 0 bytes to one short of the image:
  // inside the magic, inside the header, and at every point of the
  // payload. Every cut must throw, never return a half-read checkpoint.
  for (size_t keep = 0; keep < bytes.size(); ++keep) {
    SCOPED_TRACE("keep=" + std::to_string(keep));
    WriteAll(path, {bytes.begin(), bytes.begin() + keep});
    EXPECT_THROW(ServiceCheckpoint::Load(path), std::runtime_error);
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, FailedSaveRemovesItsTmpFile) {
  namespace fs = std::filesystem;
  // The target is a directory: the rename fails, and the tmp file the
  // save wrote must not be left behind.
  const std::string dir = TempPath("dir_target");
  fs::remove_all(dir);
  fs::remove(dir + ".tmp");
  fs::create_directory(dir);
  EXPECT_THROW(MakeCheckpoint().Save(dir), std::runtime_error);
  EXPECT_FALSE(fs::exists(dir + ".tmp"));
  EXPECT_TRUE(fs::is_directory(dir));
  fs::remove_all(dir);

  // A write that fails mid-image (the tmp path leads to a full device):
  // the previous checkpoint at the path stays intact and still loads.
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const std::string path = TempPath("full_device");
  fs::remove(path + ".tmp");
  MakeCheckpoint().Save(path);
  const std::vector<char> previous = ReadAll(path);
  fs::create_symlink("/dev/full", path + ".tmp");
  EXPECT_THROW(MakeLargeCheckpoint().Save(path), std::runtime_error);
  EXPECT_FALSE(fs::exists(fs::symlink_status(path + ".tmp")));
  EXPECT_EQ(ReadAll(path), previous);
  EXPECT_EQ(ServiceCheckpoint::Load(path).config_fingerprint,
            MakeCheckpoint().config_fingerprint);
  std::remove(path.c_str());
}

TEST(CheckpointTest, BadMagicFailsLoudly) {
  const std::string path = TempPath("magic");
  MakeCheckpoint().Save(path);
  std::vector<char> bytes = ReadAll(path);
  bytes[0] = 'X';
  WriteAll(path, bytes);
  EXPECT_THROW(ServiceCheckpoint::Load(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(CheckpointTest, FutureVersionFailsLoudly) {
  const std::string path = TempPath("future");
  MakeCheckpoint().Save(path);
  std::vector<char> bytes = ReadAll(path);
  bytes[8] = 99;  // version u32 follows the 8-byte magic (little-endian)
  WriteAll(path, bytes);
  try {
    ServiceCheckpoint::Load(path);
    FAIL() << "future version accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("version 99"), std::string::npos)
        << e.what();
  }
  // Older versions are rejected too — v1 (pre-overlay), v2 (pre-
  // second-order-section), v3, and v4 (which carries the block-residency
  // section v5 removed). A v5 loader never silently downgrades, and the
  // message says why.
  for (char version : {char{1}, char{2}, char{3}, char{4}}) {
    SCOPED_TRACE("version=" + std::to_string(version));
    bytes[8] = version;
    WriteAll(path, bytes);
    try {
      ServiceCheckpoint::Load(path);
      FAIL() << "old version accepted";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(version == 4 ? "block-residency" : "predates"),
                std::string::npos)
          << what;
    }
  }
  std::remove(path.c_str());
}

/// Canonical re-encoding of a checkpoint: Save is deterministic, so two
/// structurally equal checkpoints serialize to identical bytes.
std::vector<char> Reserialize(const ServiceCheckpoint& ckpt,
                              const std::string& path) {
  ckpt.Save(path);
  return ReadAll(path);
}

// Seeded corruption fuzz over the v5 image: random byte flips (1-8 bytes),
// random truncations, and random appends, ~1k mutants. The loader's contract under
// corruption is "reject loudly or round-trip": every mutant must either
// throw std::runtime_error (detected corruption: bad magic/version,
// truncation, implausible count, checksum mismatch, trailing bytes) or
// yield a checkpoint
// that re-serializes canonically — i.e. the loader accepted a
// *well-formed* image and parsed all of it. It must never crash, hang,
// over-allocate past the file size, or silently misparse structure.
//
// (Semantic integrity of non-overlay payload bytes is the fingerprint's
// and the overlay checksum's job; a flipped stat value is a well-formed
// different checkpoint, which the round-trip arm accepts by design.)
TEST(CheckpointFuzzTest, RandomCorruptionNeverCrashesTheLoader) {
  const std::string path = TempPath("fuzz");
  const std::string canon_path = TempPath("fuzz_canon");
  MakeCheckpoint().Save(path);
  const std::vector<char> pristine = ReadAll(path);
  ASSERT_GT(pristine.size(), 64u);

  Rng rng(0xF0220);
  size_t rejected = 0, round_tripped = 0;
  constexpr size_t kMutants = 1000;
  for (size_t m = 0; m < kMutants; ++m) {
    SCOPED_TRACE("mutant " + std::to_string(m));
    std::vector<char> bytes = pristine;
    const bool appended = m % 8 == 4;
    if (m % 4 == 0) {
      // Truncation at a random point (possibly to zero bytes).
      bytes.resize(rng.UniformInt(bytes.size()));
    } else if (appended) {
      // 1-8 random bytes after the last section.
      const uint64_t extra = 1 + rng.UniformInt(8);
      for (uint64_t e = 0; e < extra; ++e) {
        bytes.push_back(static_cast<char>(rng.UniformInt(256)));
      }
    } else {
      // 1-8 random byte flips anywhere in the image.
      const uint64_t flips = 1 + rng.UniformInt(8);
      for (uint64_t f = 0; f < flips; ++f) {
        const size_t offset = static_cast<size_t>(
            rng.UniformInt(bytes.size()));
        bytes[offset] ^= static_cast<char>(1 + rng.UniformInt(255));
      }
    }
    WriteAll(path, bytes);
    try {
      const ServiceCheckpoint loaded = ServiceCheckpoint::Load(path);
      ASSERT_FALSE(appended) << "appended bytes accepted";
      // Accepted: must be a fully parsed, well-formed image. Its canonical
      // re-encoding must round-trip to itself bit-exactly.
      const std::vector<char> first = Reserialize(loaded, canon_path);
      const std::vector<char> second =
          Reserialize(ServiceCheckpoint::Load(canon_path), canon_path);
      ASSERT_EQ(first, second);
      ++round_tripped;
    } catch (const std::runtime_error&) {
      ++rejected;  // loud rejection is the expected common case
    }
    // Any other exception type (bad_alloc from an over-trusted count,
    // length_error, ...) escapes and fails the test.
  }
  // The corpus must exercise both arms: most mutants hit structure and are
  // rejected, while flips confined to payload values parse fine.
  EXPECT_GT(rejected, kMutants / 2);
  EXPECT_GT(round_tripped, 0u);
  std::remove(path.c_str());
  std::remove(canon_path.c_str());
}

TEST(CheckpointFuzzTest, ImplausibleCountsAreRejectedBeforeAllocating) {
  // Hand-built worst case the random corpus may miss: the first vector
  // count (cached_ids) rewritten to 2^32 — small enough to pass a naive
  // sanity cap, large enough that resizing would allocate gigabytes. The
  // loader must reject it against the actual file size instead.
  const std::string path = TempPath("fuzz_count");
  MakeCheckpoint().Save(path);
  std::vector<char> bytes = ReadAll(path);
  const size_t count_offset = 8 + 4 + 8;  // magic, version, fingerprint
  for (size_t i = 0; i < 8; ++i) bytes[count_offset + i] = 0;
  bytes[count_offset + 4] = 1;  // little-endian 2^32
  WriteAll(path, bytes);
  try {
    ServiceCheckpoint::Load(path);
    FAIL() << "implausible count accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("implausible count"),
              std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, SectionChecksumMismatchFailsLoudly) {
  const std::string path = TempPath("checksum");
  MakeCheckpoint().Save(path);
  const std::vector<char> pristine = ReadAll(path);
  // The file ends with the two checksummed sections, back to back:
  //   ... overlay payload ..., overlay checksum u64,
  //   second-order count u64, 2 x (has_prev u8 + prev u32),
  //   second-order checksum u64
  // so the trailing second-order section is 8 + 2*5 + 8 = 26 bytes. Flip a
  // bit inside each section's last payload word and inside each stored
  // checksum; all four must be caught as checksum mismatches. (Count words
  // are excluded: a flipped count is caught earlier, as an implausible
  // count.)
  for (size_t offset_from_end :
       {size_t{1},     // second-order stored checksum
        size_t{9},     // second-order payload (walker 1's prev word)
        size_t{27},    // overlay stored checksum
        size_t{35}}) { // overlay payload (last processed edge key)
    SCOPED_TRACE("offset_from_end=" + std::to_string(offset_from_end));
    std::vector<char> bytes = pristine;
    bytes[bytes.size() - offset_from_end] ^= 0x40;
    WriteAll(path, bytes);
    try {
      ServiceCheckpoint::Load(path);
      FAIL() << "corrupted section accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos)
          << e.what();
    }
  }
  // The pristine bytes still load (the test corrupts, not the save path).
  WriteAll(path, pristine);
  EXPECT_NO_THROW(ServiceCheckpoint::Load(path));
  std::remove(path.c_str());
}

TEST(CheckpointTest, TrailingSectionsCannotBeSilentlyDropped) {
  // A v5 image with its trailing second-order section cut off must be
  // rejected as truncated — never parsed as if it were a v2 file.
  const std::string path = TempPath("no_downgrade");
  MakeCheckpoint().Save(path);
  const std::vector<char> bytes = ReadAll(path);
  const size_t section_bytes = 8 + 2 * 5 + 8;  // count, 2 records, checksum
  ASSERT_GT(bytes.size(), section_bytes);
  WriteAll(path, {bytes.begin(),
                  bytes.begin() + (bytes.size() - section_bytes)});
  EXPECT_THROW(ServiceCheckpoint::Load(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(CheckpointTest, TrailingBytesFailLoudly) {
  // One byte appended after the last section's checksum: the image is no
  // longer a v5 checkpoint, so the loader must refuse it (naming the file)
  // instead of silently ignoring the tail.
  const std::string path = TempPath("trailing");
  MakeCheckpoint().Save(path);
  std::vector<char> bytes = ReadAll(path);
  bytes.push_back('\0');
  WriteAll(path, bytes);
  try {
    ServiceCheckpoint::Load(path);
    FAIL() << "trailing byte accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("trailing"), std::string::npos) << what;
    EXPECT_NE(what.find(path), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mto
