#include "src/service/checkpoint.h"

#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>

namespace mto {
namespace {

constexpr char kMagic[8] = {'M', 'T', 'O', 'C', 'K', 'P', 'T', '\0'};
constexpr uint64_t kMaxCount = uint64_t{1} << 33;  // corruption guard

/// FNV-1a over a section's scalars, each mixed as a 64-bit word: the same
/// values are mixed on write and on read, so any bit flip in the section
/// (or in its stored checksum) is detected before its state is resumed.
constexpr uint64_t kFnvBasis = 0xCBF29CE484222325ULL;
uint64_t Mix(uint64_t hash, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    hash = (hash ^ ((v >> (8 * i)) & 0xFF)) * 0x100000001B3ULL;
  }
  return hash;
}

/// Encoder: appends fixed-width little-endian words to a 1 MiB block and
/// writes each full block with one call, so the image is never held whole.
class Writer {
 public:
  explicit Writer(std::ofstream& out) : out_(&out), block_(kBlockBytes) {}

  void Header() {
    for (char c : kMagic) Put(static_cast<uint8_t>(c));
    Put(ServiceCheckpoint::kVersion);
  }
  template <typename... T>
  void operator()(const T&... fields) {
    (Put(fields), ...);
  }
  template <typename T, typename F>
  void Vec(const std::vector<T>& vec, uint64_t, uint64_t, F per_element) {
    Put(uint64_t{vec.size()});
    for (const T& element : vec) per_element(*this, element);
  }
  void BeginSection() { section_ = kFnvBasis; }
  void EndSection(const char* /*name*/) {
    const uint64_t hash = *section_;
    section_.reset();
    Put(hash);
  }
  void End() { Flush(); }

 private:
  static constexpr size_t kBlockBytes = size_t{1} << 20;

  void Put(uint8_t v) { Word(v, 1); }
  void Put(uint32_t v) { Word(v, 4); }
  void Put(uint64_t v) { Word(v, 8); }
  void Put(double v) { Word(std::bit_cast<uint64_t>(v), 8); }
  void Put(CrawlPhase v) { Put(static_cast<uint8_t>(v)); }
  void Word(uint64_t v, size_t bytes) {
    if (section_) section_ = Mix(*section_, v);
    if (used_ + bytes > block_.size()) Flush();
    for (size_t i = 0; i < bytes; ++i) {
      block_[used_++] = static_cast<char>(v >> (8 * i));
    }
  }
  void Flush() {
    out_->write(block_.data(), static_cast<std::streamsize>(used_));
    used_ = 0;
  }

  std::ofstream* out_;
  std::vector<char> block_;
  size_t used_ = 0;
  std::optional<uint64_t> section_;  ///< open section's running hash
};

/// Decoder over the whole file, read once: every read is a length compare
/// against the span of bytes left, so a corrupted length can never drive
/// reads past the end of the file.
class Reader {
 public:
  Reader(std::span<const unsigned char> bytes, const std::string& path)
      : bytes_(bytes), path_(&path) {}

  void Header() {
    if (bytes_.size() < sizeof(kMagic) ||
        std::memcmp(bytes_.data(), kMagic, sizeof(kMagic)) != 0) {
      throw std::runtime_error("checkpoint: bad magic in " + *path_);
    }
    bytes_ = bytes_.subspan(sizeof(kMagic));
    uint32_t version = 0;
    (*this)(version);
    if (version != ServiceCheckpoint::kVersion) {
      throw std::runtime_error(
          "checkpoint: unsupported version " + std::to_string(version) +
          (version > ServiceCheckpoint::kVersion
               ? " (written by a future build)"
           : version == 4 ? " (carries the removed block-residency section)"
                          : " (predates format v5)"));
    }
  }
  template <typename... T>
  void operator()(T&... fields) {
    (Get(fields), ...);
  }
  /// A count of n elements of at least `min_element_bytes` each must fit in
  /// the bytes left, which bounds every resize by the file size: a flipped
  /// length byte fails loudly instead of attempting a multi-gigabyte resize
  /// (pinned by checkpoint_test's corruption fuzz).
  template <typename T, typename F>
  void Vec(std::vector<T>& vec, uint64_t sane_max, uint64_t min_element_bytes,
           F per_element) {
    uint64_t n = 0;
    Get(n);
    if (n > sane_max || n * min_element_bytes > bytes_.size()) {
      throw std::runtime_error("checkpoint: implausible count");
    }
    vec.resize(n);
    for (T& element : vec) per_element(*this, element);
  }
  void BeginSection() { section_ = kFnvBasis; }
  void EndSection(const char* name) {
    const uint64_t hash = *section_;
    section_.reset();
    uint64_t stored = 0;
    Get(stored);
    if (stored != hash) {
      throw std::runtime_error(std::string("checkpoint: ") + name +
                               " checksum mismatch in " + *path_);
    }
  }
  /// The second-order section is the last one: anything after it is not
  /// part of a v5 image (an append, or a section this build cannot read).
  void End() {
    if (!bytes_.empty()) {
      throw std::runtime_error("checkpoint: " + std::to_string(bytes_.size()) +
                               " trailing bytes after the last section in " +
                               *path_);
    }
  }

 private:
  void Get(uint8_t& v) { v = static_cast<uint8_t>(Word(1)); }
  void Get(uint32_t& v) { v = static_cast<uint32_t>(Word(4)); }
  void Get(uint64_t& v) { v = Word(8); }
  void Get(double& v) { v = std::bit_cast<double>(Word(8)); }
  void Get(CrawlPhase& v) {
    uint8_t phase = 0;
    Get(phase);
    if (phase > static_cast<uint8_t>(CrawlPhase::kDone)) {
      throw std::runtime_error("checkpoint: bad phase byte");
    }
    v = static_cast<CrawlPhase>(phase);
  }
  uint64_t Word(size_t bytes) {
    if (bytes_.size() < bytes) {
      throw std::runtime_error("checkpoint: truncated file");
    }
    uint64_t v = 0;
    for (size_t i = 0; i < bytes; ++i) {
      v |= static_cast<uint64_t>(bytes_[i]) << (8 * i);
    }
    bytes_ = bytes_.subspan(bytes);
    if (section_) section_ = Mix(*section_, v);
    return v;
  }

  std::span<const unsigned char> bytes_;
  const std::string* path_;
  std::optional<uint64_t> section_;  ///< open section's running hash
};

/// The v5 image, field by field in file order, for both directions: `ar` is
/// a Writer over a const checkpoint or a Reader over a fresh one.
template <typename Archive, typename Checkpoint>
void Walk(Archive& ar, Checkpoint& ckpt) {
  const auto scalar = [](auto& a, auto& v) { a(v); };
  ar.Header();
  ar(ckpt.config_fingerprint);
  ar.Vec(ckpt.session.cached_ids, kMaxCount, 4, scalar);
  ar(ckpt.session.unique_queries, ckpt.session.total_requests,
     ckpt.session.backend_requests);
  ar.Vec(ckpt.ledgers, 1 << 20, 96, [](auto& a, auto& ledger) {
    auto& s = ledger.stats;
    a(s.unique_queries, s.requests, s.failed_requests, s.timeouts,
      s.transient_errors, s.quota_rejections, s.budget_refusals,
      s.pacing_waits, s.simulated_us, ledger.bucket_tokens, ledger.clock_us,
      ledger.last_refill_us);
  });
  ar(ckpt.round_robin_cursor, ckpt.failed_fetches);
  ar.Vec(ckpt.walkers, 1 << 24, 36, [](auto& a, auto& walker) {
    a(walker.position);
    for (auto& word : walker.rng_state) a(word);
  });
  ar(ckpt.total_steps, ckpt.phase, ckpt.rounds, ckpt.collection_rounds_done,
     ckpt.burn_in_converged, ckpt.burn_in_rounds, ckpt.burn_in_query_cost);
  ar.Vec(ckpt.diagnostics, kMaxCount, 8, scalar);
  ar.Vec(ckpt.samples, kMaxCount, 28, [](auto& a, auto& sample) {
    a(sample.value, sample.weight, sample.query_cost, sample.node);
  });

  // Overlay section (v2): per-walker MTO overlay deltas, checksummed so a
  // corrupted overlay fails before a topology is rebuilt from it. Every
  // record carries at least a frozen byte and four counts.
  ar.BeginSection();
  ar.Vec(ckpt.overlays, 1 << 24, 33, [&scalar](auto& a, auto& overlay) {
    a(overlay.frozen);
    a.Vec(overlay.delta.registered, kMaxCount, 4, scalar);
    a.Vec(overlay.delta.removed, kMaxCount, 8, scalar);
    a.Vec(overlay.delta.added, kMaxCount, 8, scalar);
    a.Vec(overlay.delta.processed, kMaxCount, 8, scalar);
  });
  ar.EndSection("overlay-section");

  // Second-order walker section (v3): the (prev, cur) register of
  // second-order programs, 5 encoded bytes per record.
  ar.BeginSection();
  ar.Vec(ckpt.second_order, 1 << 24, 5, [](auto& a, auto& record) {
    a(record.has_prev, record.prev);
  });
  ar.EndSection("second-order-section");
  ar.End();
}

}  // namespace

void ServiceCheckpoint::Save(const std::string& path) const {
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("checkpoint: cannot write " + tmp);
  try {
    Writer w(out);
    Walk(w, *this);
    // Close before the rename so buffered-write errors surface while the
    // previous checkpoint is still intact on disk.
    out.close();
    if (!out) throw std::runtime_error("checkpoint: write failed on " + tmp);
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
      throw std::runtime_error("checkpoint: cannot rename " + tmp + " to " +
                               path);
    }
  } catch (...) {
    out.close();
    std::remove(tmp.c_str());
    throw;
  }
}

ServiceCheckpoint ServiceCheckpoint::Load(const std::string& path) {
  std::error_code ec;
  const uintmax_t size = std::filesystem::file_size(path, ec);
  std::ifstream in(path, std::ios::binary);
  if (ec || !in) throw std::runtime_error("checkpoint: cannot read " + path);
  const auto bytes = std::make_unique_for_overwrite<unsigned char[]>(size);
  in.read(reinterpret_cast<char*>(bytes.get()),
          static_cast<std::streamsize>(size));
  if (in.gcount() != static_cast<std::streamsize>(size)) {
    throw std::runtime_error("checkpoint: cannot read " + path);
  }
  ServiceCheckpoint ckpt;
  Reader r({bytes.get(), static_cast<size_t>(size)}, path);
  Walk(r, ckpt);
  return ckpt;
}

}  // namespace mto
