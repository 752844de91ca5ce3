// TraceStore — tier-2 of the trace cache: a persistent, content-addressed
// store of recorded executions, shared between processes.
//
// Tier 1 is the Runner's in-memory execution cache, which dies with the
// process. The store persists each execution under a file named by the
// Runner's job key hash, using a versioned binary format (magic + format
// version + endianness tag, bit-exact doubles, a per-record integrity hash
// and a whole-file content hash). A warm `fibersim report` / bench process
// then replays every sweep from disk with zero native runs and byte-identical
// output.
//
// Robustness contract (the load path can never change results or crash):
//   * publication is atomic write-to-temp + rename, so concurrent writers —
//     threads or whole processes — never expose a torn file;
//   * load() verifies magic, version, endianness, the full key identity (not
//     just its hash — an FNV collision falls back too), every record's
//     integrity hash and the trailing file hash; any mismatch, truncation or
//     decode overrun returns nullopt and the caller runs natively;
//   * the decoded classes are re-expanded and re-canonicalized through
//     CanonicalTrace::build, so a loaded execution satisfies exactly the
//     invariants cache admission would have established;
//   * eviction is size-bounded (oldest files first) and tolerates every
//     filesystem race: a reader holding an evicted file keeps its fd, a
//     reader that misses runs natively.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "trace/canonical.hpp"

namespace fibersim::trace {

/// Full identity of a stored execution; also the Runner's in-memory
/// execution-cache key (Runner::execution_key builds it). The
/// encoded file carries these verbatim and load() requires an exact match,
/// so a key-hash collision can never serve the wrong execution.
struct StoreKey {
  std::string app;
  int dataset = 0;
  int ranks = 0;
  int threads = 0;
  int iterations = 0;
  int weak_scale = 0;
  /// 1 when the execution ran collapsed (one representative per symmetry
  /// class; the stored trace then holds the representative slots, not the
  /// full virtual job). Collapsed and full executions never alias.
  int collapse = 0;
  std::uint64_t seed = 0;

  auto operator<=>(const StoreKey&) const = default;
  /// FNV-1a over all fields.
  std::uint64_t hash() const;

  /// Every field in one fixed order: visit(member) per field. hash() and
  /// the store's key writer and reader all walk this list, so a new field
  /// is one line here. `Key` is StoreKey or const StoreKey.
  template <class Key, class Visit>
  static void for_each_field(Key& key, Visit&& visit) {
    visit(key.app);
    visit(key.dataset);
    visit(key.ranks);
    visit(key.threads);
    visit(key.iterations);
    visit(key.weak_scale);
    visit(key.collapse);
    visit(key.seed);
  }
};

/// Everything the Runner needs to reuse a native execution without
/// re-running it.
struct StoredExecution {
  CanonicalTrace canonical;
  bool verified = false;
  double check_value = 0.0;
  std::string check_description;
};

/// Serialize to the versioned binary format (doubles by bit pattern).
std::string encode_stored(const StoreKey& key, const StoredExecution& exec);

/// Decode and verify a blob for `key`. Returns nullopt on any corruption,
/// truncation, version/endianness mismatch or key disagreement — never
/// throws for malformed input.
std::optional<StoredExecution> decode_stored(const StoreKey& key,
                                             std::string_view bytes);

class TraceStore {
 public:
  static constexpr std::uint64_t kDefaultMaxBytes = 256ull << 20;  // 256 MiB

  /// Opens (and lazily creates) the store directory. `max_bytes` bounds the
  /// total size of stored traces; 0 disables eviction.
  explicit TraceStore(std::string dir,
                      std::uint64_t max_bytes = kDefaultMaxBytes);

  /// Store configured by FIBERSIM_TRACE_CACHE (directory) and, optionally,
  /// FIBERSIM_TRACE_CACHE_MAX_MB. Null when the variable is unset or empty.
  static std::shared_ptr<TraceStore> from_env();

  /// Load the execution stored for `key`, or nullopt (missing / corrupt /
  /// mismatched file — the caller falls back to a native run).
  std::optional<StoredExecution> load(const StoreKey& key);

  /// Atomically publish `exec` under `key` (write temp + rename). Returns
  /// false on any I/O failure; the store never throws for full disks or
  /// permission errors.
  bool store(const StoreKey& key, const StoredExecution& exec);

  const std::string& dir() const { return dir_; }
  std::uint64_t max_bytes() const { return max_bytes_; }
  /// Final path a given key publishes to (tests corrupt it deliberately).
  std::string path_for(const StoreKey& key) const;

  // Lifetime counters (per store instance).
  std::size_t loads() const { return loads_.load(std::memory_order_relaxed); }
  std::size_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::size_t writes() const {
    return writes_.load(std::memory_order_relaxed);
  }
  std::size_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }

  /// One coherent snapshot of the counters (the serve daemon's `stats` verb
  /// reports these as the tier-2 section beside the Runner's tier counts).
  struct Stats {
    std::size_t loads = 0;
    std::size_t hits = 0;
    std::size_t writes = 0;
    std::size_t evictions = 0;
  };
  Stats stats() const {
    return Stats{loads(), hits(), writes(), evictions()};
  }

 private:
  /// Delete oldest trace files until the directory fits max_bytes_, never
  /// touching `keep` (the file just published). Best-effort under races.
  void evict_over_budget(const std::string& keep);

  std::string dir_;
  std::uint64_t max_bytes_;
  std::mutex evict_mutex_;
  std::atomic<std::size_t> loads_{0};
  std::atomic<std::size_t> hits_{0};
  std::atomic<std::size_t> writes_{0};
  std::atomic<std::size_t> evictions_{0};
};

}  // namespace fibersim::trace
