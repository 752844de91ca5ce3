#include "trace/trace_store.hpp"

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "common/log.hpp"
#include "common/parse_num.hpp"
#include "common/string_util.hpp"

namespace fibersim::trace {

namespace fs = std::filesystem;

namespace {

// On-disk format (host-endian; the endianness tag rejects foreign files):
//
//   magic[8]  "FSTRACE\0"
//   u32       format version (kFormatVersion)
//   u32       endianness/layout tag (kEndianTag)
//   key       app, dataset, ranks, threads, iterations, weak_scale,
//             collapse, seed, and the FNV key hash (redundant, checked)
//   u8        verified
//   f64       check_value            (bit pattern)
//   str       check_description
//   canonical i32 ranks, u64 phases; per phase: name, flags, entries,
//             classes; per class: full PhaseRecord (bit-exact doubles),
//             u64 record integrity hash, member rank list
//   u64       canonical fingerprint
//   u64       FNV-1a of every preceding byte (truncation/corruption check)
constexpr char kMagic[8] = {'F', 'S', 'T', 'R', 'A', 'C', 'E', '\0'};
// v2: StoreKey gained the `collapse` discriminator (collapsed executions
// store representative slots; their files must never satisfy full-run keys).
constexpr std::uint32_t kFormatVersion = 2;
constexpr std::uint32_t kEndianTag = 0xA64FC0DE;

constexpr const char* kFilePrefix = "trace-";
constexpr const char* kFileSuffix = ".fstrace";
constexpr const char* kTempPrefix = ".tmp-";

// Decode-time sanity caps: a corrupt count field must fail cleanly, not
// drive a multi-gigabyte allocation.
constexpr std::uint64_t kMaxRanks = 1u << 20;
constexpr std::uint64_t kMaxPhases = 1u << 20;
constexpr std::uint64_t kMaxStringBytes = 1u << 20;

class Writer {
 public:
  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i32(int v) { u32(static_cast<std::uint32_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u64(s.size());
    out_.append(s);
  }
  void raw(const char* data, std::size_t n) { out_.append(data, n); }

  std::string take() { return std::move(out_); }
  const std::string& bytes() const { return out_; }

 private:
  std::string out_;
};

/// Bounds-checked reader: any overrun flips ok() false and every later read
/// returns zeros, so a truncated file can never touch memory out of range.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : p_(bytes.data()), n_(bytes.size()) {}

  bool ok() const { return ok_; }
  std::size_t offset() const { return off_; }
  std::size_t remaining() const { return n_ - off_; }

  std::uint8_t u8() {
    if (!take(1)) return 0;
    return static_cast<std::uint8_t>(p_[off_ - 1]);
  }
  std::uint32_t u32() {
    std::uint32_t v = 0;
    if (!take(4)) return 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(p_[off_ - 4 + i]))
           << (8 * i);
    }
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    if (!take(8)) return 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(p_[off_ - 8 + i]))
           << (8 * i);
    }
    return v;
  }
  int i32() { return static_cast<int>(u32()); }
  double f64() { return std::bit_cast<double>(u64()); }
  std::string str() {
    const std::uint64_t len = u64();
    if (len > kMaxStringBytes || !take(static_cast<std::size_t>(len))) {
      ok_ = false;
      return {};
    }
    return std::string(p_ + off_ - len, static_cast<std::size_t>(len));
  }
  bool magic(const char (&expect)[8]) {
    if (!take(8)) return false;
    return std::equal(expect, expect + 8, p_ + off_ - 8);
  }

 private:
  bool take(std::size_t n) {
    if (!ok_ || n > n_ - off_) {
      ok_ = false;
      return false;
    }
    off_ += n;
    return true;
  }

  const char* p_;
  std::size_t n_;
  std::size_t off_ = 0;
  bool ok_ = true;
};

void write_work(Writer& w, const isa::WorkEstimate& work) {
  isa::for_each_field(work, [&](const char*, double v) { w.f64(v); });
}

isa::WorkEstimate read_work(Reader& r) {
  isa::WorkEstimate work;
  isa::for_each_field(work, [&](const char*, double& v) { v = r.f64(); });
  return work;
}

void write_record(Writer& w, const PhaseRecord& rec) {
  w.str(rec.name);
  w.u8(rec.parallel ? 1 : 0);
  w.u8(rec.timed ? 1 : 0);
  w.u64(rec.entries);
  write_work(w, rec.work);
  w.u64(rec.comm.sends.size());
  for (const auto& [dst, t] : rec.comm.sends) {
    w.i32(dst);
    w.u64(t.messages);
    w.u64(t.bytes);
  }
  w.u64(rec.comm.collectives.size());
  for (const auto& [kind, t] : rec.comm.collectives) {
    w.i32(static_cast<int>(kind));
    w.u64(t.calls);
    w.u64(t.bytes);
  }
}

PhaseRecord read_record(Reader& r) {
  PhaseRecord rec;
  rec.name = r.str();
  rec.parallel = r.u8() != 0;
  rec.timed = r.u8() != 0;
  rec.entries = r.u64();
  rec.work = read_work(r);
  const std::uint64_t n_sends = r.u64();
  for (std::uint64_t i = 0; r.ok() && i < n_sends; ++i) {
    const int dst = r.i32();
    mp::PeerTraffic t;
    t.messages = r.u64();
    t.bytes = r.u64();
    rec.comm.sends.emplace(dst, t);
  }
  const std::uint64_t n_coll = r.u64();
  for (std::uint64_t i = 0; r.ok() && i < n_coll; ++i) {
    const int kind = r.i32();
    mp::CollectiveTraffic t;
    t.calls = r.u64();
    t.bytes = r.u64();
    rec.comm.collectives.emplace(static_cast<mp::CollectiveKind>(kind), t);
  }
  return rec;
}

// One StoreKey field by its type: put() writes it to a Writer or hashes it
// into an Fnv1a, get() reads it back.
template <class Sink>
void put(Sink& sink, const std::string& v) { sink.str(v); }
template <class Sink>
void put(Sink& sink, int v) { sink.i32(v); }
template <class Sink>
void put(Sink& sink, std::uint64_t v) { sink.u64(v); }
void get(Reader& r, std::string& v) { v = r.str(); }
void get(Reader& r, int& v) { v = r.i32(); }
void get(Reader& r, std::uint64_t& v) { v = r.u64(); }

void write_key(Writer& w, const StoreKey& key) {
  StoreKey::for_each_field(key, [&](const auto& v) { put(w, v); });
  w.u64(key.hash());
}

StoreKey read_key(Reader& r, std::uint64_t* stored_hash) {
  StoreKey key;
  StoreKey::for_each_field(key, [&](auto& v) { get(r, v); });
  *stored_hash = r.u64();
  return key;
}

}  // namespace

std::uint64_t StoreKey::hash() const {
  Fnv1a h;
  for_each_field(*this, [&](const auto& v) { put(h, v); });
  return h.value();
}

std::string encode_stored(const StoreKey& key, const StoredExecution& exec) {
  Writer w;
  w.raw(kMagic, sizeof(kMagic));
  w.u32(kFormatVersion);
  w.u32(kEndianTag);
  write_key(w, key);
  w.u8(exec.verified ? 1 : 0);
  w.f64(exec.check_value);
  w.str(exec.check_description);

  const CanonicalTrace& canonical = exec.canonical;
  w.i32(canonical.ranks());
  w.u64(canonical.phase_count());
  for (const CanonicalTrace::Phase& phase : canonical.phases()) {
    w.str(phase.name);
    w.u8(phase.parallel ? 1 : 0);
    w.u8(phase.timed ? 1 : 0);
    w.u64(phase.entries);
    w.u64(phase.classes.size());
    for (const CanonicalTrace::Class& cls : phase.classes) {
      write_record(w, cls.record);
      w.u64(record_hash(cls.record));  // per-record integrity hash
      w.u64(cls.ranks.size());
      for (const int rank : cls.ranks) w.i32(rank);
    }
  }
  w.u64(canonical.fingerprint());

  Fnv1a file_hash;
  for (const char c : w.bytes()) {
    file_hash.byte(static_cast<unsigned char>(c));
  }
  w.u64(file_hash.value());
  return w.take();
}

std::optional<StoredExecution> decode_stored(const StoreKey& key,
                                             std::string_view bytes) {
  // Whole-file integrity first: the trailing hash must cover everything
  // before it, which rejects truncation and bit flips anywhere at once.
  if (bytes.size() < sizeof(kMagic) + 2 * sizeof(std::uint32_t) +
                         sizeof(std::uint64_t)) {
    return std::nullopt;
  }
  const std::size_t body = bytes.size() - sizeof(std::uint64_t);
  Fnv1a file_hash;
  for (std::size_t i = 0; i < body; ++i) {
    file_hash.byte(static_cast<unsigned char>(bytes[i]));
  }
  Reader footer(bytes.substr(body));
  if (footer.u64() != file_hash.value()) return std::nullopt;

  Reader r(bytes.substr(0, body));
  if (!r.magic(kMagic)) return std::nullopt;
  if (r.u32() != kFormatVersion) return std::nullopt;
  if (r.u32() != kEndianTag) return std::nullopt;

  std::uint64_t stored_key_hash = 0;
  const StoreKey stored_key = read_key(r, &stored_key_hash);
  if (!r.ok() || stored_key != key || stored_key_hash != key.hash()) {
    return std::nullopt;
  }

  StoredExecution exec;
  exec.verified = r.u8() != 0;
  exec.check_value = r.f64();
  exec.check_description = r.str();

  const int ranks = r.i32();
  const std::uint64_t n_phases = r.u64();
  if (!r.ok() || ranks < 1 || static_cast<std::uint64_t>(ranks) > kMaxRanks ||
      n_phases > kMaxPhases) {
    return std::nullopt;
  }

  // Decode straight into the expanded per-rank trace; membership lists must
  // partition [0, ranks) exactly once per phase.
  JobTrace trace(static_cast<std::size_t>(ranks));
  for (RankTrace& rt : trace) rt.reserve(static_cast<std::size_t>(n_phases));
  for (std::uint64_t p = 0; p < n_phases; ++p) {
    const std::string phase_name = r.str();
    const bool parallel = r.u8() != 0;
    const bool timed = r.u8() != 0;
    const std::uint64_t entries = r.u64();
    static_cast<void>(phase_name);
    static_cast<void>(parallel);
    static_cast<void>(timed);
    static_cast<void>(entries);
    const std::uint64_t n_classes = r.u64();
    if (!r.ok() || n_classes < 1 ||
        n_classes > static_cast<std::uint64_t>(ranks)) {
      return std::nullopt;
    }
    std::vector<bool> seen(static_cast<std::size_t>(ranks), false);
    for (std::uint64_t c = 0; c < n_classes; ++c) {
      const PhaseRecord rec = read_record(r);
      const std::uint64_t integrity = r.u64();
      if (!r.ok() || integrity != record_hash(rec)) return std::nullopt;
      const std::uint64_t n_members = r.u64();
      if (!r.ok() || n_members < 1 ||
          n_members > static_cast<std::uint64_t>(ranks)) {
        return std::nullopt;
      }
      for (std::uint64_t m = 0; m < n_members; ++m) {
        const int rank = r.i32();
        if (!r.ok() || rank < 0 || rank >= ranks ||
            seen[static_cast<std::size_t>(rank)]) {
          return std::nullopt;
        }
        seen[static_cast<std::size_t>(rank)] = true;
        trace[static_cast<std::size_t>(rank)].push_back(rec);
      }
    }
    if (std::find(seen.begin(), seen.end(), false) != seen.end()) {
      return std::nullopt;
    }
  }
  const std::uint64_t stored_fingerprint = r.u64();
  if (!r.ok() || r.remaining() != 0) return std::nullopt;

  // Re-canonicalize through the one true admission path: the loaded
  // execution satisfies exactly the invariants build() establishes, and the
  // fingerprint must round-trip (covers class membership and ordering).
  try {
    exec.canonical = CanonicalTrace::build(trace);
  } catch (...) {
    return std::nullopt;
  }
  if (exec.canonical.fingerprint() != stored_fingerprint) return std::nullopt;
  return exec;
}

TraceStore::TraceStore(std::string dir, std::uint64_t max_bytes)
    : dir_(std::move(dir)), max_bytes_(max_bytes) {
  std::error_code ec;
  fs::create_directories(dir_, ec);  // best effort; store() retries
}

std::shared_ptr<TraceStore> TraceStore::from_env() {
  const char* dir = std::getenv("FIBERSIM_TRACE_CACHE");
  if (dir == nullptr || dir[0] == '\0') return nullptr;
  std::uint64_t max_bytes = kDefaultMaxBytes;
  if (const char* mb = std::getenv("FIBERSIM_TRACE_CACHE_MAX_MB")) {
    // Checked parse: negative values must not wrap through strtoull into a
    // ~2^64-byte budget that disables eviction, and trailing garbage or an
    // ERANGE overflow must not half-apply. The shift bound keeps `v << 20`
    // representable. Anything invalid falls back to the default, loudly.
    const std::optional<std::uint64_t> v = parse_u64(mb);
    if (v && *v <= (std::numeric_limits<std::uint64_t>::max() >> 20)) {
      max_bytes = *v << 20;
    } else {
      FS_LOG(kWarn) << "FIBERSIM_TRACE_CACHE_MAX_MB='" << mb
                    << "' is not a valid size in MiB; using default "
                    << (kDefaultMaxBytes >> 20) << " MiB";
    }
  }
  return std::make_shared<TraceStore>(dir, max_bytes);
}

std::string TraceStore::path_for(const StoreKey& key) const {
  return (fs::path(dir_) /
          strfmt("%s%016llx%s", kFilePrefix,
                 static_cast<unsigned long long>(key.hash()), kFileSuffix))
      .string();
}

std::optional<StoredExecution> TraceStore::load(const StoreKey& key) {
  loads_.fetch_add(1, std::memory_order_relaxed);
  std::ifstream in(path_for(key), std::ios::binary);
  if (!in.good()) return std::nullopt;
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (!in.good() && !in.eof()) return std::nullopt;
  auto exec = decode_stored(key, bytes);
  if (exec) hits_.fetch_add(1, std::memory_order_relaxed);
  return exec;
}

bool TraceStore::store(const StoreKey& key, const StoredExecution& exec) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  const std::string blob = encode_stored(key, exec);
  const std::string final_path = path_for(key);

  // Unique temp name per (process, publication): concurrent writers of the
  // same key each stage their own file; the rename publishes atomically and
  // last-writer-wins with byte-identical content.
  static std::atomic<std::uint64_t> counter{0};
  const std::string tmp_path =
      (fs::path(dir_) /
       strfmt("%s%d-%llu", kTempPrefix, static_cast<int>(::getpid()),
              static_cast<unsigned long long>(
                  counter.fetch_add(1, std::memory_order_relaxed))))
          .string();
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out.good()) return false;
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
    out.flush();
    if (!out.good()) {
      out.close();
      fs::remove(tmp_path, ec);
      return false;
    }
  }
  fs::rename(tmp_path, final_path, ec);
  if (ec) {
    fs::remove(tmp_path, ec);
    return false;
  }
  writes_.fetch_add(1, std::memory_order_relaxed);
  if (max_bytes_ > 0) evict_over_budget(final_path);
  return true;
}

void TraceStore::evict_over_budget(const std::string& keep) {
  std::lock_guard<std::mutex> lock(evict_mutex_);
  struct Entry {
    fs::file_time_type mtime;
    std::string path;
    std::uint64_t size = 0;
  };
  std::vector<Entry> entries;
  std::uint64_t total = 0;
  std::error_code ec;
  for (fs::directory_iterator it(dir_, ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name.rfind(kFilePrefix, 0) != 0 ||
        name.size() < std::string(kFileSuffix).size() ||
        name.compare(name.size() - std::string(kFileSuffix).size(),
                     std::string::npos, kFileSuffix) != 0) {
      continue;
    }
    std::error_code fec;
    Entry e;
    e.path = it->path().string();
    e.size = it->file_size(fec);
    if (fec) continue;
    e.mtime = it->last_write_time(fec);
    if (fec) continue;
    total += e.size;
    entries.push_back(std::move(e));
  }
  if (total <= max_bytes_) return;
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    return a.mtime != b.mtime ? a.mtime < b.mtime : a.path < b.path;
  });
  for (const Entry& e : entries) {
    if (total <= max_bytes_) break;
    if (e.path == keep) continue;
    std::error_code rec;
    if (fs::remove(e.path, rec) && !rec) {
      total -= e.size;
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

}  // namespace fibersim::trace
