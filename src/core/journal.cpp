#include "core/journal.hpp"

#include <bit>
#include <cerrno>
#include <initializer_list>
#include <optional>
#include <sstream>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/json.hpp"
#include "common/parse_num.hpp"
#include "common/string_util.hpp"

namespace fibersim::core {

namespace {

// ----- bit-exact double <-> hex -------------------------------------------

std::string hex_f64(double v) {
  return strfmt("%016llx", static_cast<unsigned long long>(
                               std::bit_cast<std::uint64_t>(v)));
}

/// Each of `values` as the next hex-double item of the open array.
void write_f64s(json::Emitter& w, std::initializer_list<double> values) {
  for (const double v : values) w.str(hex_f64(v));
}

/// A JSON string of exactly 16 lowercase hex digits, as the u64 it spells.
std::optional<std::uint64_t> hex_u64(const json::Value* v) {
  if (v == nullptr || !v->is_string() || v->as_string().size() != 16) {
    return std::nullopt;
  }
  std::uint64_t value = 0;
  for (const char c : v->as_string()) {
    int digit = 0;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    else return std::nullopt;
    value = (value << 4) | static_cast<std::uint64_t>(digit);
  }
  return value;
}

bool read_f64(const json::Value* v, double* out) {
  const std::optional<std::uint64_t> bits = hex_u64(v);
  if (bits) *out = std::bit_cast<double>(*bits);
  return bits.has_value();
}

/// An array of exactly `outs.size()` hex doubles.
bool read_f64s(const json::Value* v, std::initializer_list<double*> outs) {
  if (v == nullptr || !v->is_array() || v->items().size() != outs.size()) {
    return false;
  }
  const json::Value* item = v->items().data();
  for (double* out : outs) {
    if (!read_f64(item++, out)) return false;
  }
  return true;
}

/// A non-negative integer below `limit`.
bool read_int(const json::Value* v, int limit, int* out) {
  if (v == nullptr || !v->is_number()) return false;
  const std::optional<int> i = parse_i32(v->raw_number());
  if (!i || *i < 0 || *i >= limit) return false;
  *out = *i;
  return true;
}

bool read_str(const json::Value* v, std::string* out) {
  if (v == nullptr || !v->is_string()) return false;
  *out = v->as_string();
  return true;
}

/// One "[name, timed, comm_s, total_s, compute_s, memory_s, barrier_s,
/// time.total_s, limiter, flops, dram_bytes, remote_bytes, chain_s]" entry.
bool read_phase(const json::Value& v, trace::PhasePrediction* phase) {
  if (!v.is_array() || v.items().size() != 13) return false;
  const json::Value* f = v.items().data();
  int timed = 0;
  int limiter = 0;
  machine::PhaseTime& t = phase->time;
  const bool ok =
      read_str(&f[0], &phase->name) && read_int(&f[1], 2, &timed) &&
      read_f64(&f[2], &phase->comm_s) && read_f64(&f[3], &phase->total_s) &&
      read_f64(&f[4], &t.compute_s) && read_f64(&f[5], &t.memory_s) &&
      read_f64(&f[6], &t.barrier_s) && read_f64(&f[7], &t.total_s) &&
      read_int(&f[8], 4, &limiter) && read_f64(&f[9], &t.flops) &&
      read_f64(&f[10], &t.dram_bytes) && read_f64(&f[11], &t.remote_bytes) &&
      read_f64(&f[12], &t.chain_s);
  phase->timed = timed != 0;
  t.limiter = static_cast<machine::Limiter>(limiter);
  return ok;
}

// ----- fingerprint ---------------------------------------------------------

void mix(Fnv1a& h, const std::string& v) { h.str(v); }
void mix(Fnv1a& h, int v) { h.i32(v); }
void mix(Fnv1a& h, double v) { h.f64(v); }
void mix(Fnv1a& h, bool v) { h.b(v); }

}  // namespace

std::uint64_t SweepJournal::fingerprint(const ExperimentConfig& config) {
  Fnv1a h;
  h.str(config.app)
      .i32(static_cast<int>(config.dataset))
      .i32(config.ranks)
      .i32(config.threads)
      .i32(config.nodes)
      .i32(static_cast<int>(config.alloc))
      .i32(static_cast<int>(config.bind.kind))
      .i32(config.bind.stride)
      .u64(config.compile.fingerprint());
  machine::for_each_field(
      config.processor,
      [&h](const char*, const auto& value, const machine::Bound&, bool) {
        mix(h, value);
      });
  h.f64(config.nominal_freq_hz)
      .u64(config.seed)
      .i32(config.iterations)
      .i32(config.weak_scale)
      .i32(config.collapse ? 1 : 0);
  return h.value();
}

// ----- open / load ---------------------------------------------------------

bool SweepJournal::parse_line(std::string_view line, std::uint64_t* key,
                              Stored* out) {
  const std::optional<json::Value> doc = json::parse(line, nullptr);
  if (!doc) return false;
  const json::Value* v = doc->find("v");
  const std::optional<std::uint64_t> k = hex_u64(doc->find("key"));
  const json::Value* phases = doc->find("phases");
  trace::JobPrediction& p = out->prediction;
  machine::PowerEstimate& power = out->power;
  int verified = 0;
  int nphases = 0;
  if (v == nullptr || !v->is_number() || v->raw_number() != "1" || !k ||
      !read_int(doc->find("verified"), 2, &verified) ||
      !read_f64(doc->find("check_value"), &out->check_value) ||
      !read_str(doc->find("check_desc"), &out->check_description) ||
      !read_f64s(doc->find("power"),
                 {&power.watts, &power.joules, &power.gflops_per_watt}) ||
      !read_f64s(doc->find("agg"),
                 {&p.total_s, &p.compute_s, &p.memory_s, &p.comm_s,
                  &p.barrier_s, &p.flops, &p.dram_bytes, &p.setup_s}) ||
      !read_int(doc->find("nphases"), 1000000000, &nphases) ||
      phases == nullptr || !phases->is_array() ||
      phases->items().size() != static_cast<std::size_t>(nphases)) {
    return false;
  }
  for (const json::Value& item : phases->items()) {
    p.phases.emplace_back();
    if (!read_phase(item, &p.phases.back())) return false;
  }
  out->verified = verified != 0;
  *key = *k;
  return true;
}

SweepJournal::SweepJournal(std::string path) : path_(std::move(path)) {
  FS_REQUIRE(!path_.empty(), "journal path must not be empty");
  // Read the whole file and find the durable prefix: everything up to and
  // including the last newline. Bytes past it are a torn tail from a kill
  // mid-append; only complete lines are trusted.
  std::string content;
  {
    std::ifstream in(path_, std::ios::binary);
    if (in) {
      std::ostringstream buf;
      buf << in.rdbuf();
      content = buf.str();
    }
  }
  std::size_t durable = content.rfind('\n');
  durable = (durable == std::string::npos) ? 0 : durable + 1;
  tail_bytes_ = content.size() - durable;

  std::size_t pos = 0;
  while (pos < durable) {
    const std::size_t eol = content.find('\n', pos);
    std::string_view line(content.data() + pos, eol - pos);
    pos = eol + 1;
    std::uint64_t key = 0;
    Stored stored;
    if (!parse_line(line, &key, &stored)) continue;  // torn/foreign: skip
    entries_[key] = std::move(stored);
    ++loaded_;
  }

  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  FS_REQUIRE(fd_ >= 0, "cannot open journal for append: " + path_);
  if (tail_bytes_ > 0) {
    // Truncate the torn tail so the next append starts on a fresh line —
    // appending after torn bytes would glue the new record onto them,
    // corrupting it for the next resume.
    FS_REQUIRE(::ftruncate(fd_, static_cast<off_t>(durable)) == 0,
               "cannot truncate torn journal tail: " + path_);
    ::fsync(fd_);
  }
}

SweepJournal::~SweepJournal() {
  if (fd_ >= 0) ::close(fd_);
}

// ----- lookup / record -----------------------------------------------------

bool SweepJournal::lookup(const ExperimentConfig& config,
                          ExperimentResult* out) const {
  const std::uint64_t key = fingerprint(config);
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  *out = ExperimentResult{};
  out->config = config;
  out->prediction = it->second.prediction;
  out->power = it->second.power;
  out->verified = it->second.verified;
  out->check_value = it->second.check_value;
  out->check_description = it->second.check_description;
  ++hits_;
  return true;
}

bool SweepJournal::record(const ExperimentConfig& config,
                          const ExperimentResult& result) {
  const std::uint64_t key = fingerprint(config);

  const trace::JobPrediction& p = result.prediction;
  json::Emitter w;
  w.object(json::Layout::kCompact);
  w.i64("v", 1);
  w.str("key", strfmt("%016llx", static_cast<unsigned long long>(key)));
  w.str("label", config.label());
  w.i64("verified", result.verified ? 1 : 0);
  w.str("check_value", hex_f64(result.check_value));
  w.str("check_desc", result.check_description);
  w.array("power", json::Layout::kCompact);
  write_f64s(w, {result.power.watts, result.power.joules,
                 result.power.gflops_per_watt});
  w.close();
  w.array("agg", json::Layout::kCompact);
  write_f64s(w, {p.total_s, p.compute_s, p.memory_s, p.comm_s, p.barrier_s,
                 p.flops, p.dram_bytes, p.setup_s});
  w.close();
  w.i64("nphases", static_cast<std::int64_t>(p.phases.size()));
  w.array("phases", json::Layout::kCompact);
  for (const trace::PhasePrediction& phase : p.phases) {
    const machine::PhaseTime& t = phase.time;
    w.array(json::Layout::kCompact);
    w.str(phase.name);
    w.i64(phase.timed ? 1 : 0);
    write_f64s(w, {phase.comm_s, phase.total_s, t.compute_s, t.memory_s,
                   t.barrier_s, t.total_s});
    w.i64(static_cast<int>(t.limiter));
    write_f64s(w, {t.flops, t.dram_bytes, t.remote_bytes, t.chain_s});
    w.close();
  }
  std::string line = std::move(w).finish();
  line += '\n';

  Stored stored;
  stored.prediction = result.prediction;
  stored.power = result.power;
  stored.verified = result.verified;
  stored.check_value = result.check_value;
  stored.check_description = result.check_description;

  std::lock_guard<std::mutex> lock(mutex_);
  if (!entries_.emplace(key, std::move(stored)).second) {
    return true;  // already durable from the earlier record
  }
  // write() the full line, then fsync before returning: callers may ack the
  // result to a client once record() returns true, so durability must be
  // established here, not at some later flush.
  std::size_t written = 0;
  while (written < line.size()) {
    const ssize_t n =
        ::write(fd_, line.data() + written, line.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  return ::fsync(fd_) == 0;
}

std::size_t SweepJournal::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

}  // namespace fibersim::core
