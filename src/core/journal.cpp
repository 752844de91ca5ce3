#include "core/journal.hpp"

#include <bit>
#include <cerrno>
#include <sstream>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/string_util.hpp"

namespace fibersim::core {

namespace {

// ----- bit-exact double <-> hex -------------------------------------------

std::string hex_f64(double v) {
  return strfmt("%016llx", static_cast<unsigned long long>(
                               std::bit_cast<std::uint64_t>(v)));
}

bool parse_hex_u64(std::string_view text, std::uint64_t* out) {
  if (text.empty() || text.size() > 16) return false;
  std::uint64_t value = 0;
  for (char c : text) {
    int digit = 0;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    else return false;
    value = (value << 4) | static_cast<std::uint64_t>(digit);
  }
  *out = value;
  return true;
}

bool parse_hex_f64(std::string_view text, double* out) {
  std::uint64_t bits = 0;
  if (!parse_hex_u64(text, &bits)) return false;
  *out = std::bit_cast<double>(bits);
  return true;
}

// ----- minimal JSON string escape -----------------------------------------

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default: out += c;
    }
  }
  return out;
}

// ----- line scanner --------------------------------------------------------

/// Strict cursor over one journal line. The journal only ever parses its own
/// emission format (fixed field order), so this is a scanner, not a general
/// JSON parser; any mismatch fails the whole line, which the loader skips.
class Scanner {
 public:
  explicit Scanner(std::string_view line) : line_(line) {}

  bool literal(std::string_view text) {
    if (line_.substr(pos_, text.size()) != text) return false;
    pos_ += text.size();
    return true;
  }

  /// "escaped string" (opening quote must be next).
  bool string(std::string* out) {
    if (!literal("\"")) return false;
    out->clear();
    while (pos_ < line_.size()) {
      const char c = line_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (pos_ >= line_.size()) return false;
      const char e = line_[pos_++];
      switch (e) {
        case '"': *out += '"'; break;
        case '\\': *out += '\\'; break;
        case 'n': *out += '\n'; break;
        case 't': *out += '\t'; break;
        case 'r': *out += '\r'; break;
        default: return false;
      }
    }
    return false;
  }

  /// "hex-encoded double"
  bool f64(double* out) {
    std::string text;
    return string(&text) && parse_hex_f64(text, out);
  }

  /// Bare small non-negative integer.
  bool integer(int* out) {
    std::size_t digits = 0;
    long value = 0;
    while (pos_ < line_.size() && line_[pos_] >= '0' && line_[pos_] <= '9') {
      value = value * 10 + (line_[pos_] - '0');
      if (value > 1000000000) return false;
      ++pos_;
      ++digits;
    }
    if (digits == 0) return false;
    *out = static_cast<int>(value);
    return true;
  }

  bool done() const { return pos_ == line_.size(); }

 private:
  std::string_view line_;
  std::size_t pos_ = 0;
};

}  // namespace

// ----- fingerprint ---------------------------------------------------------

namespace {
void hash_processor(Fnv1a& h, const machine::ProcessorConfig& p) {
  h.str(p.name)
      .i32(p.shape.sockets)
      .i32(p.shape.numa_per_socket)
      .i32(p.shape.cores_per_numa)
      .f64(p.freq_hz)
      .str(p.vec.name)
      .i32(p.vec.vector_bits)
      .b(p.vec.has_fma)
      .f64(p.vec.gather_lanes_per_cycle)
      .b(p.vec.has_predication)
      .i32(p.fp_pipes)
      .f64(p.fp_latency_cycles)
      .f64(p.scalar_ipc)
      .f64(p.mem_overlap)
      .f64(p.branch_miss_penalty_cycles);
  for (const machine::CacheLevel& level : {p.l1, p.l2}) {
    h.f64(level.capacity_bytes)
        .f64(level.bytes_per_cycle)
        .f64(level.latency_cycles);
  }
  h.f64(p.numa_mem_bw)
      .f64(p.numa_mem_latency_ns)
      .f64(p.inter_numa_bw)
      .f64(p.inter_numa_latency_ns)
      .f64(p.inter_socket_bw)
      .f64(p.inter_socket_latency_ns)
      .f64(p.net.injection_bw)
      .f64(p.net.link_bw)
      .f64(p.net.base_latency_us)
      .f64(p.net.hop_latency_ns)
      .f64(p.intra_node_msg_latency_ns)
      .f64(p.barrier_hop_ns_same_numa)
      .f64(p.barrier_hop_ns_cross_numa)
      .f64(p.barrier_hop_ns_cross_socket)
      .f64(p.watts_base)
      .f64(p.watts_per_core_active)
      .f64(p.watts_per_GBps_dram)
      .f64(p.freq_power_exponent)
      .f64(p.boost_freq_hz)
      .i32(p.eco_fp_pipes)
      .f64(p.eco_core_power_scale);
}
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
  hash_processor(h, config.processor);
  h.f64(config.nominal_freq_hz)
      .u64(config.seed)
      .i32(config.iterations)
      .i32(config.weak_scale)
      .i32(config.collapse ? 1 : 0);
  return h.value();
}

// ----- open / load ---------------------------------------------------------

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
    Scanner s(line);
    std::uint64_t key = 0;
    Stored stored;
    std::string key_text;
    std::string label;  // human-readable only; ignored on load
    int verified = 0;
    int nphases = 0;
    bool ok = s.literal("{\"v\":1,\"key\":") && s.string(&key_text) &&
              parse_hex_u64(key_text, &key) && s.literal(",\"label\":") &&
              s.string(&label) && s.literal(",\"verified\":") &&
              s.integer(&verified) && s.literal(",\"check_value\":") &&
              s.f64(&stored.check_value) && s.literal(",\"check_desc\":") &&
              s.string(&stored.check_description) &&
              s.literal(",\"power\":[") && s.f64(&stored.power.watts) &&
              s.literal(",") && s.f64(&stored.power.joules) &&
              s.literal(",") && s.f64(&stored.power.gflops_per_watt) &&
              s.literal("],\"agg\":[") && s.f64(&stored.prediction.total_s) &&
              s.literal(",") && s.f64(&stored.prediction.compute_s) &&
              s.literal(",") && s.f64(&stored.prediction.memory_s) &&
              s.literal(",") && s.f64(&stored.prediction.comm_s) &&
              s.literal(",") && s.f64(&stored.prediction.barrier_s) &&
              s.literal(",") && s.f64(&stored.prediction.flops) &&
              s.literal(",") && s.f64(&stored.prediction.dram_bytes) &&
              s.literal(",") && s.f64(&stored.prediction.setup_s) &&
              s.literal("],\"nphases\":") && s.integer(&nphases) &&
              s.literal(",\"phases\":[");
    for (int i = 0; ok && i < nphases; ++i) {
      trace::PhasePrediction phase;
      int timed = 0;
      int limiter = 0;
      ok = (i == 0 || s.literal(",")) && s.literal("[") &&
           s.string(&phase.name) && s.literal(",") && s.integer(&timed) &&
           s.literal(",") && s.f64(&phase.comm_s) && s.literal(",") &&
           s.f64(&phase.total_s) && s.literal(",") &&
           s.f64(&phase.time.compute_s) && s.literal(",") &&
           s.f64(&phase.time.memory_s) && s.literal(",") &&
           s.f64(&phase.time.barrier_s) && s.literal(",") &&
           s.f64(&phase.time.total_s) && s.literal(",") &&
           s.integer(&limiter) && s.literal(",") && s.f64(&phase.time.flops) &&
           s.literal(",") && s.f64(&phase.time.dram_bytes) &&
           s.literal(",") && s.f64(&phase.time.remote_bytes) &&
           s.literal(",") && s.f64(&phase.time.chain_s) && s.literal("]");
      if (ok && (limiter < 0 || limiter > 3)) ok = false;
      if (ok) {
        phase.timed = timed != 0;
        phase.time.limiter = static_cast<machine::Limiter>(limiter);
        stored.prediction.phases.push_back(std::move(phase));
      }
    }
    ok = ok && s.literal("]}") && s.done();
    if (!ok) continue;  // torn/foreign line (e.g. killed mid-append): skip
    stored.verified = verified != 0;
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

  std::string line = strfmt(
      "{\"v\":1,\"key\":\"%016llx\",\"label\":\"%s\",\"verified\":%d,"
      "\"check_value\":\"%s\",\"check_desc\":\"%s\",\"power\":[\"%s\",\"%s\","
      "\"%s\"],\"agg\":[",
      static_cast<unsigned long long>(key), escape(config.label()).c_str(),
      result.verified ? 1 : 0, hex_f64(result.check_value).c_str(),
      escape(result.check_description).c_str(),
      hex_f64(result.power.watts).c_str(),
      hex_f64(result.power.joules).c_str(),
      hex_f64(result.power.gflops_per_watt).c_str());
  const trace::JobPrediction& p = result.prediction;
  for (double v : {p.total_s, p.compute_s, p.memory_s, p.comm_s, p.barrier_s,
                   p.flops, p.dram_bytes, p.setup_s}) {
    if (line.back() != '[') line += ',';
    line += '"' + hex_f64(v) + '"';
  }
  line += strfmt("],\"nphases\":%d,\"phases\":[",
                 static_cast<int>(p.phases.size()));
  for (std::size_t i = 0; i < p.phases.size(); ++i) {
    const trace::PhasePrediction& phase = p.phases[i];
    if (i > 0) line += ',';
    line += strfmt("[\"%s\",%d", escape(phase.name).c_str(),
                   phase.timed ? 1 : 0);
    line += ",\"" + hex_f64(phase.comm_s) + '"';
    line += ",\"" + hex_f64(phase.total_s) + '"';
    line += ",\"" + hex_f64(phase.time.compute_s) + '"';
    line += ",\"" + hex_f64(phase.time.memory_s) + '"';
    line += ",\"" + hex_f64(phase.time.barrier_s) + '"';
    line += ",\"" + hex_f64(phase.time.total_s) + '"';
    line += strfmt(",%d", static_cast<int>(phase.time.limiter));
    line += ",\"" + hex_f64(phase.time.flops) + '"';
    line += ",\"" + hex_f64(phase.time.dram_bytes) + '"';
    line += ",\"" + hex_f64(phase.time.remote_bytes) + '"';
    line += ",\"" + hex_f64(phase.time.chain_s) + '"';
    line += ']';
  }
  line += "]}";

  Stored stored;
  stored.prediction = result.prediction;
  stored.power = result.power;
  stored.verified = result.verified;
  stored.check_value = result.check_value;
  stored.check_description = result.check_description;

  line += '\n';

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
