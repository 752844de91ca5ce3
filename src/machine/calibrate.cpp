#include "machine/calibrate.hpp"

#include <unistd.h>

#ifdef __linux__
#include <sched.h>
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/string_util.hpp"
#include "common/units.hpp"

namespace fibersim::machine {

using namespace fibersim::units;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Results the optimiser must not delete; a volatile store is a side effect.
volatile std::uint64_t g_sink_u64 = 0;
volatile double g_sink_f64 = 0.0;

/// Quantise to 3 significant decimal digits — fitted descriptors diff
/// cleanly and tiny run-to-run jitter does not leak into the output.
double quant3(double v) {
  const std::string s = strfmt("%.3g", v);
  return std::strtod(s.c_str(), nullptr);
}

int log2_ceil(int n) {
  int bits = 0;
  while ((1 << bits) < n) ++bits;
  return bits;
}

/// Dependent add/xor chain: two 1-cycle ops per step that no compiler can
/// fold, so the issue rate approximates the core clock at 2 steps/cycle...
/// actually 2 cycles/step -> freq = 2 * steps / elapsed.
double measure_freq(double budget_s) {
  std::uint64_t x = 0x9e3779b97f4a7c15ULL, y = 0x2545f4914f6cdd1dULL;
  double total_steps = 0.0, elapsed = 0.0;
  constexpr std::uint64_t kChunk = 1u << 20;
  while (elapsed < budget_s) {
    const double t0 = now_s();
    for (std::uint64_t i = 0; i < kChunk; ++i) {
      x += y;
      y ^= x;
    }
    elapsed += now_s() - t0;
    total_steps += static_cast<double>(kChunk);
  }
  g_sink_u64 = x ^ y;
  return 2.0 * total_steps / elapsed;
}

/// Streaming read bandwidth over a working set of `bytes`, seeded fill.
double measure_stream_bw(std::size_t bytes, std::uint64_t seed,
                         double budget_s) {
  const std::size_t n = bytes / sizeof(std::uint64_t);
  std::vector<std::uint64_t> data(n);
  Xoshiro256 rng(seed, /*stream=*/1);
  for (auto& v : data) v = rng.next();
  double total_bytes = 0.0, elapsed = 0.0;
  std::uint64_t sum = 0;
  while (elapsed < budget_s) {
    const double t0 = now_s();
    for (std::size_t i = 0; i < n; ++i) sum += data[i];
    elapsed += now_s() - t0;
    total_bytes += static_cast<double>(bytes);
  }
  g_sink_u64 = sum;
  return total_bytes / elapsed;
}

/// All-thread streaming read bandwidth (each thread owns its buffer).
double measure_dram_bw(int threads, std::size_t bytes_per_thread,
                       std::uint64_t seed, double budget_s) {
  std::atomic<int> ready{0};
  std::atomic<bool> go{false}, stop{false};
  std::vector<double> bytes_done(static_cast<std::size_t>(threads), 0.0);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      const std::size_t n = bytes_per_thread / sizeof(std::uint64_t);
      std::vector<std::uint64_t> data(n);
      Xoshiro256 rng(seed, 2 + static_cast<std::uint64_t>(t));
      for (auto& v : data) v = rng.next();
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {}
      std::uint64_t sum = 0;
      double local = 0.0;
      while (!stop.load(std::memory_order_relaxed)) {
        for (std::size_t i = 0; i < n; ++i) sum += data[i];
        local += static_cast<double>(bytes_per_thread);
      }
      g_sink_u64 = sum;
      bytes_done[static_cast<std::size_t>(t)] = local;
    });
  }
  while (ready.load() < threads) {}
  const double t0 = now_s();
  go.store(true, std::memory_order_release);
  while (now_s() - t0 < budget_s) {}
  stop.store(true, std::memory_order_relaxed);
  const double elapsed = now_s() - t0;
  for (auto& th : pool) th.join();
  double total = 0.0;
  for (const double b : bytes_done) total += b;
  return total / elapsed;
}

/// Independent FMA accumulator chains: throughput-bound, 2 flops per op.
double measure_fma(double budget_s) {
  double acc[8] = {1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7};
  const double m = 1.0000001, c = 1e-9;
  double total_ops = 0.0, elapsed = 0.0;
  constexpr int kChunk = 1 << 18;
  while (elapsed < budget_s) {
    const double t0 = now_s();
    for (int i = 0; i < kChunk; ++i) {
      for (double& a : acc) a = a * m + c;
    }
    elapsed += now_s() - t0;
    total_ops += 8.0 * static_cast<double>(kChunk);
  }
  double sum = 0.0;
  for (const double a : acc) sum += a;
  g_sink_f64 = sum;
  return 2.0 * total_ops / elapsed;  // FMA = 2 flops
}

/// Seeded pointer-chase latency (ns/step) over a single random cycle,
/// executed on CPU `home_cpu` (best-effort pinning) against memory the
/// caller touched — the near/far contrast is the NUMA-remote penalty.
double chase_ns(std::vector<std::uint32_t>* cycle, int home_cpu,
                double budget_s) {
  double result = 0.0;
  std::thread worker([&] {
#ifdef __linux__
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(home_cpu, &set);
    (void)sched_setaffinity(0, sizeof(set), &set);  // best effort
#else
    (void)home_cpu;
#endif
    std::uint32_t idx = 0;
    double steps = 0.0, elapsed = 0.0;
    constexpr int kChunk = 1 << 16;
    while (elapsed < budget_s) {
      const double t0 = now_s();
      for (int i = 0; i < kChunk; ++i) idx = (*cycle)[idx];
      elapsed += now_s() - t0;
      steps += kChunk;
    }
    g_sink_u64 = idx;
    result = elapsed / steps * 1e9;
  });
  worker.join();
  return result;
}

/// Sattolo shuffle: one full cycle visiting every slot in seeded order.
std::vector<std::uint32_t> make_cycle(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint32_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = static_cast<std::uint32_t>(i);
  Xoshiro256 rng(seed, /*stream=*/17);
  for (std::size_t i = n - 1; i > 0; --i) {
    const std::size_t j = rng.bounded(i);
    std::swap(perm[i], perm[j]);
  }
  return perm;
}

/// Sense-reversing spin barrier cost, averaged over `rounds`.
double measure_barrier_ns(int threads, int rounds) {
  std::atomic<int> count{0};
  std::atomic<int> gen{0};
  auto wait = [&] {
    const int g = gen.load(std::memory_order_acquire);
    if (count.fetch_add(1, std::memory_order_acq_rel) + 1 == threads) {
      count.store(0, std::memory_order_relaxed);
      gen.fetch_add(1, std::memory_order_release);
    } else {
      while (gen.load(std::memory_order_acquire) == g) {}
    }
  };
  std::vector<std::thread> pool;
  double elapsed = 0.0;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      const double t0 = now_s();
      for (int r = 0; r < rounds; ++r) wait();
      if (t == 0) elapsed = now_s() - t0;
    });
  }
  for (auto& th : pool) th.join();
  return elapsed / rounds * 1e9;
}

int detect_numa_domains() {
  std::error_code ec;
  int count = 0;
  const char* base = "/sys/devices/system/node";
  for (const auto& entry :
       std::filesystem::directory_iterator(base, ec)) {
    const std::string stem = entry.path().filename().string();
    if (stem.rfind("node", 0) == 0 && stem.size() > 4 &&
        stem[4] >= '0' && stem[4] <= '9') {
      ++count;
    }
  }
  return count > 0 ? count : 1;
}

double l1_capacity_bytes() {
#ifdef _SC_LEVEL1_DCACHE_SIZE
  const long v = ::sysconf(_SC_LEVEL1_DCACHE_SIZE);
  if (v > 0) return static_cast<double>(v);
#endif
  return 32.0 * 1024.0;
}

double l2_capacity_bytes() {
#ifdef _SC_LEVEL2_CACHE_SIZE
  const long v = ::sysconf(_SC_LEVEL2_CACHE_SIZE);
  if (v > 0) return static_cast<double>(v);
#endif
  return 1024.0 * 1024.0;
}

isa::VectorIsa host_isa() {
#if defined(__AVX512F__)
  return isa::avx512();
#elif defined(__ARM_FEATURE_SVE)
  return isa::sve512();
#elif defined(__AVX2__)
  return isa::avx2_256();
#elif defined(__ARM_NEON)
  return isa::neon128();
#else
  isa::VectorIsa v;
  v.name = "SCALAR-64";
  v.vector_bits = 64;
  v.has_fma = true;
  v.gather_lanes_per_cycle = 1.0;
  v.has_predication = false;
  return v;
#endif
}

constexpr std::string_view kMeasurementsFormat = "fibersim-calibration/1";

}  // namespace

void CalibrationOptions::validate() const {
  FS_REQUIRE(trials >= 1, "calibrate trials must be >= 1");
  FS_REQUIRE(!name.empty(), "calibrate name must not be empty");
}

std::string measurements_to_json(const CalibrationMeasurements& m) {
  json::Emitter e;
  e.object(json::Layout::kBlock);
  e.str("format", kMeasurementsFormat);
  e.shortest("freq_hz", m.freq_hz);
  e.shortest("l1_bw", m.l1_bw);
  e.shortest("l2_bw", m.l2_bw);
  e.shortest("dram_bw", m.dram_bw);
  e.shortest("fma_flops", m.fma_flops);
  e.shortest("numa_remote_penalty", m.numa_remote_penalty);
  e.shortest("barrier_ns", m.barrier_ns);
  e.i64("threads", m.threads);
  e.i64("numa_domains", m.numa_domains);
  e.shortest("wall_s", m.wall_s);
  return std::move(e).finish() + "\n";
}

CalibrationMeasurements parse_measurements(std::string_view text) {
  const std::string prefix = "calibration measurements";
  const json::Value root = json::parse_document(text, prefix);
  json::Reader r(root, "", prefix);
  r.require_format(kMeasurementsFormat);
  CalibrationMeasurements m;
  r.read("freq_hz", &m.freq_hz);
  r.read("l1_bw", &m.l1_bw);
  r.read("l2_bw", &m.l2_bw);
  r.read("dram_bw", &m.dram_bw);
  r.read("fma_flops", &m.fma_flops);
  r.read("numa_remote_penalty", &m.numa_remote_penalty);
  r.read("barrier_ns", &m.barrier_ns);
  r.read("threads", &m.threads);
  r.read("numa_domains", &m.numa_domains);
  r.read("wall_s", &m.wall_s);
  r.finish();
  FS_REQUIRE(m.freq_hz > 0.0, "measured freq_hz must be positive");
  FS_REQUIRE(m.l1_bw > 0.0 && m.l2_bw > 0.0 && m.dram_bw > 0.0,
             "measured bandwidths must be positive");
  FS_REQUIRE(m.fma_flops > 0.0, "measured fma_flops must be positive");
  FS_REQUIRE(m.numa_remote_penalty >= 1.0, "numa_remote_penalty must be >= 1");
  FS_REQUIRE(m.threads >= 1, "threads must be >= 1");
  FS_REQUIRE(m.numa_domains >= 1, "numa_domains must be >= 1");
  return m;
}

CalibrationMeasurements measure(const CalibrationOptions& opt) {
  opt.validate();
  const double wall0 = now_s();
  const double budget = opt.quick ? 0.01 : 0.06;
  const std::size_t l1_set = opt.quick ? 8 * 1024 : 16 * 1024;
  const std::size_t l2_set = opt.quick ? 96 * 1024 : 256 * 1024;
  const std::size_t dram_set = opt.quick ? (24u << 20) : (64u << 20);

  const unsigned hw = std::thread::hardware_concurrency();
  const int threads = hw > 0 ? static_cast<int>(hw) : 1;

  CalibrationMeasurements m;
  m.threads = threads;
  m.numa_domains = detect_numa_domains();
  for (int trial = 0; trial < opt.trials; ++trial) {
    m.freq_hz = std::max(m.freq_hz, measure_freq(budget));
    m.l1_bw = std::max(m.l1_bw, measure_stream_bw(l1_set, opt.seed, budget));
    m.l2_bw = std::max(m.l2_bw, measure_stream_bw(l2_set, opt.seed, budget));
    m.dram_bw = std::max(
        m.dram_bw, measure_dram_bw(threads, dram_set / static_cast<unsigned>(threads) + (4u << 20),
                                   opt.seed, budget));
    m.fma_flops = std::max(m.fma_flops, measure_fma(budget));
  }
  // NUMA-remote pointer chase: near (thread 0) vs far (last thread). With a
  // single thread or NUMA domain the penalty is 1 by construction.
  if (threads > 1 && m.numa_domains > 1) {
    const std::size_t slots = (opt.quick ? (8u << 20) : (32u << 20)) /
                              sizeof(std::uint32_t);
    std::vector<std::uint32_t> cycle = make_cycle(slots, opt.seed);
    const double near = chase_ns(&cycle, 0, budget);
    const double far = chase_ns(&cycle, threads - 1, budget);
    m.numa_remote_penalty = std::max(1.0, far / near);
  }
  m.barrier_ns = measure_barrier_ns(threads, opt.quick ? 2000 : 10000);
  m.wall_s = now_s() - wall0;
  return m;
}

ProcessorConfig fit_descriptor(const CalibrationMeasurements& m,
                               const CalibrationOptions& opt) {
  opt.validate();
  FS_REQUIRE(m.freq_hz > 0.0 && m.l1_bw > 0.0 && m.l2_bw > 0.0 &&
                 m.dram_bw > 0.0 && m.fma_flops > 0.0,
             "calibration measurements incomplete");
  ProcessorConfig cfg;
  cfg.name = opt.name;
  // Shape: the measured NUMA domains when they divide the thread count
  // evenly, otherwise one flat domain (a partial shape would misattribute
  // bandwidth).
  const bool split = m.numa_domains > 1 && m.threads % m.numa_domains == 0;
  const int domains = split ? m.numa_domains : 1;
  cfg.shape = topo::NodeShape{.sockets = 1, .numa_per_socket = domains,
                              .cores_per_numa = m.threads / domains};
  cfg.freq_hz = std::max(1e8, quant3(m.freq_hz));
  cfg.vec = host_isa();
  const double lanes = static_cast<double>(cfg.vec.lanes(8));
  const double flops_per_pipe_cycle = lanes * 2.0;
  const double pipes = m.fma_flops / (flops_per_pipe_cycle * cfg.freq_hz);
  cfg.fp_pipes = std::max(1, std::min(8, static_cast<int>(pipes + 0.5)));
  cfg.l1 = CacheLevel{
      .capacity_bytes = l1_capacity_bytes(),
      .bytes_per_cycle = std::max(0.25, quant3(m.l1_bw / cfg.freq_hz)),
      .latency_cycles = 4.0};
  cfg.l2 = CacheLevel{
      .capacity_bytes = l2_capacity_bytes(),
      .bytes_per_cycle = std::max(0.25, quant3(m.l2_bw / cfg.freq_hz)),
      .latency_cycles = 14.0};
  cfg.numa_mem_bw = std::max(1.0 * kGB, quant3(m.dram_bw / domains));
  cfg.numa_mem_latency_ns = 100.0;
  if (domains > 1) {
    // Crude but measured: the remote penalty stretches latency, and the
    // inter-domain pipe is modelled at half a domain's local bandwidth.
    cfg.inter_numa_bw = quant3(cfg.numa_mem_bw / 2.0);
    cfg.inter_numa_latency_ns =
        quant3(cfg.numa_mem_latency_ns * (m.numa_remote_penalty - 1.0));
  }
  const int hops = std::max(1, log2_ceil(m.threads));
  const double hop_ns = std::max(10.0, quant3(m.barrier_ns / hops));
  cfg.barrier_hop_ns_same_numa = hop_ns;
  cfg.barrier_hop_ns_cross_numa = quant3(3.0 * hop_ns);
  cfg.barrier_hop_ns_cross_socket = quant3(6.0 * hop_ns);
  cfg.validate();
  return cfg;
}

CalibrationMeasurements synthetic_measurements(const ProcessorConfig& cfg,
                                               std::uint64_t seed,
                                               double noise) {
  cfg.validate();
  FS_REQUIRE(noise >= 0.0 && noise < 0.5, "synthetic noise in [0, 0.5)");
  Xoshiro256 rng(seed, /*stream=*/0xCA11B8A7E);
  auto jitter = [&rng, noise] {
    return 1.0 + noise * (2.0 * rng.uniform() - 1.0);
  };
  CalibrationMeasurements m;
  m.freq_hz = cfg.freq_hz * jitter();
  m.l1_bw = cfg.l1.bytes_per_cycle * cfg.freq_hz * jitter();
  m.l2_bw = cfg.l2.bytes_per_cycle * cfg.freq_hz * jitter();
  m.dram_bw = cfg.node_mem_bw() * jitter();
  m.fma_flops = cfg.peak_flops_per_core() * jitter();
  m.numa_remote_penalty =
      cfg.shape.numa_per_node() > 1 && cfg.numa_mem_latency_ns > 0.0
          ? ((cfg.numa_mem_latency_ns + cfg.inter_numa_latency_ns) /
             cfg.numa_mem_latency_ns) *
                jitter()
          : 1.0;
  m.barrier_ns = cfg.barrier_hop_ns_cross_numa *
                 std::max(1, log2_ceil(cfg.cores())) * jitter();
  m.threads = cfg.cores();
  m.numa_domains = cfg.shape.numa_per_node();
  m.wall_s = 0.0;
  return m;
}

}  // namespace fibersim::machine
