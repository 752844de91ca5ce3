#include "machine/processor.hpp"

#include "common/error.hpp"
#include "common/string_util.hpp"
#include "common/units.hpp"

namespace fibersim::machine {

using namespace fibersim::units;

double ProcessorConfig::vec_flops_per_cycle() const {
  const int lanes = vec.lanes(/*element_bytes=*/8);
  const double ops_per_lane = vec.has_fma ? 2.0 : 1.0;
  return static_cast<double>(lanes) * ops_per_lane * fp_pipes;
}

std::string Bound::describe() const {
  const bool has_lo = lo > -std::numeric_limits<double>::infinity();
  const bool has_hi = hi < std::numeric_limits<double>::infinity();
  if (has_lo && has_hi) {
    return strfmt("in %c%g, %g%c", lo_open ? '(' : '[', lo, hi,
                  hi_open ? ')' : ']');
  }
  if (has_hi) return strfmt("%s %g", hi_open ? "<" : "<=", hi);
  return strfmt("%s %g", lo_open ? ">" : ">=", lo);
}

std::string bound_error(std::string_view path, const Bound& bound, double) {
  return std::string(path) + " must be " + bound.describe();
}

std::string bound_error(std::string_view path, const Bound& bound,
                        const std::string&) {
  return std::string(path) + " length must be " + bound.describe();
}

void ProcessorConfig::validate() const {
  for_each_field(*this, [](const char* path, const auto& value,
                           const Bound& bound, bool /*optional*/) {
    if (!bound.admits(value)) throw Error(bound_error(path, bound, value));
  });
  if (const std::optional<RuleViolation> broken = first_broken_rule()) {
    throw Error(broken->message);
  }
}

std::optional<ProcessorConfig::RuleViolation>
ProcessorConfig::first_broken_rule() const {
  if (vec.vector_bits % 64 != 0) {
    return RuleViolation{"vec.vector_bits",
                         "vec.vector_bits must be a multiple of 64"};
  }
  if (shape.numa_per_node() > 1 && !(inter_numa_bw > 0.0)) {
    return RuleViolation{"inter_numa_bw",
                         "multi-numa shape needs inter_numa_bw > 0"};
  }
  if (shape.sockets > 1 && !(inter_socket_bw > 0.0)) {
    return RuleViolation{"inter_socket_bw",
                         "multi-socket shape needs inter_socket_bw > 0"};
  }
  if (eco_fp_pipes > fp_pipes) {
    return RuleViolation{"eco.fp_pipes", "eco.fp_pipes must be <= fp_pipes"};
  }
  return std::nullopt;
}

const char* power_mode_name(PowerMode mode) {
  switch (mode) {
    case PowerMode::kNormal: return "normal";
    case PowerMode::kBoost: return "boost";
    case PowerMode::kEco: return "eco";
  }
  return "?";
}

ProcessorConfig with_power_mode(const ProcessorConfig& base, PowerMode mode) {
  if (mode == PowerMode::kNormal) return base;
  ProcessorConfig cfg = base;
  if (mode == PowerMode::kBoost) {
    if (base.boost_freq_hz <= 0.0) return base;  // no boost mode declared
    cfg.name = base.name + "-boost";
    cfg.freq_hz = base.boost_freq_hz;
  } else {
    // Eco mode: FP pipelines are disabled and the supply voltage is reduced;
    // memory bandwidth is unchanged.
    if (base.eco_fp_pipes <= 0) return base;  // no eco mode declared
    cfg.name = base.name + "-eco";
    cfg.fp_pipes = base.eco_fp_pipes;
    cfg.watts_per_core_active =
        base.watts_per_core_active * base.eco_core_power_scale;
  }
  return cfg;
}

ProcessorConfig a64fx() {
  ProcessorConfig cfg;
  cfg.name = "A64FX";
  cfg.shape = topo::NodeShape{.sockets = 1, .numa_per_socket = 4,
                              .cores_per_numa = 12};
  cfg.freq_hz = 2.0 * kGHz;
  cfg.boost_freq_hz = 2.2 * kGHz;
  // Eco mode: one of the two FLA pipelines is disabled at reduced voltage.
  cfg.eco_fp_pipes = 1;
  cfg.eco_core_power_scale = 0.70;
  cfg.vec = isa::sve512();
  cfg.fp_pipes = 2;
  cfg.fp_latency_cycles = 9.0;  // FLA FMA latency
  cfg.scalar_ipc = 1.2;         // shallow OoO: weak on scalar/branchy code
  cfg.mem_overlap = 0.6;        // limited out-of-order resources
  cfg.branch_miss_penalty_cycles = 14.0;
  cfg.l1 = CacheLevel{.capacity_bytes = 64 * kKiB, .bytes_per_cycle = 128.0,
                      .latency_cycles = 5.0};
  // 8 MiB L2 per CMG shared by 12 cores; per-core sustained ~64 B/cycle.
  cfg.l2 = CacheLevel{.capacity_bytes = 8 * kMiB / 12.0, .bytes_per_cycle = 64.0,
                      .latency_cycles = 37.0};
  cfg.numa_mem_bw = 256.0 * kGB;  // HBM2, per CMG
  cfg.numa_mem_latency_ns = 130.0;
  cfg.inter_numa_bw = 115.0 * kGB;  // on-chip ring between CMGs
  cfg.inter_numa_latency_ns = 60.0;
  cfg.inter_socket_bw = 0.0;  // single socket
  // Tofu-D: 6.8 GB/s per link, 4 simultaneously usable lanes at injection.
  cfg.net.injection_bw = 6.8e9 * 4;
  cfg.net.link_bw = 6.8e9;
  cfg.net.base_latency_us = 0.9;
  cfg.net.hop_latency_ns = 100.0;
  cfg.barrier_hop_ns_same_numa = 45.0;   // hardware barrier assist
  cfg.barrier_hop_ns_cross_numa = 170.0;
  cfg.watts_base = 40.0;
  cfg.watts_per_core_active = 2.6;
  cfg.watts_per_GBps_dram = 0.12;  // HBM2 is cheap per byte
  return cfg;
}

ProcessorConfig skylake8168_dual() {
  ProcessorConfig cfg;
  cfg.name = "Skylake-8168x2";
  cfg.shape = topo::NodeShape{.sockets = 2, .numa_per_socket = 1,
                              .cores_per_numa = 24};
  cfg.freq_hz = 2.3 * kGHz;  // sustained AVX-512 all-core clock
  cfg.vec = isa::avx512();
  cfg.fp_pipes = 2;
  cfg.fp_latency_cycles = 4.0;
  cfg.scalar_ipc = 2.6;  // deep OoO, strong scalar engine
  cfg.mem_overlap = 0.85;
  cfg.branch_miss_penalty_cycles = 16.0;
  cfg.l1 = CacheLevel{.capacity_bytes = 32 * kKiB, .bytes_per_cycle = 128.0,
                      .latency_cycles = 4.0};
  cfg.l2 = CacheLevel{.capacity_bytes = 1 * kMiB, .bytes_per_cycle = 64.0,
                      .latency_cycles = 14.0};
  cfg.numa_mem_bw = 128.0 * kGB;  // 6ch DDR4-2666 per socket
  cfg.numa_mem_latency_ns = 90.0;
  cfg.inter_numa_bw = 41.6 * kGB;  // 2x UPI links
  cfg.inter_numa_latency_ns = 130.0;
  cfg.inter_socket_bw = 41.6 * kGB;
  cfg.inter_socket_latency_ns = 130.0;
  cfg.net.injection_bw = 12.5e9;  // EDR InfiniBand
  cfg.net.link_bw = 12.5e9;
  cfg.net.base_latency_us = 1.2;
  cfg.net.hop_latency_ns = 100.0;
  cfg.barrier_hop_ns_same_numa = 60.0;
  cfg.barrier_hop_ns_cross_numa = 250.0;
  cfg.barrier_hop_ns_cross_socket = 250.0;
  cfg.watts_base = 60.0;
  cfg.watts_per_core_active = 4.3;
  cfg.watts_per_GBps_dram = 0.35;
  return cfg;
}

ProcessorConfig thunderx2_dual() {
  ProcessorConfig cfg;
  cfg.name = "ThunderX2x2";
  cfg.shape = topo::NodeShape{.sockets = 2, .numa_per_socket = 1,
                              .cores_per_numa = 32};
  cfg.freq_hz = 2.5 * kGHz;
  cfg.vec = isa::neon128();
  cfg.fp_pipes = 2;
  cfg.fp_latency_cycles = 6.0;
  cfg.scalar_ipc = 2.2;
  cfg.mem_overlap = 0.8;
  cfg.branch_miss_penalty_cycles = 14.0;
  cfg.l1 = CacheLevel{.capacity_bytes = 32 * kKiB, .bytes_per_cycle = 64.0,
                      .latency_cycles = 4.0};
  cfg.l2 = CacheLevel{.capacity_bytes = 256 * kKiB, .bytes_per_cycle = 32.0,
                      .latency_cycles = 12.0};
  cfg.numa_mem_bw = 160.0 * kGB;  // 8ch DDR4-2666 per socket
  cfg.numa_mem_latency_ns = 95.0;
  cfg.inter_numa_bw = 38.0 * kGB;  // CCPI2
  cfg.inter_numa_latency_ns = 150.0;
  cfg.inter_socket_bw = 38.0 * kGB;
  cfg.inter_socket_latency_ns = 150.0;
  cfg.net.injection_bw = 12.5e9;
  cfg.net.link_bw = 12.5e9;
  cfg.net.base_latency_us = 1.2;
  cfg.net.hop_latency_ns = 100.0;
  cfg.barrier_hop_ns_same_numa = 70.0;
  cfg.barrier_hop_ns_cross_numa = 280.0;
  cfg.barrier_hop_ns_cross_socket = 280.0;
  cfg.watts_base = 55.0;
  cfg.watts_per_core_active = 2.8;
  cfg.watts_per_GBps_dram = 0.35;
  return cfg;
}

ProcessorConfig broadwell_dual() {
  ProcessorConfig cfg;
  cfg.name = "Broadwell-2695v4x2";
  cfg.shape = topo::NodeShape{.sockets = 2, .numa_per_socket = 1,
                              .cores_per_numa = 18};
  cfg.freq_hz = 2.1 * kGHz;
  cfg.vec = isa::avx2_256();
  cfg.fp_pipes = 2;
  cfg.fp_latency_cycles = 5.0;
  cfg.scalar_ipc = 2.4;
  cfg.mem_overlap = 0.85;
  cfg.branch_miss_penalty_cycles = 15.0;
  cfg.l1 = CacheLevel{.capacity_bytes = 32 * kKiB, .bytes_per_cycle = 96.0,
                      .latency_cycles = 4.0};
  cfg.l2 = CacheLevel{.capacity_bytes = 256 * kKiB, .bytes_per_cycle = 32.0,
                      .latency_cycles = 12.0};
  cfg.numa_mem_bw = 76.8 * kGB;  // 4ch DDR4-2400 per socket
  cfg.numa_mem_latency_ns = 90.0;
  cfg.inter_numa_bw = 38.4 * kGB;  // 2x QPI
  cfg.inter_numa_latency_ns = 135.0;
  cfg.inter_socket_bw = 38.4 * kGB;
  cfg.inter_socket_latency_ns = 135.0;
  cfg.net.injection_bw = 12.5e9;
  cfg.net.link_bw = 12.5e9;
  cfg.net.base_latency_us = 1.3;
  cfg.net.hop_latency_ns = 100.0;
  cfg.barrier_hop_ns_same_numa = 65.0;
  cfg.barrier_hop_ns_cross_numa = 260.0;
  cfg.barrier_hop_ns_cross_socket = 260.0;
  cfg.watts_base = 50.0;
  cfg.watts_per_core_active = 3.3;
  cfg.watts_per_GBps_dram = 0.4;
  return cfg;
}

// comparison_set() / extended_comparison_set() live in registry.cpp: they are
// served by the ProcessorRegistry so descriptor-loaded replacements reach
// every report uniformly.

}  // namespace fibersim::machine
