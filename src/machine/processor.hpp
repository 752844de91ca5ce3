// ProcessorConfig — every machine parameter the analytic models consume.
//
// Built-in configurations follow the published characteristics of the
// processors the paper compares:
//   * Fujitsu A64FX (FX700/Fugaku node): 48 cores in 4 CMGs, 512-bit SVE,
//     2 FMA pipes, 2.0 GHz (2.2 boost), HBM2 256 GB/s per CMG, shallow
//     out-of-order resources, high FP latency (9 cycles).
//   * Intel Xeon Skylake-SP 8168 x2: 2x24 cores, AVX-512, 2 FMA pipes,
//     2.7 GHz nominal (AVX-512 sustained lower), 6-channel DDR4 per socket
//     (~128 GB/s), deep OoO (224-entry ROB).
//   * Marvell ThunderX2 CN9980 x2: 2x32 cores, NEON-128, 2 pipes, 2.5 GHz,
//     8-channel DDR4 per socket (~160 GB/s).
#pragma once

#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "isa/vector_isa.hpp"
#include "topo/topology.hpp"

namespace fibersim::machine {

/// One cache level as seen by a single core.
struct CacheLevel {
  double capacity_bytes = 0.0;  ///< capacity available to one core (L2: slice/share)
  double bytes_per_cycle = 0.0; ///< sustained per-core bandwidth
  double latency_cycles = 0.0;

  friend bool operator==(const CacheLevel&, const CacheLevel&) = default;
};

/// Hierarchical fabric parameters (Tofu-D / InfiniBand class). Nodes are
/// laid out on a 3-D torus (machine::TorusMap); a message pays the base
/// latency plus a per-hop latency along its dimension-ordered route, its
/// bytes cross the node injection port, and shared torus links add
/// contention (see machine::NetworkModel).
struct NetworkConfig {
  /// Node injection bandwidth, bytes/s (all lanes of the NIC/TNI combined).
  double injection_bw = 6.8e9;
  /// Bandwidth of one directed torus link, bytes/s.
  double link_bw = 6.8e9;
  /// End-to-end software + first-hop latency of a remote message.
  double base_latency_us = 1.0;
  /// Added latency per additional torus hop.
  double hop_latency_ns = 100.0;

  friend bool operator==(const NetworkConfig&, const NetworkConfig&) = default;
};

struct ProcessorConfig {
  std::string name;
  topo::NodeShape shape;

  // Clock and FP resources.
  double freq_hz = 0.0;
  isa::VectorIsa vec;
  int fp_pipes = 2;              ///< SIMD/FP pipelines per core
  double fp_latency_cycles = 4;  ///< FMA result latency
  /// Sustained scalar instructions per cycle for non-vectorised code; this is
  /// where the A64FX's narrow OoO front end penalises "as-is" scalar kernels.
  double scalar_ipc = 2.0;
  /// Fraction of min(compute, memory) hidden by out-of-order overlap
  /// (1 = perfect overlap / pure roofline, 0 = strictly additive ECM).
  double mem_overlap = 0.8;
  double branch_miss_penalty_cycles = 12.0;

  CacheLevel l1;
  CacheLevel l2;

  // Memory system (per NUMA domain = CMG or socket).
  double numa_mem_bw = 0.0;        ///< bytes/s local stream bandwidth
  double numa_mem_latency_ns = 100.0;
  /// Bandwidth of the on-chip network between NUMA domains, per domain pair.
  double inter_numa_bw = 0.0;
  double inter_numa_latency_ns = 0.0;
  /// Socket interconnect (only meaningful for multi-socket shapes).
  double inter_socket_bw = 0.0;
  double inter_socket_latency_ns = 0.0;
  /// Hierarchical fabric model (replaces the old scalar network_bw /
  /// network_latency_us pair).
  NetworkConfig net;
  /// Base latency of an intra-node MPI message (matching + two copies);
  /// distance-specific hop latencies are added on top of this.
  double intra_node_msg_latency_ns = 300.0;

  // Synchronisation.
  double barrier_hop_ns_same_numa = 60.0;
  double barrier_hop_ns_cross_numa = 180.0;
  double barrier_hop_ns_cross_socket = 350.0;

  // Power model (see power_model.hpp).
  double watts_base = 30.0;           ///< uncore + memory idle
  double watts_per_core_active = 2.0; ///< at nominal frequency
  double watts_per_GBps_dram = 0.25;
  double freq_power_exponent = 2.2;   ///< P_core ∝ (f/f_nom)^e

  // Operating modes (see with_power_mode). Both are descriptor fields with
  // safe defaults: a processor that does not declare them simply has no
  // boost/eco mode and with_power_mode returns it unchanged.
  double boost_freq_hz = 0.0;         ///< boost-mode clock; 0 = no boost mode
  int eco_fp_pipes = 0;               ///< FP pipes left in eco; 0 = no eco mode
  double eco_core_power_scale = 0.70; ///< eco watts_per_core_active multiplier

  // ----- derived quantities -----
  int cores() const { return shape.cores_per_node(); }
  /// Peak double-precision flops/cycle of one core (vector FMA).
  double vec_flops_per_cycle() const;
  double peak_flops_per_core() const { return vec_flops_per_cycle() * freq_hz; }
  double peak_flops_node() const { return peak_flops_per_core() * cores(); }
  double node_mem_bw() const { return numa_mem_bw * shape.numa_per_node(); }
  /// Machine balance in flop/byte — where the roofline knee sits.
  double balance() const { return peak_flops_node() / node_mem_bw(); }

  /// Throws fibersim::Error naming the first field outside its bound (by
  /// descriptor path, e.g. "barrier.hop_ns_same_numa must be > 0") or the
  /// first broken cross-field rule. Allocates nothing unless it throws: it
  /// runs on every prediction.
  void validate() const;

  /// A broken rule that is not a plain per-field bound: the descriptor path
  /// it is charged to and the full message.
  struct RuleViolation {
    const char* path;
    const char* message;
  };
  /// The first broken cross-field rule, if any (bounds are not checked).
  std::optional<RuleViolation> first_broken_rule() const;

  /// Exact value equality over every field — the identity the prediction
  /// memo layer registers processors under (machine::EvalCache), so two
  /// configs share cached evaluations iff the model would see identical
  /// parameters.
  friend bool operator==(const ProcessorConfig&,
                         const ProcessorConfig&) = default;
};

/// Range a numeric field's value must lie in; a string field's bound applies
/// to its length. Default-constructed, it admits every value.
struct Bound {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool lo_open = false;
  bool hi_open = false;

  bool admits(double v) const {
    return (lo_open ? v > lo : v >= lo) && (hi_open ? v < hi : v <= hi);
  }
  bool admits(const std::string& s) const {
    return admits(static_cast<double>(s.size()));
  }
  /// "> 0", ">= 1", "in (0, 1]", ...
  std::string describe() const;
};

/// The error for a value of field `path` outside `bound`: "<path> must be
/// <range>", or "<path> length must be <range>" for a string.
std::string bound_error(std::string_view path, const Bound& bound, double);
std::string bound_error(std::string_view path, const Bound& bound,
                        const std::string&);

/// The one list of ProcessorConfig's leaf fields, in descriptor order: calls
/// `visit(path, member, bound, optional)` once per field, where `path` is
/// the descriptor path ("shape.sockets", "barrier.hop_ns_same_numa"), and an
/// optional field may be left out of a descriptor — a grouped one by leaving
/// out its whole group — keeping its default. validate(), the descriptor
/// emitter and parser, and the sweep journal's fingerprint all walk this
/// list, so a new machine parameter is one line here. `Config` is
/// ProcessorConfig or const ProcessorConfig.
template <class Config, class Visit>
void for_each_field(Config& c, Visit&& visit) {
  constexpr Bound kAny{};
  constexpr Bound kPositive{.lo = 0.0, .lo_open = true};
  constexpr Bound kNonNegative{.lo = 0.0};
  constexpr Bound kAtLeastOne{.lo = 1.0};
  const auto req = [&visit](const char* path, auto& member, const Bound& b) {
    visit(path, member, b, false);
  };
  const auto opt = [&visit](const char* path, auto& member, const Bound& b) {
    visit(path, member, b, true);
  };
  req("name", c.name, kAtLeastOne);
  req("shape.sockets", c.shape.sockets, kAtLeastOne);
  req("shape.numa_per_socket", c.shape.numa_per_socket, kAtLeastOne);
  req("shape.cores_per_numa", c.shape.cores_per_numa, kAtLeastOne);
  req("freq_hz", c.freq_hz, kPositive);
  opt("boost_freq_hz", c.boost_freq_hz, kNonNegative);
  req("vec.name", c.vec.name, kAny);
  req("vec.vector_bits", c.vec.vector_bits, Bound{.lo = 64.0});
  req("vec.has_fma", c.vec.has_fma, kAny);
  req("vec.gather_lanes_per_cycle", c.vec.gather_lanes_per_cycle,
      kNonNegative);
  req("vec.has_predication", c.vec.has_predication, kAny);
  req("fp_pipes", c.fp_pipes, kAtLeastOne);
  req("fp_latency_cycles", c.fp_latency_cycles, kAtLeastOne);
  req("scalar_ipc", c.scalar_ipc, kPositive);
  req("mem_overlap", c.mem_overlap, Bound{.lo = 0.0, .hi = 1.0});
  req("branch_miss_penalty_cycles", c.branch_miss_penalty_cycles,
      kNonNegative);
  req("l1.capacity_bytes", c.l1.capacity_bytes, kPositive);
  req("l1.bytes_per_cycle", c.l1.bytes_per_cycle, kPositive);
  req("l1.latency_cycles", c.l1.latency_cycles, kNonNegative);
  req("l2.capacity_bytes", c.l2.capacity_bytes, kPositive);
  req("l2.bytes_per_cycle", c.l2.bytes_per_cycle, kPositive);
  req("l2.latency_cycles", c.l2.latency_cycles, kNonNegative);
  req("numa_mem_bw", c.numa_mem_bw, kPositive);
  req("numa_mem_latency_ns", c.numa_mem_latency_ns, kNonNegative);
  req("inter_numa_bw", c.inter_numa_bw, kNonNegative);
  req("inter_numa_latency_ns", c.inter_numa_latency_ns, kNonNegative);
  req("inter_socket_bw", c.inter_socket_bw, kNonNegative);
  req("inter_socket_latency_ns", c.inter_socket_latency_ns, kNonNegative);
  req("net.injection_bw", c.net.injection_bw, kPositive);
  req("net.link_bw", c.net.link_bw, kPositive);
  req("net.base_latency_us", c.net.base_latency_us, kNonNegative);
  req("net.hop_latency_ns", c.net.hop_latency_ns, kNonNegative);
  req("intra_node_msg_latency_ns", c.intra_node_msg_latency_ns, kNonNegative);
  req("barrier.hop_ns_same_numa", c.barrier_hop_ns_same_numa, kPositive);
  req("barrier.hop_ns_cross_numa", c.barrier_hop_ns_cross_numa, kPositive);
  req("barrier.hop_ns_cross_socket", c.barrier_hop_ns_cross_socket, kPositive);
  req("power.watts_base", c.watts_base, kNonNegative);
  req("power.watts_per_core_active", c.watts_per_core_active, kNonNegative);
  req("power.watts_per_GBps_dram", c.watts_per_GBps_dram, kNonNegative);
  req("power.freq_power_exponent", c.freq_power_exponent, kAtLeastOne);
  opt("eco.fp_pipes", c.eco_fp_pipes, kNonNegative);
  opt("eco.core_power_scale", c.eco_core_power_scale,
      Bound{.lo = 0.0, .hi = 1.0, .lo_open = true});
}

/// Power/clock operating modes exposed by the A64FX (and modelled uniformly
/// for any processor whose descriptor declares the matching fields).
enum class PowerMode { kNormal, kBoost, kEco };
const char* power_mode_name(PowerMode mode);

/// Returns a copy of `base` adjusted for the requested mode: boost raises
/// the clock to `boost_freq_hz` (2.0 -> 2.2 GHz on the A64FX), eco drops to
/// `eco_fp_pipes` FP pipelines and scales core power by
/// `eco_core_power_scale`. A processor whose descriptor does not declare the
/// mode (boost_freq_hz == 0 / eco_fp_pipes == 0) returns `base` unchanged —
/// the modes work uniformly on descriptor-loaded machines, not only the
/// built-in A64FX.
ProcessorConfig with_power_mode(const ProcessorConfig& base, PowerMode mode);

// Built-in configurations. These are the analytic models from the paper; the
// process-wide ProcessorRegistry (machine/registry.hpp) re-registers each of
// them through the descriptor serialise/parse path at startup, so built-ins
// and descriptor files flow through exactly the same loader.
ProcessorConfig a64fx();
ProcessorConfig skylake8168_dual();
ProcessorConfig thunderx2_dual();
/// Previous-generation x86 reference point (Xeon E5-2695v4 x2, AVX2).
ProcessorConfig broadwell_dual();

/// All processors the comparison experiments iterate over (A64FX first).
/// Served by the ProcessorRegistry, so a descriptor loaded over a built-in
/// name (e.g. --processor-dir descriptors/) replaces the entry uniformly for
/// every report.
std::vector<ProcessorConfig> comparison_set();

/// comparison_set() plus the previous-generation Broadwell reference.
std::vector<ProcessorConfig> extended_comparison_set();

}  // namespace fibersim::machine
