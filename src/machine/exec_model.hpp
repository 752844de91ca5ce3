// Analytic execution model.
//
// Hybrid roofline/ECM evaluation of a bulk-synchronous phase:
//   * per-thread compute cycles from the instruction mix (vector throughput,
//     scalar throughput, gather issue, branch misses) bounded below by the
//     loop-carried dependency chain;
//   * job-level memory time from DRAM channel contention — every thread's
//     DRAM traffic is charged to the NUMA domain that homes the data, and
//     remote traffic additionally crosses the inter-domain network;
//   * compute and memory overlap according to the processor's out-of-order
//     capability (mem_overlap);
//   * an OpenMP-style barrier whose cost grows with team size and with the
//     topological span of the team.
//
// This is the component that turns the paper's qualitative claims into
// mechanism: thread stride changes home/remote traffic and barrier span,
// SIMD options change the vector fraction, instruction scheduling changes the
// dependency-chain term.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "isa/work_estimate.hpp"
#include "machine/processor.hpp"
#include "topo/topology.hpp"

namespace fibersim::machine {

/// What limited a phase.
enum class Limiter { kCompute, kMemory, kChain, kBarrier };
const char* limiter_name(Limiter limiter);

struct PhaseTime {
  double compute_s = 0.0;   ///< slowest thread's in-core time
  double memory_s = 0.0;    ///< most loaded DRAM/interconnect channel
  double barrier_s = 0.0;   ///< widest team's barrier
  double total_s = 0.0;
  Limiter limiter = Limiter::kCompute;

  // Diagnostics for reports and the power model.
  double flops = 0.0;
  double dram_bytes = 0.0;
  double remote_bytes = 0.0;  ///< DRAM traffic that crossed domains
  double chain_s = 0.0;       ///< dependency-chain bound of the slowest thread
  double gflops() const { return total_s > 0.0 ? flops / total_s * 1e-9 : 0.0; }
  /// Memory-bandwidth pressure: the fraction of the phase's modelled wall
  /// time its most-loaded DRAM/interconnect channel is busy. The autotuner
  /// treats this as a co-equal objective beside time (ECM-style BW-pressure
  /// axis); a config at pressure ~1 has no headroom for co-scheduled work.
  double bw_pressure() const { return total_s > 0.0 ? memory_s / total_s : 0.0; }
};

/// The placement-independent part of one thread's phase evaluation: a pure
/// function of (processor, work), computed by ExecModel::evaluate_work and
/// memoizable across sweep points (machine::EvalCache). Everything a thread
/// contributes to a phase beyond these numbers is placement bookkeeping
/// (which NUMA domain each byte is charged to), which PhaseAccumulator
/// replays in the naive per-thread order — so a phase assembled from cached
/// WorkEvals is bit-identical to one evaluated from scratch.
struct WorkEval {
  double flops = 0.0;
  double dram_bytes = 0.0;   ///< total DRAM traffic of the thread
  double local_bytes = 0.0;  ///< DRAM traffic homed in the thread's domain
  double home_bytes = 0.0;   ///< DRAM traffic homed in the rank's home domain
  double compute_s = 0.0;    ///< in-core time (throughput/chain/cache bound)
  double chain_s = 0.0;      ///< dependency-chain bound alone
};

/// One thread of a phase, referencing its (shared) work evaluation: the
/// input of evaluate_phase_refs, which feeds a PhaseAccumulator one thread
/// per team. The prediction engine streams whole teams into a
/// PhaseAccumulator instead and never builds a ThreadRef; ThreadRef and
/// evaluate_phase_refs stay because the traced fsbench build wraps
/// evaluate_phase_refs by its mangled name and forces it with --undefined,
/// which fails to link once it is undefined. The tests' naive predictor
/// (tests/oracle_predict.hpp) evaluates its phases through them, so it
/// checks the engine's team grouping against the per-thread sequence.
struct ThreadRef {
  const WorkEval* eval = nullptr;
  int numa = 0;
  int home_numa = 0;
  double barrier_s = 0.0;  ///< barrier_seconds(team_size, team_span)
};

class ExecModel {
 public:
  explicit ExecModel(ProcessorConfig cfg);

  const ProcessorConfig& config() const { return cfg_; }

  /// In-core cycles of one thread (throughput + latency bounds), excluding
  /// DRAM time. Exposed for tests and the roofline report.
  double compute_cycles(const isa::WorkEstimate& work) const;

  /// Dependency-chain lower bound in cycles (part of compute_cycles).
  double chain_cycles(const isa::WorkEstimate& work) const;

  /// Barrier cost for a team of `size` threads spanning `span`.
  double barrier_seconds(int size, topo::Distance span) const;

  /// The placement-independent evaluation of one thread's work (validates,
  /// splits traffic across the cache hierarchy, bounds in-core time).
  WorkEval evaluate_work(const isa::WorkEstimate& work) const;

  /// Evaluate a whole bulk-synchronous phase across every thread of the job
  /// from pre-computed work evaluations; `threads` must be in the naive
  /// order (rank-major, thread-minor) for bit-identical accumulation: one
  /// PhaseAccumulator fed every entry in order.
  PhaseTime evaluate_phase_refs(const std::vector<ThreadRef>& threads) const;

  /// Streaming phase evaluation: add_team() every team of the phase in
  /// the naive order (rank-major), then finish(). A team is one rank's
  /// threads in thread order; they share the rank's WorkEval, home domain
  /// and barrier. The sequence of floating-point operations is the
  /// per-thread sequence of evaluate_phase_refs, which feeds one-thread
  /// teams: each sum gets its += in thread order, so a phase streamed by
  /// teams is bit-identical to one evaluated from a ThreadRef list. DRAM and
  /// remote-in bytes are summed into flat per-domain arrays indexed by NUMA
  /// id: an untouched domain stays 0.0, and the closing max over domains
  /// does not depend on order.
  class PhaseAccumulator {
   public:
    /// Domain ids passed to add_team() must lie in [0, domains). Reads
    /// `model`'s processor at finish(), so it must not outlive `model`.
    PhaseAccumulator(const ExecModel& model, int domains);

    /// One team: `numas` holds each thread's domain, in thread order (at
    /// least one). The running sums of the phase and of the home domain
    /// stay in locals for the length of the team and are written back once;
    /// a thread outside the home domain adds its local bytes to its own
    /// domain in memory, which never aliases the home domain's. The maxima
    /// are taken once, since max is idempotent.
    void add_team(const WorkEval& e, std::span<const int> numas,
                  int home_numa, double barrier_s) {
      const double flops = e.flops;
      const double dram_bytes = e.dram_bytes;
      const double local_bytes = e.local_bytes;
      const double home_bytes = e.home_bytes;
      double* const dram_by_domain = dram_by_domain_.data();
      const std::size_t home = static_cast<std::size_t>(home_numa);
      double sum_flops = out_.flops;
      double sum_dram = out_.dram_bytes;
      double sum_remote = out_.remote_bytes;
      double home_dram = dram_by_domain[home];
      double home_remote_in = remote_in_by_domain_[home];
      for (const int numa : numas) {
        sum_flops += flops;
        if (numa == home_numa) {
          home_dram += local_bytes;
          home_dram += home_bytes;
        } else {
          dram_by_domain[static_cast<std::size_t>(numa)] += local_bytes;
          home_dram += home_bytes;
          home_remote_in += home_bytes;
          sum_remote += home_bytes;
        }
        sum_dram += dram_bytes;
      }
      out_.flops = sum_flops;
      out_.dram_bytes = sum_dram;
      out_.remote_bytes = sum_remote;
      dram_by_domain[home] = home_dram;
      remote_in_by_domain_[home] = home_remote_in;
      worst_compute_s_ = std::max(worst_compute_s_, e.compute_s);
      worst_chain_s_ = std::max(worst_chain_s_, e.chain_s);
      worst_barrier_s_ = std::max(worst_barrier_s_, barrier_s);
    }

    /// The phase's time; resets the accumulator for the next phase.
    PhaseTime finish();

   private:
    const ProcessorConfig* cfg_;
    std::vector<double> dram_by_domain_;
    std::vector<double> remote_in_by_domain_;
    PhaseTime out_;
    double worst_compute_s_ = 0.0;
    double worst_chain_s_ = 0.0;
    double worst_barrier_s_ = 0.0;
  };

 private:
  ProcessorConfig cfg_;
};

}  // namespace fibersim::machine
