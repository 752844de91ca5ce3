#include "machine/exec_model.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "machine/memory_model.hpp"

namespace fibersim::machine {

const char* limiter_name(Limiter limiter) {
  switch (limiter) {
    case Limiter::kCompute: return "compute";
    case Limiter::kMemory: return "memory";
    case Limiter::kChain: return "chain";
    case Limiter::kBarrier: return "barrier";
  }
  return "?";
}

ExecModel::ExecModel(ProcessorConfig cfg) : cfg_(std::move(cfg)) {
  cfg_.validate();
}

namespace {

/// Fraction of vector lanes doing useful work for a mean trip count. ISAs
/// with predication keep the remainder vectorised; others run the tail as a
/// scalar epilogue (one lane per op slot).
double lane_utilization(const isa::VectorIsa& vec, double trip_count) {
  if (trip_count <= 0.0) return 1.0;
  const double lanes = vec.lanes(8);
  const double full_vectors = std::floor(trip_count / lanes);
  const double remainder = trip_count - full_vectors * lanes;
  // Op slots spent: full vectors, plus either one predicated vector or
  // `remainder` scalar iterations for the tail.
  double slots = full_vectors;
  if (remainder > 0.0) {
    slots += vec.has_predication ? 1.0 : remainder;
  }
  const double issued_lanes = slots * lanes;
  return issued_lanes > 0.0 ? trip_count / issued_lanes : 1.0;
}

}  // namespace

double ExecModel::chain_cycles(const isa::WorkEstimate& work) const {
  if (work.dep_chain_ops <= 0.0 || work.iterations <= 0.0) return 0.0;
  const double lanes = cfg_.vec.lanes(8);
  const double vf = work.vectorizable_fraction;
  // Vectorised iterations advance `lanes` elements per chain step.
  const double chain_iters =
      work.iterations * ((1.0 - vf) + vf / std::max(1.0, lanes));
  return chain_iters * work.dep_chain_ops * cfg_.fp_latency_cycles;
}

double ExecModel::compute_cycles(const isa::WorkEstimate& work) const {
  work.validate();
  const double lanes = cfg_.vec.lanes(8);
  const double vf = work.vectorizable_fraction;

  // FMA pairing: an FMA retires 2 flops per op slot, a plain op 1.
  const double fma_eff = work.fma_fraction + (1.0 - work.fma_fraction) * 0.5;

  // Vector throughput bound.
  const double util = lane_utilization(cfg_.vec, work.inner_trip_count);
  const double vec_flops_per_cycle =
      lanes * cfg_.fp_pipes * 2.0 * fma_eff * std::max(util, 1e-6);
  const double cycles_vec = work.flops * vf / vec_flops_per_cycle;

  // Scalar fp + integer throughput bound (shared issue slots). Vectorisation
  // applies to integer loop bodies too (SVE/AVX-512 integer lanes), which is
  // what rescues the integer-dominated NGSA kernel once vectorised.
  const double cycles_scalar = work.flops * (1.0 - vf) / cfg_.scalar_ipc;
  const double int_lane_rate = lanes * cfg_.fp_pipes * std::max(util, 1e-6);
  const double cycles_int = work.int_ops * (1.0 - vf) / cfg_.scalar_ipc +
                            work.int_ops * vf / int_lane_rate;

  // Branches.
  const double cycles_branch =
      work.branches * work.branch_miss_rate * cfg_.branch_miss_penalty_cycles;

  // Gathers are issue-serialised on most SIMD units.
  double cycles_gather = 0.0;
  const double gathered_elems = work.load_bytes * work.gather_fraction / 8.0;
  if (gathered_elems > 0.0) {
    const double rate = cfg_.vec.gather_lanes_per_cycle > 0.0
                            ? cfg_.vec.gather_lanes_per_cycle
                            : 1.0;  // scalar loads
    cycles_gather = gathered_elems / rate;
  }

  const double throughput =
      cycles_vec + cycles_scalar + cycles_int + cycles_branch + cycles_gather;
  return std::max(throughput, chain_cycles(work));
}

double ExecModel::barrier_seconds(int size, topo::Distance span) const {
  FS_REQUIRE(size >= 1, "team size must be >= 1");
  if (size == 1) return 0.0;
  double hop_ns = cfg_.barrier_hop_ns_same_numa;
  if (span >= topo::Distance::kSameNode) {
    hop_ns = cfg_.barrier_hop_ns_cross_socket;
  } else if (span >= topo::Distance::kSameSocket) {
    hop_ns = cfg_.barrier_hop_ns_cross_numa;
  }
  const double rounds = std::ceil(std::log2(static_cast<double>(size)));
  return rounds * hop_ns * 1e-9;
}

WorkEval ExecModel::evaluate_work(const isa::WorkEstimate& w) const {
  w.validate();
  WorkEval out;
  out.flops = w.flops;

  const TrafficSplit split = classify_locality(w.working_set_bytes, cfg_);
  const double traffic = w.load_bytes + w.store_bytes;
  double l1_bytes = traffic * split.l1_fraction;
  double l2_bytes = traffic * split.l2_fraction;
  double dram = traffic * split.mem_fraction;
  if (w.dram_traffic_bytes >= 0.0) {
    // The kernel knows its streaming volume; honour it and re-split the
    // cache-served remainder in the classifier's L1:L2 proportion.
    dram = std::min(w.dram_traffic_bytes, traffic);
    const double cached = traffic - dram;
    const double denom = split.l1_fraction + split.l2_fraction;
    const double l1_share = denom > 0.0 ? split.l1_fraction / denom : 1.0;
    l1_bytes = cached * l1_share;
    l2_bytes = cached * (1.0 - l1_share);
  }

  // Shared-array traffic goes to the rank's home domain; private traffic is
  // local to the thread's own domain (parallel first touch).
  out.home_bytes = dram * w.shared_access_fraction;
  out.local_bytes = dram - out.home_bytes;
  out.dram_bytes = dram;

  // In-core time: cache transfers run on the load/store ports and overlap
  // with FP issue, so the thread is paced by the slower of the two (cache
  // bandwidth is per-core, so it belongs to the thread, not to a shared
  // channel).
  const double cache_s =
      cache_transfer_seconds(l1_bytes, cfg_.l1, cfg_.freq_hz) +
      cache_transfer_seconds(l2_bytes, cfg_.l2, cfg_.freq_hz);
  out.compute_s = std::max(compute_cycles(w) / cfg_.freq_hz, cache_s);
  out.chain_s = chain_cycles(w) / cfg_.freq_hz;
  return out;
}

PhaseTime ExecModel::evaluate_phase_refs(
    const std::vector<ThreadRef>& threads) const {
  FS_REQUIRE(!threads.empty(), "phase needs at least one thread");
  int domains = 0;
  for (const ThreadRef& t : threads) {
    FS_REQUIRE(t.numa >= 0 && t.home_numa >= 0,
               "NUMA domain ids must be non-negative");
    domains = std::max({domains, t.numa + 1, t.home_numa + 1});
  }
  PhaseAccumulator acc(*this, domains);
  for (const ThreadRef& t : threads) {
    acc.add_team(*t.eval, {&t.numa, 1}, t.home_numa, t.barrier_s);
  }
  return acc.finish();
}

ExecModel::PhaseAccumulator::PhaseAccumulator(const ExecModel& model,
                                              int domains)
    : cfg_(&model.cfg_),
      dram_by_domain_(static_cast<std::size_t>(domains), 0.0),
      remote_in_by_domain_(static_cast<std::size_t>(domains), 0.0) {}

PhaseTime ExecModel::PhaseAccumulator::finish() {
  PhaseTime out = out_;

  // Memory time: the most loaded channel paces the phase. Every sum is at
  // least +0.0 and both bandwidths are positive, so division is monotone
  // under round-to-nearest: the largest byte count of a channel class,
  // divided once, is the largest quotient bit for bit.
  const auto most_loaded = [](const std::vector<double>& by_domain) {
    double bytes = 0.0;
    for (const double b : by_domain) bytes = std::max(bytes, b);
    return bytes;
  };
  double memory_s = most_loaded(dram_by_domain_) / cfg_->numa_mem_bw;
  if (cfg_->inter_numa_bw > 0.0) {
    memory_s = std::max(
        memory_s, most_loaded(remote_in_by_domain_) / cfg_->inter_numa_bw);
  }

  out.compute_s = worst_compute_s_;
  out.memory_s = memory_s;
  out.chain_s = worst_chain_s_;
  out.barrier_s = worst_barrier_s_;

  const double hi = std::max(worst_compute_s_, memory_s);
  const double lo = std::min(worst_compute_s_, memory_s);
  out.total_s = hi + (1.0 - cfg_->mem_overlap) * lo + worst_barrier_s_;

  if (worst_barrier_s_ > 0.5 * out.total_s) {
    out.limiter = Limiter::kBarrier;
  } else if (memory_s > worst_compute_s_) {
    out.limiter = Limiter::kMemory;
  } else if (worst_chain_s_ >= 0.95 * worst_compute_s_ &&
             worst_chain_s_ > 0.0) {
    out.limiter = Limiter::kChain;
  } else {
    out.limiter = Limiter::kCompute;
  }

  std::fill(dram_by_domain_.begin(), dram_by_domain_.end(), 0.0);
  std::fill(remote_in_by_domain_.begin(), remote_in_by_domain_.end(), 0.0);
  out_ = PhaseTime{};
  worst_compute_s_ = worst_chain_s_ = worst_barrier_s_ = 0.0;
  return out;
}

}  // namespace fibersim::machine
