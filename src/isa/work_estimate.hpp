// WorkEstimate — the per-thread, per-phase instruction/traffic record.
//
// Miniapp kernels count their real work (flops, bytes, iterations) while
// executing, and annotate it with algorithmic properties (vectorisable
// fraction, dependency-chain length, sharing). The code-generation model
// transforms a WorkEstimate according to compile options, and the machine
// execution model turns the transformed estimate into cycles. This struct is
// therefore the contract between the three layers.
#pragma once

#include <cstdint>
#include <string>

namespace fibersim::isa {

struct WorkEstimate {
  // ----- counted while the kernel runs -----
  double flops = 0.0;        ///< floating point operations (FMA counts as 2)
  double load_bytes = 0.0;   ///< bytes read by the kernel (algorithmic traffic)
  double store_bytes = 0.0;  ///< bytes written
  double int_ops = 0.0;      ///< integer/logic ops beyond loop control
  double branches = 0.0;     ///< retired conditional branches
  double iterations = 0.0;   ///< innermost loop trips (dep-chain scaling)

  // ----- algorithmic annotations (set once per kernel) -----
  /// Fraction of fp work inside loops that a perfect compiler could
  /// vectorise. The codegen model scales this by the compiler's ability.
  double vectorizable_fraction = 0.0;
  /// Fraction of fp ops that pair into fused multiply-adds.
  double fma_fraction = 0.0;
  /// Length of the loop-carried dependency chain, in FP-operation units per
  /// iteration (0 = independent iterations).
  double dep_chain_ops = 0.0;
  /// Fraction of loaded bytes fetched through indirection (gather).
  double gather_fraction = 0.0;
  /// Probability that a counted branch mispredicts.
  double branch_miss_rate = 0.0;
  /// Fraction of memory traffic that targets rank-shared arrays (homed in the
  /// master thread's NUMA domain by serial first touch).
  double shared_access_fraction = 0.0;
  /// Per-thread working set, used by the cache-locality classifier.
  double working_set_bytes = 0.0;
  /// Kernel-supplied DRAM traffic (streaming estimate accounting for cache
  /// reuse). Negative (default) lets the capacity classifier decide; a
  /// stencil kernel that knows its reuse sets this to the stream volume.
  double dram_traffic_bytes = -1.0;
  /// Mean trip count of the vectorised inner loop; short loops lose lanes on
  /// ISAs without predication.
  double inner_trip_count = 0.0;

  /// Arithmetic intensity in flop/byte (inf-safe: returns 0 on no traffic).
  double arithmetic_intensity() const;

  /// Elementwise accumulation of counts; annotations are combined as
  /// traffic-weighted (gather/shared) or flop-weighted (vec/fma/chain)
  /// averages so that merged phases stay physically meaningful.
  WorkEstimate& merge(const WorkEstimate& other);

  /// Multiply every counted quantity (not the annotations) by `s`.
  WorkEstimate scaled(double s) const;

  /// Throws fibersim::Error when a field is out of its documented domain.
  void validate() const;

  std::string summary() const;
};

/// Every field of a WorkEstimate in one fixed order: visit(name, member) per
/// field. exactly_equal, work_hash, the trace JSON writer and the trace
/// store codec all walk this list, so a new field is one line here. `Work`
/// is WorkEstimate or const WorkEstimate.
template <class Work, class Visit>
void for_each_field(Work& w, Visit&& visit) {
  visit("flops", w.flops);
  visit("load_bytes", w.load_bytes);
  visit("store_bytes", w.store_bytes);
  visit("int_ops", w.int_ops);
  visit("branches", w.branches);
  visit("iterations", w.iterations);
  visit("vectorizable_fraction", w.vectorizable_fraction);
  visit("fma_fraction", w.fma_fraction);
  visit("dep_chain_ops", w.dep_chain_ops);
  visit("gather_fraction", w.gather_fraction);
  visit("branch_miss_rate", w.branch_miss_rate);
  visit("shared_access_fraction", w.shared_access_fraction);
  visit("working_set_bytes", w.working_set_bytes);
  visit("dram_traffic_bytes", w.dram_traffic_bytes);
  visit("inner_trip_count", w.inner_trip_count);
}

/// Bitwise value equality over every field (the equality the prediction memo
/// layer caches under: two estimates are interchangeable iff the model sees
/// the exact same bits). Distinguishes +0.0 from -0.0, consistent with
/// work_hash.
bool exactly_equal(const WorkEstimate& a, const WorkEstimate& b);

/// Deterministic content hash of every field, agreeing with exactly_equal:
/// exactly_equal(a, b) implies work_hash(a) == work_hash(b). Collisions are
/// resolved by the caches via exact comparison, never trusted.
std::uint64_t work_hash(const WorkEstimate& w,
                        std::uint64_t seed = 14695981039346656037ull);

}  // namespace fibersim::isa
