#include "isa/work_estimate.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/string_util.hpp"

namespace fibersim::isa {

namespace {
double weighted(double a, double wa, double b, double wb) {
  const double w = wa + wb;
  if (w <= 0.0) return 0.0;
  return (a * wa + b * wb) / w;
}
}  // namespace

double WorkEstimate::arithmetic_intensity() const {
  const double bytes = load_bytes + store_bytes;
  if (bytes <= 0.0) return 0.0;
  return flops / bytes;
}

WorkEstimate& WorkEstimate::merge(const WorkEstimate& other) {
  // Op-weighted annotations (integer-only kernels have flops == 0, so the
  // vectorisation weight must include int_ops).
  vectorizable_fraction =
      weighted(vectorizable_fraction, flops + int_ops,
               other.vectorizable_fraction, other.flops + other.int_ops);
  fma_fraction = weighted(fma_fraction, flops, other.fma_fraction, other.flops);
  // Chain length and trip count are iteration-weighted.
  dep_chain_ops =
      weighted(dep_chain_ops, iterations, other.dep_chain_ops, other.iterations);
  inner_trip_count = weighted(inner_trip_count, iterations,
                              other.inner_trip_count, other.iterations);
  // Traffic-weighted annotations.
  gather_fraction = weighted(gather_fraction, load_bytes, other.gather_fraction,
                             other.load_bytes);
  shared_access_fraction =
      weighted(shared_access_fraction, load_bytes + store_bytes,
               other.shared_access_fraction,
               other.load_bytes + other.store_bytes);
  branch_miss_rate =
      weighted(branch_miss_rate, branches, other.branch_miss_rate, other.branches);
  working_set_bytes = std::max(working_set_bytes, other.working_set_bytes);
  // DRAM hints add; a side that carries no traffic (e.g. the freshly
  // created empty phase record) does not veto the other side's hint, but a
  // real unhinted record merged with a hinted one drops the hint.
  const bool self_has_traffic = load_bytes + store_bytes > 0.0;
  const bool other_has_traffic = other.load_bytes + other.store_bytes > 0.0;
  if (!self_has_traffic) {
    dram_traffic_bytes = other.dram_traffic_bytes;
  } else if (!other_has_traffic) {
    // keep our hint
  } else if (dram_traffic_bytes >= 0.0 && other.dram_traffic_bytes >= 0.0) {
    dram_traffic_bytes += other.dram_traffic_bytes;
  } else {
    dram_traffic_bytes = -1.0;
  }

  flops += other.flops;
  load_bytes += other.load_bytes;
  store_bytes += other.store_bytes;
  int_ops += other.int_ops;
  branches += other.branches;
  iterations += other.iterations;
  return *this;
}

WorkEstimate WorkEstimate::scaled(double s) const {
  FS_REQUIRE(s >= 0.0, "scale factor must be non-negative");
  WorkEstimate out = *this;
  out.flops *= s;
  out.load_bytes *= s;
  out.store_bytes *= s;
  out.int_ops *= s;
  out.branches *= s;
  out.iterations *= s;
  if (out.dram_traffic_bytes > 0.0) out.dram_traffic_bytes *= s;
  return out;
}

void WorkEstimate::validate() const {
  auto in01 = [](double v) { return v >= 0.0 && v <= 1.0; };
  FS_REQUIRE(flops >= 0.0 && load_bytes >= 0.0 && store_bytes >= 0.0 &&
                 int_ops >= 0.0 && branches >= 0.0 && iterations >= 0.0,
             "work counts must be non-negative");
  FS_REQUIRE(in01(vectorizable_fraction), "vectorizable_fraction not in [0,1]");
  FS_REQUIRE(in01(fma_fraction), "fma_fraction not in [0,1]");
  FS_REQUIRE(in01(gather_fraction), "gather_fraction not in [0,1]");
  FS_REQUIRE(in01(branch_miss_rate), "branch_miss_rate not in [0,1]");
  FS_REQUIRE(in01(shared_access_fraction), "shared_access_fraction not in [0,1]");
  FS_REQUIRE(dep_chain_ops >= 0.0, "dep_chain_ops must be non-negative");
  FS_REQUIRE(working_set_bytes >= 0.0, "working_set_bytes must be non-negative");
  FS_REQUIRE(inner_trip_count >= 0.0, "inner_trip_count must be non-negative");
  FS_REQUIRE(dram_traffic_bytes < 0.0 ||
                 dram_traffic_bytes <= load_bytes + store_bytes + 1e-6,
             "dram_traffic_bytes exceeds the total traffic");
}

bool exactly_equal(const WorkEstimate& a, const WorkEstimate& b) {
  bool equal = true;
  std::size_t i = 0;
  std::uint64_t bits_a[16];
  for_each_field(a, [&](const char*, double v) {
    bits_a[i++] = std::bit_cast<std::uint64_t>(v);
  });
  i = 0;
  for_each_field(b, [&](const char*, double v) {
    equal = equal && bits_a[i++] == std::bit_cast<std::uint64_t>(v);
  });
  return equal;
}

std::uint64_t work_hash(const WorkEstimate& w, std::uint64_t seed) {
  Fnv1a h(seed);
  for_each_field(w, [&](const char*, double v) { h.f64(v); });
  return h.value();
}

std::string WorkEstimate::summary() const {
  return strfmt(
      "flops=%.3g bytes=%.3g AI=%.3g vec=%.2f fma=%.2f chain=%.1f gather=%.2f",
      flops, load_bytes + store_bytes, arithmetic_intensity(),
      vectorizable_fraction, fma_fraction, dep_chain_ops, gather_fraction);
}

}  // namespace fibersim::isa
