#include "cg/codegen_model.hpp"

#include <algorithm>

#include "cg/codegen_cache.hpp"
#include "common/error.hpp"

namespace fibersim::cg {

namespace {
/// Conditional-code density of the loop body, in [0, 1].
double branch_density(const isa::WorkEstimate& work) {
  if (work.iterations <= 0.0) return 0.0;
  return std::min(1.0, work.branches / work.iterations);
}

/// Loop fission shortens per-loop chains but re-streams intermediates.
constexpr double kFissionChainScale = 0.70;
constexpr double kFissionTrafficScale = 1.15;

/// The per-compiler calibration. kFujitsu carries the original (pre-profile)
/// coefficients verbatim, so the default profile is bit-identical to the
/// historical model; the GNU and Arm-LLVM rows follow the relative standings
/// of the compiler-comparison study: GCC's auto-vectoriser is the most
/// conservative on gather/conditional SVE loops and its modulo scheduler
/// recovers far less of the FP-latency chain than Fujitsu's -Kswp; LLVM
/// sits between the two, with good straight-line vector codegen but weaker
/// predication and software pipelining than the vendor compiler.
struct ProfileTraits {
  double basic_ability;       ///< auto-vectorisation baseline
  double basic_gather_pen;    ///< indirection penalty coefficient
  double basic_branch_pen;    ///< conditional-body penalty coefficient
  double enhanced_ability;    ///< directive/pragma-assisted baseline
  double enhanced_gather_pen;
  double enhanced_branch_pen;
  double predication;         ///< branch -> predicate conversion strength
  double swp_chain_scale;     ///< dep-chain floor under software pipelining
  double unroll_efficiency;   ///< fraction of loop overhead unroll removes
};

constexpr ProfileTraits profile_traits(CompilerProfile profile) {
  switch (profile) {
    case CompilerProfile::kFujitsu:
      return {0.75, 0.8, 0.7, 0.95, 0.30, 0.25, 0.8, 0.40, 1.0};
    case CompilerProfile::kGnu:
      return {0.70, 0.90, 0.85, 0.85, 0.45, 0.40, 0.55, 0.55, 0.90};
    case CompilerProfile::kArmLlvm:
      return {0.78, 0.75, 0.60, 0.90, 0.35, 0.30, 0.70, 0.48, 0.85};
  }
  return {};
}
}  // namespace

double vectorizer_ability(const CompileOptions& opts,
                          const isa::WorkEstimate& work) {
  opts.validate();
  work.validate();
  const ProfileTraits traits = profile_traits(opts.compiler);
  switch (opts.vectorize) {
    case VectorizeLevel::kNone:
      return 0.0;
    case VectorizeLevel::kBasic: {
      // Auto-vectorisation gives up on indirection and on conditional bodies.
      double ability = traits.basic_ability;
      ability *= 1.0 - traits.basic_gather_pen * work.gather_fraction;
      ability *= 1.0 - traits.basic_branch_pen * branch_density(work);
      if (opts.loop_fission) ability = std::min(1.0, ability + 0.10);
      return std::clamp(ability, 0.0, 1.0);
    }
    case VectorizeLevel::kEnhanced: {
      // Directives + predicated vector code handle most awkward loops.
      double ability = traits.enhanced_ability;
      ability *= 1.0 - traits.enhanced_gather_pen * work.gather_fraction;
      ability *= 1.0 - traits.enhanced_branch_pen * branch_density(work);
      return std::clamp(ability, 0.0, 1.0);
    }
  }
  return 0.0;
}

isa::WorkEstimate apply(const CompileOptions& opts,
                        const isa::WorkEstimate& work) {
  opts.validate();
  work.validate();
  const ProfileTraits traits = profile_traits(opts.compiler);
  isa::WorkEstimate out = work;

  out.vectorizable_fraction =
      work.vectorizable_fraction * vectorizer_ability(opts, work);

  if (opts.software_pipelining) {
    // SWP overlaps successive chain links; it cannot remove a genuinely
    // loop-carried recurrence, so a profile-specific floor remains.
    out.dep_chain_ops *= traits.swp_chain_scale;
  }
  if (opts.loop_fission) {
    out.dep_chain_ops *= kFissionChainScale;
    out.load_bytes *= kFissionTrafficScale;
    out.store_bytes *= kFissionTrafficScale;
    if (out.dram_traffic_bytes > 0.0) {
      out.dram_traffic_bytes *= kFissionTrafficScale;
    }
  }
  if (opts.unroll > 1) {
    // An unroll by u removes up to (u-1)/u of the loop-control overhead;
    // how close the compiler gets is a profile trait (1.0 = the full
    // division by u of the original model).
    const double u = static_cast<double>(opts.unroll);
    const double effective = 1.0 + (u - 1.0) * traits.unroll_efficiency;
    out.int_ops /= effective;
    out.branches /= effective;
  }
  // Vectorising a conditional loop converts its branches into predicates.
  if (opts.vectorize == VectorizeLevel::kEnhanced) {
    out.branches *= 1.0 - traits.predication * out.vectorizable_fraction;
  }
  out.validate();
  return out;
}

isa::WorkEstimate CodegenCache::apply(const CompileOptions& opts,
                                      const isa::WorkEstimate& work,
                                      std::uint64_t /*work_h*/) {
  return cg::apply(opts, work);
}

}  // namespace fibersim::cg
