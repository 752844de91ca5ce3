// Compile-option sets modelling the paper's compiler study.
//
// The paper improves the poorly performing "as-is" runs in two steps:
// enhancing SIMD vectorisation (directives / restrict / predicated
// vectorisation of conditional loops, Fujitsu -Ksimd=2 class) and changing
// instruction scheduling (software pipelining, -Kswp class). CompileOptions
// captures exactly those knobs plus the unroll/loop-fission options used for
// the ablation study, and — following "A64FX: Your Compiler You Must
// Decide!" — which compiler's code generator produced the binary.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace fibersim::cg {

enum class VectorizeLevel {
  kNone,      ///< -Knosimd: scalar code
  kBasic,     ///< default auto-vectorisation: bails on indirection/branches
  kEnhanced,  ///< directive-assisted: predicated/indirect loops vectorised
};

const char* vectorize_level_name(VectorizeLevel level);

/// Per-compiler codegen profile: the same source and flag set comes out of
/// different compilers as measurably different code (integer-factor swings
/// on A64FX kernels per the compiler-comparison study in PAPERS.md). The
/// profile scales the codegen model's vectorisation efficacy, software-
/// pipelining gain, branch predication and unroll effectiveness
/// (cg/codegen_model.cpp). kFujitsu is the calibration baseline — it
/// reproduces the pre-profile model bit-exactly and is the default, so
/// every existing fingerprint, cache key and report stays unchanged.
enum class CompilerProfile {
  kFujitsu = 0,  ///< trad-mode -K class: strongest SWP and SVE predication
  kGnu,          ///< GCC class: conservative vectoriser, weak modulo sched
  kArmLlvm,      ///< Arm Compiler for Linux (LLVM) class
};

const char* compiler_profile_name(CompilerProfile profile);

/// Every modelled profile, Fujitsu (the default/baseline) first.
std::vector<CompilerProfile> compiler_profiles();

struct CompileOptions {
  VectorizeLevel vectorize = VectorizeLevel::kBasic;
  /// Software pipelining / aggressive instruction scheduling: overlaps
  /// successive dependency-chain links across iterations.
  bool software_pipelining = false;
  /// Unroll factor (1 = none). Cuts loop-control overhead and branches.
  int unroll = 1;
  /// Loop fission: splits fat loops to enable vectorisation / shorten chains
  /// at the price of extra streamed traffic for the intermediates.
  bool loop_fission = false;
  /// Which compiler's code generator the model emulates.
  CompilerProfile compiler = CompilerProfile::kFujitsu;

  // The three presets of experiment T3.
  static CompileOptions as_is();
  static CompileOptions simd_enhanced();
  static CompileOptions simd_sched();

  std::string name() const;
  void validate() const;

  /// Exact (collision-free) value fingerprint: every field bit-packed into
  /// one word. Keys the stage-1 prediction memo's contexts — equal
  /// fingerprints imply equal options. The compiler profile packs into
  /// previously-unused high bits with kFujitsu == 0, so every pre-profile
  /// option set keeps its exact historical fingerprint (no cache-key
  /// aliasing across the feature boundary).
  std::uint64_t fingerprint() const;

  friend bool operator==(const CompileOptions&, const CompileOptions&) = default;
};

/// The preset sequence used by the T3 table (ordered: as-is, +SIMD, +sched).
/// Every returned preset is validated at construction.
std::vector<CompileOptions> tuning_ladder();

/// The full compile axis the autotuner searches: the T3 ladder crossed with
/// every compiler profile, unroll in {1, 4} and loop fission off/on —
/// validated, deterministic order, pairwise-distinct fingerprints (tested).
std::vector<CompileOptions> search_presets();

}  // namespace fibersim::cg
