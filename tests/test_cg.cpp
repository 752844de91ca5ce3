// Unit and property tests for the code-generation model.
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cg/codegen_model.hpp"
#include "cg/compile_options.hpp"
#include "common/error.hpp"

namespace fibersim::cg {
namespace {

isa::WorkEstimate clean_loop() {
  isa::WorkEstimate w;
  w.flops = 1e6;
  w.load_bytes = 8e6;
  w.store_bytes = 1e6;
  w.int_ops = 1e5;
  w.iterations = 1e5;
  w.vectorizable_fraction = 1.0;
  w.fma_fraction = 0.8;
  w.dep_chain_ops = 1.0;
  w.inner_trip_count = 64.0;
  return w;
}

isa::WorkEstimate awkward_loop() {
  isa::WorkEstimate w = clean_loop();
  w.gather_fraction = 0.6;
  w.branches = 1e5;  // one conditional per iteration
  w.branch_miss_rate = 0.2;
  return w;
}

TEST(CompileOptions, PresetNames) {
  EXPECT_EQ(CompileOptions::as_is().name(), "simd");
  EXPECT_EQ(CompileOptions::simd_enhanced().name(), "simd+");
  EXPECT_EQ(CompileOptions::simd_sched().name(), "simd+,swp");
}

TEST(CompileOptions, LadderIsOrdered) {
  const auto ladder = tuning_ladder();
  ASSERT_EQ(ladder.size(), 3u);
  EXPECT_EQ(ladder[0].vectorize, VectorizeLevel::kBasic);
  EXPECT_EQ(ladder[1].vectorize, VectorizeLevel::kEnhanced);
  EXPECT_TRUE(ladder[2].software_pipelining);
}

TEST(CompileOptions, ValidateRejectsBadUnroll) {
  CompileOptions o;
  o.unroll = 0;
  EXPECT_THROW(o.validate(), Error);
  o.unroll = 128;
  EXPECT_THROW(o.validate(), Error);
}

TEST(Ability, NoSimdIsZero) {
  CompileOptions o;
  o.vectorize = VectorizeLevel::kNone;
  EXPECT_DOUBLE_EQ(vectorizer_ability(o, clean_loop()), 0.0);
}

TEST(Ability, EnhancedBeatsBasic) {
  for (const auto& w : {clean_loop(), awkward_loop()}) {
    EXPECT_GT(vectorizer_ability(CompileOptions::simd_enhanced(), w),
              vectorizer_ability(CompileOptions::as_is(), w));
  }
}

TEST(Ability, BasicCollapsesOnAwkwardLoops) {
  const double clean = vectorizer_ability(CompileOptions::as_is(), clean_loop());
  const double awkward =
      vectorizer_ability(CompileOptions::as_is(), awkward_loop());
  EXPECT_LT(awkward, 0.5 * clean);
  // Enhanced vectorisation recovers most of it.
  EXPECT_GT(vectorizer_ability(CompileOptions::simd_enhanced(), awkward_loop()),
            2.0 * awkward);
}

TEST(Ability, AlwaysInUnitInterval) {
  for (double gather : {0.0, 0.5, 1.0}) {
    for (double bd : {0.0, 1.0, 3.0}) {
      isa::WorkEstimate w = clean_loop();
      w.gather_fraction = gather;
      w.branches = bd * w.iterations;
      for (const auto& o : tuning_ladder()) {
        const double a = vectorizer_ability(o, w);
        EXPECT_GE(a, 0.0);
        EXPECT_LE(a, 1.0);
      }
    }
  }
}

TEST(Apply, AppliedFractionNeverExceedsAlgorithmic) {
  for (double vf : {0.0, 0.3, 0.7, 1.0}) {
    isa::WorkEstimate w = awkward_loop();
    w.vectorizable_fraction = vf;
    for (const auto& o : tuning_ladder()) {
      EXPECT_LE(apply(o, w).vectorizable_fraction, vf + 1e-12);
    }
  }
}

TEST(Apply, SwplShortensChain) {
  const isa::WorkEstimate base = apply(CompileOptions::simd_enhanced(),
                                       clean_loop());
  const isa::WorkEstimate swp = apply(CompileOptions::simd_sched(), clean_loop());
  EXPECT_LT(swp.dep_chain_ops, 0.5 * base.dep_chain_ops);
  EXPECT_GT(swp.dep_chain_ops, 0.0);  // cannot remove a true recurrence
}

TEST(Apply, UnrollCutsOverhead) {
  CompileOptions o = CompileOptions::as_is();
  o.unroll = 4;
  const isa::WorkEstimate out = apply(o, awkward_loop());
  EXPECT_DOUBLE_EQ(out.int_ops, awkward_loop().int_ops / 4.0);
  EXPECT_DOUBLE_EQ(out.branches, awkward_loop().branches / 4.0);
  // Real work is untouched.
  EXPECT_DOUBLE_EQ(out.flops, awkward_loop().flops);
}

TEST(Apply, FissionTradesTrafficForChain) {
  CompileOptions o = CompileOptions::as_is();
  o.loop_fission = true;
  const isa::WorkEstimate out = apply(o, clean_loop());
  EXPECT_LT(out.dep_chain_ops, clean_loop().dep_chain_ops);
  EXPECT_GT(out.load_bytes, clean_loop().load_bytes);
}

TEST(Apply, FissionScalesDramHint) {
  CompileOptions o = CompileOptions::as_is();
  o.loop_fission = true;
  isa::WorkEstimate w = clean_loop();
  w.dram_traffic_bytes = 1e6;
  EXPECT_GT(apply(o, w).dram_traffic_bytes, 1e6);
}

TEST(Apply, EnhancedPredicationRemovesBranches) {
  const isa::WorkEstimate out =
      apply(CompileOptions::simd_enhanced(), awkward_loop());
  EXPECT_LT(out.branches, awkward_loop().branches);
}

TEST(Apply, OutputAlwaysValidates) {
  for (const auto& o : tuning_ladder()) {
    for (const auto& w : {clean_loop(), awkward_loop()}) {
      EXPECT_NO_THROW(apply(o, w).validate());
    }
  }
}

TEST(CompileOptions, EveryPresetValidatesAndFingerprintsUniquely) {
  // tuning_ladder() + search_presets(): all constructed pre-validated, and
  // fingerprint() must be injective over the union (it keys the stage-1
  // memo's contexts — a collision would alias two option sets).
  std::vector<CompileOptions> all = tuning_ladder();
  const std::vector<CompileOptions> searched = search_presets();
  all.insert(all.end(), searched.begin(), searched.end());
  std::map<std::uint64_t, std::string> seen;
  for (const CompileOptions& o : all) {
    EXPECT_NO_THROW(o.validate()) << o.name();
    const auto [it, fresh] = seen.emplace(o.fingerprint(), o.name());
    EXPECT_TRUE(fresh || it->second == o.name())
        << "fingerprint collision: " << o.name() << " vs " << it->second;
  }
  // Distinct names imply distinct fingerprints across the whole union.
  std::set<std::string> names;
  for (const CompileOptions& o : all) names.insert(o.name());
  EXPECT_EQ(seen.size(), names.size());
}

TEST(CompileOptions, CompilerProfileChangesFingerprint) {
  for (const CompileOptions& base : tuning_ladder()) {
    for (const CompilerProfile profile : compiler_profiles()) {
      CompileOptions o = base;
      o.compiler = profile;
      if (profile == base.compiler) {
        EXPECT_EQ(o.fingerprint(), base.fingerprint());
      } else {
        EXPECT_NE(o.fingerprint(), base.fingerprint()) << o.name();
      }
    }
  }
}

TEST(CompileOptions, FujitsuProfileKeepsHistoricalFingerprints) {
  // kFujitsu == 0 packs into previously-unused high bits, so every
  // pre-profile option set keeps its exact historical cache key. simd_sched
  // is vectorize=2 | swp<<2 | unroll=1<<3 == 14; pin it so an accidental
  // re-layout of the bit packing cannot alias warm on-disk cache tiers.
  EXPECT_EQ(CompileOptions::simd_sched().fingerprint(), 14u);
  EXPECT_EQ(CompileOptions::as_is().fingerprint(),
            (CompileOptions{.vectorize = VectorizeLevel::kBasic}).fingerprint());
}

TEST(CodegenModel, ProfilesDisagreeOnGeneratedCode) {
  // The three compiler back-ends must actually produce different code for
  // a vectorizable loop — otherwise the searched dimension is dead weight.
  isa::WorkEstimate w = clean_loop();
  w.branches = 0.5 * w.iterations;
  CompileOptions o = CompileOptions::simd_enhanced();
  std::set<double> fractions;
  for (const CompilerProfile profile : compiler_profiles()) {
    o.compiler = profile;
    fractions.insert(apply(o, w).vectorizable_fraction);
  }
  EXPECT_EQ(fractions.size(), compiler_profiles().size());
}

struct LadderCase {
  double gather;
  double branch_density;
};

class LadderMonotone : public ::testing::TestWithParam<LadderCase> {};

// The tuning ladder must never *hurt* the generated code's key quantities.
TEST_P(LadderMonotone, VectorFractionNonDecreasingAlongLadder) {
  isa::WorkEstimate w = clean_loop();
  w.gather_fraction = GetParam().gather;
  w.branches = GetParam().branch_density * w.iterations;
  double prev_vf = -1.0;
  for (const auto& o : tuning_ladder()) {
    const isa::WorkEstimate out = apply(o, w);
    EXPECT_GE(out.vectorizable_fraction, prev_vf);
    prev_vf = out.vectorizable_fraction;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, LadderMonotone,
                         ::testing::Values(LadderCase{0.0, 0.0},
                                           LadderCase{0.5, 0.0},
                                           LadderCase{0.0, 1.0},
                                           LadderCase{0.8, 2.0}));

}  // namespace
}  // namespace fibersim::cg
