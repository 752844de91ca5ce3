// Integration tests of the eight Fiber miniapp kernels: every app must
// verify under several decompositions, record consistent SPMD traces, and
// perform a decomposition-independent amount of total work.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "miniapps/miniapp.hpp"
#include "miniapps/ngsa.hpp"
#include "native_trace.hpp"

namespace fibersim::apps {
namespace {

double total_timed_flops(const NativeRun& run) {
  double total = 0.0;
  for (const auto& rank_trace : run.trace) {
    for (const auto& phase : rank_trace) {
      if (phase.timed) total += phase.work.flops + phase.work.int_ops;
    }
  }
  return total;
}

TEST(Registry, HasTheWholeSuite) {
  const auto names = registry_names();
  ASSERT_EQ(names.size(), 8u);
  EXPECT_EQ(names.front(), "ccs_qcd");
  for (const auto& name : names) {
    const auto app = create_miniapp(name);
    EXPECT_EQ(app->name(), name);
    EXPECT_FALSE(app->description().empty());
  }
}

TEST(Registry, UnknownNameThrows) {
  EXPECT_THROW(create_miniapp("not_an_app"), Error);
}

TEST(Context, Validation) {
  RunContext ctx;
  EXPECT_THROW(validate_context(ctx), Error);
}

struct AppCase {
  std::string app;
  int ranks;
  int threads;
};

void PrintTo(const AppCase& c, std::ostream* os) {
  *os << c.app << "_" << c.ranks << "x" << c.threads;
}

class MiniappRun : public ::testing::TestWithParam<AppCase> {};

TEST_P(MiniappRun, VerifiesAndTracesConsistently) {
  const AppCase c = GetParam();
  const NativeRun out =
      record_native(c.app, c.ranks, c.threads, Dataset::kSmall, 2);
  for (int r = 0; r < c.ranks; ++r) {
    EXPECT_TRUE(out.results[static_cast<std::size_t>(r)].verified)
        << c.app << " rank " << r << ": "
        << out.results[static_cast<std::size_t>(r)].check_description << " = "
        << out.results[static_cast<std::size_t>(r)].check_value;
  }
  // SPMD contract: all ranks record the same phase sequence.
  ASSERT_FALSE(out.trace.front().empty());
  for (int r = 1; r < c.ranks; ++r) {
    ASSERT_EQ(out.trace[static_cast<std::size_t>(r)].size(),
              out.trace.front().size());
    for (std::size_t p = 0; p < out.trace.front().size(); ++p) {
      EXPECT_EQ(out.trace[static_cast<std::size_t>(r)][p].name,
                out.trace.front()[p].name);
    }
  }
  // Every phase's work validates and at least one timed phase did real work.
  double timed_work = 0.0;
  for (const auto& phase : out.trace.front()) {
    EXPECT_NO_THROW(phase.work.validate()) << c.app << "/" << phase.name;
    if (phase.timed) {
      timed_work += phase.work.flops + phase.work.int_ops;
    }
  }
  EXPECT_GT(timed_work, 0.0) << c.app;
}

std::vector<AppCase> all_cases() {
  std::vector<AppCase> cases;
  for (const auto& name : registry_names()) {
    for (const auto& [p, t] : std::vector<std::pair<int, int>>{
             {1, 1}, {2, 2}, {4, 3}, {6, 1}}) {
      cases.push_back({name, p, t});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Suite, MiniappRun, ::testing::ValuesIn(all_cases()),
                         [](const auto& param_info) {
                           return param_info.param.app + "_" +
                                  std::to_string(param_info.param.ranks) +
                                  "x" +
                                  std::to_string(param_info.param.threads);
                         });

class WorkInvariance : public ::testing::TestWithParam<std::string> {};

// The MPI x OMP sweep is only meaningful if the total work is independent of
// the decomposition (strong scaling).
TEST_P(WorkInvariance, TotalWorkIndependentOfDecomposition) {
  const std::string app = GetParam();
  const auto work = [&](int ranks, int threads) {
    return total_timed_flops(
        record_native(app, ranks, threads, Dataset::kSmall, 2));
  };
  const double w1 = work(1, 2);
  const double w4 = work(4, 1);
  const double w6 = work(6, 2);
  ASSERT_GT(w1, 0.0);
  // Allow a few percent for surface effects / uneven remainders.
  EXPECT_NEAR(w4 / w1, 1.0, 0.05) << app;
  EXPECT_NEAR(w6 / w1, 1.0, 0.05) << app;
}

INSTANTIATE_TEST_SUITE_P(Suite, WorkInvariance,
                         ::testing::ValuesIn(registry_names()),
                         [](const auto& param_info) {
                           return param_info.param;
                         });

class Determinism : public ::testing::TestWithParam<std::string> {};

// Same configuration + same seed => bitwise identical verification value.
TEST_P(Determinism, RepeatedRunsAgree) {
  const std::string app = GetParam();
  const auto a = record_native(app, 2, 2, Dataset::kSmall, 2);
  const auto b = record_native(app, 2, 2, Dataset::kSmall, 2);
  EXPECT_EQ(a.results[0].check_value, b.results[0].check_value) << app;
  EXPECT_EQ(total_timed_flops(a), total_timed_flops(b));
}

INSTANTIATE_TEST_SUITE_P(Suite, Determinism,
                         ::testing::ValuesIn(registry_names()),
                         [](const auto& param_info) {
                           return param_info.param;
                         });

class SeedSensitivity : public ::testing::TestWithParam<std::string> {};

// A different seed must change the generated problem (guards against
// accidentally ignoring the seed).
TEST_P(SeedSensitivity, SeedChangesProblem) {
  const std::string app = GetParam();
  const auto a = record_native(app, 2, 1, Dataset::kSmall, 2, 42);
  const auto b = record_native(app, 2, 1, Dataset::kSmall, 2, 43);
  // Some inputs are index-derived by design; their checks are seed
  // independent.
  if (app == "ffvc" || app == "ffb" || app == "nicam") {
    GTEST_SKIP() << app << " generates its input from grid indices";
  }
  EXPECT_NE(a.results[0].check_value, b.results[0].check_value) << app;
}

INSTANTIATE_TEST_SUITE_P(Suite, SeedSensitivity,
                         ::testing::ValuesIn(registry_names()),
                         [](const auto& param_info) {
                           return param_info.param;
                         });

TEST(Miniapps, LargeDatasetAlsoVerifies) {
  // One representative decomposition per app on the large dataset.
  for (const auto& name : registry_names()) {
    const auto out = record_native(name, 2, 2, Dataset::kLarge);
    EXPECT_TRUE(out.results[0].verified) << name;
  }
}

TEST(Miniapps, LargeDatasetDoesMoreWork) {
  for (const auto& name : registry_names()) {
    const double small = total_timed_flops(record_native(name, 2, 1));
    const double large =
        total_timed_flops(record_native(name, 2, 1, Dataset::kLarge));
    EXPECT_GT(large, 1.5 * small) << name;
  }
}

class WeakScaling : public ::testing::TestWithParam<std::string> {};

// weak_scale = k must multiply total work by ~k and keep verification green.
TEST_P(WeakScaling, DoublesWorkAndStillVerifies) {
  const std::string app = GetParam();
  const auto base = record_native(app, 2, 1);
  const auto scaled = record_native(app, 2, 1, Dataset::kSmall, 1, 42, 2);
  EXPECT_TRUE(scaled.results[0].verified) << app;
  const double ratio = total_timed_flops(scaled) / total_timed_flops(base);
  // ngsa's k-mer pass is population independent, hence the loose lower
  // bound; everything else should be very close to 2.
  EXPECT_GT(ratio, 1.6) << app;
  EXPECT_LT(ratio, 2.4) << app;
}

INSTANTIATE_TEST_SUITE_P(Suite, WeakScaling,
                         ::testing::ValuesIn(registry_names()),
                         [](const auto& param_info) {
                           return param_info.param;
                         });

/// The k-mer checksum as a full histogram pass: fill the 2^min(2k, 22)-slot
/// table, then weight every slot by (s % 251 + 1) — the oracle for
/// detail::kmer_checksum, which never builds the table.
std::uint64_t kmer_checksum_via_table(const std::vector<std::uint8_t>& ref,
                                      int begin, int end, int kmer) {
  const std::size_t table = std::size_t{1} << std::min(2 * kmer, 22);
  std::vector<std::uint32_t> histogram(table, 0);
  std::uint64_t code = 0;
  const std::uint64_t mask = table - 1;
  for (int i = begin; i < end; ++i) {
    code = ((code << 2) | ref[static_cast<std::size_t>(i)]) & mask;
    if (i - begin >= kmer - 1) {
      const std::uint64_t slot = (code * 0x9e3779b97f4a7c15ULL) & mask;
      ++histogram[static_cast<std::size_t>(slot)];
    }
  }
  std::uint64_t checksum = 0;
  for (std::size_t s = 0; s < histogram.size(); ++s) {
    checksum += histogram[s] * (s % 251 + 1);
  }
  return checksum;
}

TEST(Ngsa, KmerChecksumMatchesHistogramOracle) {
  // (reference_len, kmer) of ngsa's small and large datasets: a 2^16- and a
  // 2^22-slot table.
  struct Shape {
    int reference_len;
    int kmer;
  };
  for (const Shape shape : {Shape{4096, 8}, Shape{16384, 11}}) {
    std::vector<std::uint8_t> ref(static_cast<std::size_t>(shape.reference_len));
    Xoshiro256 rng(7, 90001);
    for (auto& base : ref) base = static_cast<std::uint8_t>(rng.bounded(4));
    for (const int ranks : {1, 3, 7, 48}) {
      for (int rank = 0; rank < ranks; ++rank) {
        const int begin = shape.reference_len * rank / ranks;
        const int end = shape.reference_len * (rank + 1) / ranks;
        const std::uint64_t want =
            kmer_checksum_via_table(ref, begin, end, shape.kmer);
        EXPECT_EQ(detail::kmer_checksum(ref, begin, end, shape.kmer), want)
            << "reference " << shape.reference_len << ", rank " << rank
            << " of " << ranks;
        EXPECT_GT(want, 0u);
      }
    }
  }
}

TEST(Miniapps, IterationsScaleTimedWork) {
  // ntchem's loop body is uniform: work must scale exactly with iterations.
  const double n1 = total_timed_flops(record_native("ntchem", 2, 1));
  const double n3 =
      total_timed_flops(record_native("ntchem", 2, 1, Dataset::kSmall, 3));
  EXPECT_NEAR(n3 / n1, 3.0, 0.05);
  // ffvc has a one-off diagnostic prologue, so the ratio is below 3 but the
  // work must still grow substantially.
  const double f1 = total_timed_flops(record_native("ffvc", 2, 1));
  const double f3 =
      total_timed_flops(record_native("ffvc", 2, 1, Dataset::kSmall, 3));
  EXPECT_GT(f3 / f1, 2.0);
  EXPECT_LT(f3 / f1, 3.0);
}

}  // namespace
}  // namespace fibersim::apps
