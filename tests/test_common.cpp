// Unit tests for the common utilities: error handling, RNG, statistics,
// strings, tables, aligned buffers.
#include <gtest/gtest.h>
#include <bit>

#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <sstream>

#include "common/aligned_buffer.hpp"
#include "common/barchart.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/log.hpp"
#include "common/parse_num.hpp"
#include "common/report_emit.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/string_util.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "common/units.hpp"
#include "core/experiment_registry.hpp"

namespace fibersim {
namespace {

TEST(Error, RequireThrowsWithContext) {
  try {
    FS_REQUIRE(1 == 2, "numbers disagree");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("numbers disagree"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

// A library FS_REQUIRE names its location from src/ on, never the build
// host's absolute path: messages (and the serve responses that carry them)
// read the same from every checkout of one commit.
TEST(Error, RequireLocationStartsAtSrc) {
  try {
    core::ExperimentRegistry::instance().get("ZZ");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(" at src/core/experiment_registry.cpp:"),
              std::string::npos)
        << what;
  }
}

TEST(Error, RequirePassesSilently) {
  EXPECT_NO_THROW(FS_REQUIRE(true, "never"));
}

TEST(Log, LevelGate) {
  const LogLevel old = log_level();
  set_log_level(LogLevel::kOff);
  FS_LOG(kError) << "suppressed";  // must not crash while off
  set_log_level(old);
}

// ----- RNG -----

TEST(Rng, DeterministicPerSeed) {
  Xoshiro256 a(42, 0);
  Xoshiro256 b(42, 0);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, StreamsDiffer) {
  Xoshiro256 a(42, 0);
  Xoshiro256 b(42, 1);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanIsCentred) {
  Xoshiro256 rng(11);
  Accumulator acc;
  for (int i = 0; i < 20000; ++i) acc.add(rng.uniform());
  EXPECT_NEAR(acc.mean(), 0.5, 0.02);
}

class RngBoundedTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngBoundedTest, BoundedStaysBelowBound) {
  const std::uint64_t bound = GetParam();
  Xoshiro256 rng(13, bound);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_LT(rng.bounded(bound), bound);
  }
}

TEST_P(RngBoundedTest, BoundedCoversRangeForSmallBounds) {
  const std::uint64_t bound = GetParam();
  if (bound > 64) GTEST_SKIP() << "coverage check only for small bounds";
  Xoshiro256 rng(17, bound);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 5000; ++i) seen.insert(rng.bounded(bound));
  EXPECT_EQ(seen.size(), bound);
}

INSTANTIATE_TEST_SUITE_P(Bounds, RngBoundedTest,
                         ::testing::Values(1, 2, 3, 7, 16, 64, 1000, 1u << 20));

TEST(Rng, BoundedZeroReturnsZero) {
  Xoshiro256 rng(1);
  EXPECT_EQ(rng.bounded(0), 0u);
}

// ----- statistics -----

TEST(Stats, AccumulatorBasics) {
  Accumulator acc;
  for (double v : {1.0, 2.0, 3.0, 4.0}) acc.add(v);
  EXPECT_EQ(acc.count(), 4u);
  EXPECT_DOUBLE_EQ(acc.mean(), 2.5);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 4.0);
  EXPECT_NEAR(acc.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(acc.sum(), 10.0);
}

TEST(Stats, EmptyAccumulatorThrowsOnMinMax) {
  Accumulator acc;
  EXPECT_THROW(acc.min(), Error);
  EXPECT_THROW(acc.max(), Error);
  EXPECT_EQ(acc.mean(), 0.0);
}

TEST(Stats, MergeEqualsSequential) {
  Xoshiro256 rng(3);
  Accumulator whole;
  Accumulator left;
  Accumulator right;
  for (int i = 0; i < 500; ++i) {
    const double v = rng.uniform(-10.0, 10.0);
    whole.add(v);
    (i % 2 == 0 ? left : right).add(v);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-10);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-8);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(Stats, MergeWithEmptyIsIdentity) {
  Accumulator a;
  a.add(5.0);
  Accumulator empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 5.0);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> v{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.25), 2.0);
}

TEST(Stats, PercentileValidation) {
  EXPECT_THROW(percentile({}, 0.5), Error);
  EXPECT_THROW(percentile({1.0}, 1.5), Error);
}

TEST(Stats, GeometricMean) {
  EXPECT_DOUBLE_EQ(geometric_mean({4.0, 1.0}), 2.0);
  EXPECT_THROW(geometric_mean({1.0, -1.0}), Error);
  EXPECT_THROW(geometric_mean({}), Error);
}

TEST(Stats, RelativeSpread) {
  EXPECT_DOUBLE_EQ(relative_spread({2.0, 3.0}), 0.5);
  EXPECT_DOUBLE_EQ(relative_spread({5.0}), 0.0);
  EXPECT_THROW(relative_spread({0.0, 1.0}), Error);
}

// ----- strings -----

TEST(Strings, Split) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(Strings, SplitSingle) {
  const auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x y  "), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, Strfmt) {
  EXPECT_EQ(strfmt("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(strfmt("%.2f", 1.235), "1.24");
}

TEST(Strings, SiFormat) {
  EXPECT_EQ(si_format(1540.0, 2), "1.54 k");
  EXPECT_EQ(si_format(2.5e9, 1), "2.5 G");
  EXPECT_EQ(si_format(12.0, 0), "12");
}

TEST(Strings, ToLower) { EXPECT_EQ(to_lower("AbC"), "abc"); }

// ----- tables -----

TEST(Table, RowArityEnforced) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), Error);
  t.add_row({"1", "2"});
  EXPECT_EQ(t.rows(), 1u);
}

TEST(Table, PrintsAlignedColumns) {
  TextTable t({"name", "value"});
  t.add_row({"x", "1.5"});
  t.add_row({"longer", "20"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Table, CsvQuotesCommas) {
  TextTable t({"k", "v"});
  t.add_row({"a,b", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_NE(os.str().find("\"a,b\""), std::string::npos);
}

TEST(Table, CsvQuotingIsRfc4180) {
  TextTable t({"k", "v"});
  t.add_row({"say \"hi\"", "plain"});    // embedded quotes: doubled + quoted
  t.add_row({"two\nlines", "cr\rhere"});  // newlines/CR force quoting too
  std::ostringstream os;
  t.print_csv(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"say \"\"hi\"\"\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"two\nlines\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"cr\rhere\""), std::string::npos) << out;
  // Unremarkable cells stay unquoted, so existing outputs are unchanged.
  EXPECT_NE(out.find(",plain\n"), std::string::npos) << out;
}

// ----- bar charts -----

TEST(BarChart, RendersBarsProportionally) {
  BarChart chart("latency", "us");
  chart.add("fast", 1.0);
  chart.add("slow", 2.0);
  std::ostringstream os;
  chart.print(os, 20);
  const std::string out = os.str();
  EXPECT_NE(out.find("latency"), std::string::npos);
  EXPECT_NE(out.find("fast"), std::string::npos);
  // The max bar fills the width; the half-value bar is half as long.
  EXPECT_NE(out.find(std::string(20, '#')), std::string::npos);
  EXPECT_NE(out.find(std::string(10, '#') + std::string(10, ' ')),
            std::string::npos);
  EXPECT_NE(out.find("us"), std::string::npos);
}

TEST(BarChart, HandlesAllZeroValues) {
  BarChart chart("empty");
  chart.add("a", 0.0);
  std::ostringstream os;
  chart.print(os);
  EXPECT_NE(os.str().find("a"), std::string::npos);
}

TEST(BarChart, RejectsNegativeValuesAndTinyWidth) {
  BarChart chart("x");
  EXPECT_THROW(chart.add("bad", -1.0), Error);
  chart.add("ok", 1.0);
  std::ostringstream os;
  EXPECT_THROW(chart.print(os, 4), Error);
}

TEST(BarChart, SeparatorAddsBlankLine) {
  BarChart chart("grouped");
  chart.add("a", 1.0);
  chart.add_separator();
  chart.add("b", 2.0);
  EXPECT_EQ(chart.bars(), 3u);
  std::ostringstream os;
  chart.print(os, 12);
  EXPECT_NE(os.str().find("\n\n"), std::string::npos);
}

TEST(Table, HeaderAccessor) {
  TextTable t({"x", "y"});
  EXPECT_EQ(t.header()[1], "y");
}

// ----- report emission -----

ReportArtifact sample_artifact() {
  ReportArtifact artifact;
  artifact.id = "X1";
  TextTable t({"app", "ms"});
  t.add_row({"ffvc", "1.5"});
  ReportSection& section = artifact.add_table("X1: sample", t);
  section.notes.push_back("framed note");
  section.cli_notes.push_back("bare note");
  artifact.metrics.push_back({"best_ms", 1.5, "ms"});
  return artifact;
}

std::string emit(const ReportArtifact& artifact, ReportFormat format,
                 bool framed) {
  std::ostringstream os;
  emit_report(artifact, {format, framed}, os);
  return os.str();
}

TEST(ReportEmit, FramedTextHasHeaderAndNotes) {
  const std::string out =
      emit(sample_artifact(), ReportFormat::kText, /*framed=*/true);
  EXPECT_EQ(out.find("== X1: sample ==\n"), 0u) << out;
  EXPECT_NE(out.find("framed note"), std::string::npos);
  EXPECT_EQ(out.find("bare note"), std::string::npos);
}

TEST(ReportEmit, BareTextIsTablePlusCliNotes) {
  const std::string out =
      emit(sample_artifact(), ReportFormat::kText, /*framed=*/false);
  EXPECT_EQ(out.find("=="), std::string::npos) << out;
  EXPECT_NE(out.find("bare note"), std::string::npos);
  EXPECT_EQ(out.find("framed note"), std::string::npos);
}

TEST(ReportEmit, CsvRendersRowsAsCsv) {
  const std::string out =
      emit(sample_artifact(), ReportFormat::kCsv, /*framed=*/false);
  EXPECT_NE(out.find("app,ms\n"), std::string::npos);
  EXPECT_NE(out.find("ffvc,1.5\n"), std::string::npos);
}

TEST(ReportEmit, JsonCarriesIdSectionsAndMetrics) {
  const std::string out =
      emit(sample_artifact(), ReportFormat::kJson, /*framed=*/false);
  EXPECT_NE(out.find("\"id\": \"X1\""), std::string::npos);
  EXPECT_NE(out.find("\"header\": [\"app\", \"ms\"]"), std::string::npos);
  EXPECT_NE(out.find("\"key\": \"best_ms\""), std::string::npos);
}

TEST(ReportEmit, JsonRejectsANanMetric) {
  ReportArtifact artifact = sample_artifact();
  artifact.metrics.push_back(
      {"broken", std::numeric_limits<double>::quiet_NaN(), "ms"});
  std::ostringstream os;
  EXPECT_THROW(emit_report(artifact, {ReportFormat::kJson, false}, os), Error);
  EXPECT_EQ(os.str(), "");  // nothing half-written
}

TEST(ReportEmit, JsonRejectsAnInfiniteMetric) {
  ReportArtifact artifact = sample_artifact();
  artifact.metrics.push_back(
      {"broken", std::numeric_limits<double>::infinity(), "ms"});
  std::ostringstream os;
  EXPECT_THROW(emit_report(artifact, {ReportFormat::kJson, false}, os), Error);
  // Text and CSV carry no metrics and still render.
  EXPECT_NO_THROW(emit_report(artifact, {ReportFormat::kText, false}, os));
}

TEST(ReportEmit, ParseFormatNamesRoundTrip) {
  EXPECT_EQ(parse_report_format("text"), ReportFormat::kText);
  EXPECT_EQ(parse_report_format("CSV"), ReportFormat::kCsv);
  EXPECT_EQ(parse_report_format(" json "), ReportFormat::kJson);
  EXPECT_THROW(parse_report_format("yaml"), Error);
  EXPECT_STREQ(report_format_name(ReportFormat::kJson), "json");
}

TEST(ReportEmit, JsonEscapeCoversControlCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
}

// ----- aligned buffers -----

TEST(Aligned, VectorIsCacheLineAligned) {
  AlignedVector<double> v(100, 1.0);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % kCacheLineBytes, 0u);
  EXPECT_EQ(v[99], 1.0);
}

TEST(Aligned, EmptyAllocationIsFine) {
  AlignedVector<double> v;
  v.resize(0);
  EXPECT_TRUE(v.empty());
}

TEST(Timer, MeasuresForwardTime) {
  WallTimer t;
  EXPECT_GE(t.elapsed(), 0.0);
  t.reset();
  EXPECT_GE(t.elapsed(), 0.0);
}

TEST(Units, Constants) {
  using namespace units;
  EXPECT_DOUBLE_EQ(kGiB, 1024.0 * 1024.0 * 1024.0);
  EXPECT_DOUBLE_EQ(kGHz, 1e9);
}

// ----- checked numeric parsing -----

TEST(ParseNum, I64AcceptsPlainIntegers) {
  EXPECT_EQ(parse_i64("0"), 0);
  EXPECT_EQ(parse_i64("42"), 42);
  EXPECT_EQ(parse_i64("-17"), -17);
  EXPECT_EQ(parse_i64("+8"), 8);
  EXPECT_EQ(parse_i64("  12  "), 12);  // surrounding whitespace is trimmed
  EXPECT_EQ(parse_i64("9223372036854775807"),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(parse_i64("-9223372036854775808"),
            std::numeric_limits<std::int64_t>::min());
}

TEST(ParseNum, I64RejectsGarbage) {
  EXPECT_FALSE(parse_i64(""));
  EXPECT_FALSE(parse_i64("   "));
  EXPECT_FALSE(parse_i64("abc"));
  EXPECT_FALSE(parse_i64("12x"));       // trailing garbage
  EXPECT_FALSE(parse_i64("1 2"));       // embedded space
  EXPECT_FALSE(parse_i64("3.5"));       // not an integer
  EXPECT_FALSE(parse_i64("0x10"));      // no hex
  EXPECT_FALSE(parse_i64("9223372036854775808"));   // overflow
  EXPECT_FALSE(parse_i64("-9223372036854775809"));  // underflow
  EXPECT_FALSE(parse_i64(std::string("1\0 2", 4)));  // embedded NUL
}

TEST(ParseNum, U64CoversTheFullRangeAndRejectsNegatives) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  // strtoull would silently wrap "-1" to 2^64-1; the checked parser must
  // refuse (that wrap is exactly the TraceStore MAX_MB bug class).
  EXPECT_FALSE(parse_u64("-1"));
  EXPECT_FALSE(parse_u64("-0"));
  EXPECT_FALSE(parse_u64("18446744073709551616"));  // overflow
  EXPECT_FALSE(parse_u64("12mb"));
}

TEST(ParseNum, I32NarrowsTheRange) {
  EXPECT_EQ(parse_i32("2147483647"), std::numeric_limits<int>::max());
  EXPECT_EQ(parse_i32("-2147483648"), std::numeric_limits<int>::min());
  EXPECT_FALSE(parse_i32("2147483648"));
  EXPECT_FALSE(parse_i32("-2147483649"));
}

TEST(ParseNum, F64RequiresFiniteFullConsumption) {
  EXPECT_DOUBLE_EQ(*parse_f64("2.5"), 2.5);
  EXPECT_DOUBLE_EQ(*parse_f64("-1e-3"), -1e-3);
  EXPECT_DOUBLE_EQ(*parse_f64("3"), 3.0);
  EXPECT_FALSE(parse_f64("2.5s"));
  EXPECT_FALSE(parse_f64("nan"));
  EXPECT_FALSE(parse_f64("inf"));
  EXPECT_FALSE(parse_f64("1e999"));  // overflows to infinity
  EXPECT_FALSE(parse_f64(""));
}

// ----- hardened JSON parser -----

TEST(Json, ParsesScalarsAndStructure) {
  std::string error;
  const auto v = json::parse(
      R"({"s":"hi","n":-2.5,"b":true,"z":null,"a":[1,2],"o":{"k":7}})",
      &error);
  ASSERT_TRUE(v) << error;
  EXPECT_EQ(v->find("s")->as_string(), "hi");
  EXPECT_DOUBLE_EQ(v->find("n")->as_double(), -2.5);
  EXPECT_TRUE(v->find("b")->as_bool());
  EXPECT_TRUE(v->find("z")->is_null());
  ASSERT_EQ(v->find("a")->items().size(), 2u);
  EXPECT_DOUBLE_EQ(v->find("o")->find("k")->as_double(), 7.0);
  EXPECT_EQ(v->find("missing"), nullptr);
}

TEST(Json, PreservesRawNumberTokensForExactU64) {
  // 2^64-1 is not representable as a double; the raw token must survive so
  // callers can re-parse 64-bit seeds exactly.
  std::string error;
  const auto v = json::parse(R"({"seed":18446744073709551615})", &error);
  ASSERT_TRUE(v) << error;
  EXPECT_EQ(v->find("seed")->raw_number(), "18446744073709551615");
  EXPECT_EQ(parse_u64(v->find("seed")->raw_number()),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(Json, RejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(json::parse("", &error));
  EXPECT_FALSE(json::parse("{", &error));
  EXPECT_FALSE(json::parse("{}extra", &error));     // trailing bytes
  EXPECT_FALSE(json::parse(R"({"a":1,})", &error));  // trailing comma
  EXPECT_FALSE(json::parse(R"({"a" 1})", &error));  // missing colon
  EXPECT_FALSE(json::parse(R"({"a":01})", &error)); // leading zero
  EXPECT_FALSE(json::parse(R"({"a":+1})", &error)); // leading plus
  EXPECT_FALSE(json::parse(R"({"a":.5})", &error));
  EXPECT_FALSE(json::parse(R"({"a":tru})", &error));
  EXPECT_FALSE(json::parse("\"unterminated", &error));
  EXPECT_FALSE(json::parse(R"("bad \q escape")", &error));
  EXPECT_FALSE(error.empty());
}

TEST(Json, RejectsDuplicateKeys) {
  std::string error;
  EXPECT_FALSE(json::parse(R"({"a":1,"a":2})", &error));
  EXPECT_NE(error.find("duplicate"), std::string::npos);
}

TEST(Json, DepthCapStopsRecursionBombs) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += "[";
  for (int i = 0; i < 100; ++i) deep += "]";
  std::string error;
  EXPECT_FALSE(json::parse(deep, &error));
  EXPECT_NE(error.find("deep"), std::string::npos);
  // At the cap boundary it still parses.
  std::string okay;
  for (int i = 0; i < json::kMaxDepth; ++i) okay += "[";
  for (int i = 0; i < json::kMaxDepth; ++i) okay += "]";
  EXPECT_TRUE(json::parse(okay, &error)) << error;
}

TEST(Json, DecodesEscapesIncludingSurrogatePairs) {
  std::string error;
  // Raw UTF-8 bytes pass through untouched...
  const auto raw = json::parse(R"("a\"b\\c\/d\n\tAé😀")", &error);
  ASSERT_TRUE(raw) << error;
  EXPECT_EQ(raw->as_string(), "a\"b\\c/d\n\tA\xC3\xA9\xF0\x9F\x98\x80");
  // ...and \uXXXX escapes (surrogate pairs included) decode to the same.
  const auto escaped = json::parse(R"("\u00e9 \ud83d\ude00")", &error);
  ASSERT_TRUE(escaped) << error;
  EXPECT_EQ(escaped->as_string(), "\xC3\xA9 \xF0\x9F\x98\x80");
  EXPECT_FALSE(json::parse(R"("\ud83d")", &error));  // lone high surrogate
  EXPECT_FALSE(json::parse(R"("\ud83dx")", &error));
}

// ----- the writer -----

using json::Layout;

/// One nested document, every container in `layout`.
std::string sample_document(Layout layout) {
  json::Emitter w;
  w.object(layout);
  w.str("s", "x");
  w.num("n", 1.5);
  w.i64("i", -3);
  w.u64("u", 18446744073709551615ULL);
  w.boolean("b", true);
  w.null("z");
  w.object("e", layout);
  w.close();
  w.array("a", layout);
  w.close();
  w.object("o", layout);
  w.array("k", layout);
  w.shortest(0.1);
  w.raw("2.0");
  w.close();
  w.close();
  return std::move(w).finish();
}

TEST(Json, BlockLayoutIsOneChildPerLine) {
  EXPECT_EQ(sample_document(Layout::kBlock),
            "{\n"
            "  \"s\": \"x\",\n"
            "  \"n\": 1.5,\n"
            "  \"i\": -3,\n"
            "  \"u\": 18446744073709551615,\n"
            "  \"b\": true,\n"
            "  \"z\": null,\n"
            "  \"e\": {},\n"
            "  \"a\": [],\n"
            "  \"o\": {\n"
            "    \"k\": [\n"
            "      0.1,\n"
            "      2.0\n"
            "    ]\n"
            "  }\n"
            "}");
}

TEST(Json, InlineLayoutIsOneSpacedLine) {
  EXPECT_EQ(sample_document(Layout::kInline),
            R"({"s": "x", "n": 1.5, "i": -3, "u": 18446744073709551615, )"
            R"("b": true, "z": null, "e": {}, "a": [], "o": {"k": [0.1, 2.0]}})");
}

TEST(Json, CompactLayoutHasNoSpaces) {
  EXPECT_EQ(sample_document(Layout::kCompact),
            R"({"s":"x","n":1.5,"i":-3,"u":18446744073709551615,)"
            R"("b":true,"z":null,"e":{},"a":[],"o":{"k":[0.1,2.0]}})");
}

TEST(Json, BlockContainerHoldsInlineChildrenOnePerLine) {
  json::Emitter w;
  w.object(Layout::kBlock);
  w.array("rows", Layout::kBlock);
  w.array(Layout::kInline);
  w.str("a");
  w.str("b");
  w.close();
  w.array(Layout::kInline);
  w.close();
  w.close();
  w.object("m", Layout::kInline);
  w.i64("k", 1);
  w.array("c", Layout::kCompact);
  w.i64(1);
  w.i64(2);
  EXPECT_EQ(std::move(w).finish(),
            "{\n"
            "  \"rows\": [\n"
            "    [\"a\", \"b\"],\n"
            "    []\n"
            "  ],\n"
            "  \"m\": {\"k\": 1, \"c\": [1,2]}\n"
            "}");
}

TEST(Json, EveryByteRoundTripsInKeysAndStringsInEveryLayout) {
  for (const Layout layout :
       {Layout::kBlock, Layout::kInline, Layout::kCompact}) {
    json::Emitter w;
    w.object(layout);
    for (int b = 0; b < 256; ++b) {
      const char c = static_cast<char>(b);
      w.str(std::string("k") + c, std::string("v") + c + "w");
    }
    w.array("all", layout);
    for (int b = 0; b < 256; ++b) w.str(std::string(1, static_cast<char>(b)));
    const std::string text = std::move(w).finish();
    std::string error;
    const auto v = json::parse(text, &error);
    ASSERT_TRUE(v) << error;
    ASSERT_EQ(v->members().size(), 257u);
    for (int b = 0; b < 256; ++b) {
      const char c = static_cast<char>(b);
      const auto& [key, value] = v->members()[static_cast<std::size_t>(b)];
      EXPECT_EQ(key, std::string("k") + c) << b;
      EXPECT_EQ(value.as_string(), std::string("v") + c + "w") << b;
      const json::Items& all = v->find("all")->items();
      EXPECT_EQ(all[static_cast<std::size_t>(b)].as_string(), std::string(1, c))
          << b;
    }
  }
}

TEST(Json, NonFiniteDoublesAreRejected) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    json::Emitter w;
    w.array(Layout::kCompact);
    EXPECT_THROW(w.num(bad), Error);
    EXPECT_THROW(w.shortest(bad), Error);
    w.num(1.0);
    EXPECT_EQ(std::move(w).finish(), "[1]");  // nothing half-written
  }
}

TEST(Json, MisuseThrowsInsteadOfWritingBadJson) {
  json::Emitter w;
  w.object(Layout::kCompact);
  EXPECT_THROW(w.i64(1), Error);  // a member needs a key
  w.close();
  EXPECT_THROW(w.i64(1), Error);  // a second root
  EXPECT_THROW(w.close(), Error);
  EXPECT_THROW(std::move(json::Emitter{}).finish(), Error);
}

std::string emitted(double v) {
  json::Emitter w;
  w.num(v);
  return std::move(w).finish();
}

TEST(Json, NumMatchesPrintfPercent17g) {
  const auto printf17 = [](double v) { return strfmt("%.17g", v); };
  for (const double v :
       {0.0, -0.0, 1.0, -1.0, 0.1, 1e300, -1e-300,
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::min() / 3.0,
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::max(),
        -std::numeric_limits<double>::max()}) {
    EXPECT_EQ(emitted(v), printf17(v)) << printf17(v);
  }
  // Random bit patterns cover every exponent and mantissa shape.
  Xoshiro256 rng(20240917);
  int checked = 0;
  int mismatches = 0;
  while (checked < 1000000) {
    const double v = std::bit_cast<double>(rng.next());
    if (!std::isfinite(v)) continue;
    ++checked;
    if (emitted(v) != printf17(v) && ++mismatches <= 5) {
      ADD_FAILURE() << printf17(v) << " emitted as " << emitted(v);
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(Json, ReportsByteOffsets) {
  std::string error;
  EXPECT_FALSE(json::parse(R"({"a":bogus})", &error));
  EXPECT_NE(error.find("at byte"), std::string::npos);
}

}  // namespace
}  // namespace fibersim
