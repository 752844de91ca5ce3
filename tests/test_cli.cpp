// Tests for the config parser and CLI driver.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "common/error.hpp"
#include "common/json.hpp"
#include "core/cli.hpp"
#include "core/config_parse.hpp"
#include "core/journal.hpp"
#include "core/report_flags.hpp"
#include "core/serve.hpp"
#include "core/serve_codec.hpp"
#include "machine/calibrate.hpp"
#include "machine/descriptor.hpp"
#include "machine/registry.hpp"

namespace fibersim::core {
namespace {

// ----- value parsers -----

TEST(Parse, Bind) {
  EXPECT_EQ(parse_bind("compact").name(), "compact");
  EXPECT_EQ(parse_bind(" Stride-4 ").name(), "stride-4");
  EXPECT_EQ(parse_bind("scatter").name(), "scatter");
  EXPECT_THROW(parse_bind("strided"), Error);
  EXPECT_THROW(parse_bind("stride-x"), Error);
  EXPECT_THROW(parse_bind(""), Error);
}

TEST(Parse, Alloc) {
  EXPECT_EQ(parse_alloc("block"), topo::RankAllocPolicy::kBlock);
  EXPECT_EQ(parse_alloc("CYCLIC"), topo::RankAllocPolicy::kCyclic);
  EXPECT_EQ(parse_alloc("scatter"), topo::RankAllocPolicy::kScatter);
  EXPECT_THROW(parse_alloc("round-robin"), Error);
}

TEST(Parse, Compile) {
  EXPECT_EQ(parse_compile("as-is").name(), "simd");
  EXPECT_EQ(parse_compile("simd+").name(), "simd+");
  EXPECT_EQ(parse_compile("simd+swp").name(), "simd+,swp");
  EXPECT_EQ(parse_compile("nosimd").vectorize, cg::VectorizeLevel::kNone);
  EXPECT_THROW(parse_compile("O3"), Error);
}

TEST(Parse, Processor) {
  EXPECT_EQ(parse_processor("a64fx").name, "A64FX");
  EXPECT_EQ(parse_processor("a64fx-boost").name, "A64FX-boost");
  EXPECT_EQ(parse_processor("a64fx-eco").fp_pipes, 1);
  EXPECT_EQ(parse_processor("skylake").name, "Skylake-8168x2");
  EXPECT_EQ(parse_processor("thunderx2").name, "ThunderX2x2");
  EXPECT_EQ(parse_processor("broadwell").name, "Broadwell-2695v4x2");
  EXPECT_THROW(parse_processor("epyc"), Error);
}

TEST(Parse, Dataset) {
  EXPECT_EQ(parse_dataset("small"), apps::Dataset::kSmall);
  EXPECT_EQ(parse_dataset(" LARGE "), apps::Dataset::kLarge);
  EXPECT_THROW(parse_dataset("medium"), Error);
}

// ----- config files -----

TEST(ConfigFile, ParsesEveryKey) {
  const ExperimentConfig cfg = parse_experiment_config(R"(
# full config
app        = ccs_qcd
dataset    = large
ranks      = 8
threads    = 6
nodes      = 2
bind       = stride-2
alloc      = cyclic
compile    = simd+
unroll     = 4
fission    = true
processor  = thunderx2
iterations = 5
seed       = 123
)");
  EXPECT_EQ(cfg.app, "ccs_qcd");
  EXPECT_EQ(cfg.dataset, apps::Dataset::kLarge);
  EXPECT_EQ(cfg.ranks, 8);
  EXPECT_EQ(cfg.threads, 6);
  EXPECT_EQ(cfg.nodes, 2);
  EXPECT_EQ(cfg.bind.name(), "stride-2");
  EXPECT_EQ(cfg.alloc, topo::RankAllocPolicy::kCyclic);
  EXPECT_EQ(cfg.compile.vectorize, cg::VectorizeLevel::kEnhanced);
  EXPECT_EQ(cfg.compile.unroll, 4);
  EXPECT_TRUE(cfg.compile.loop_fission);
  EXPECT_EQ(cfg.processor.name, "ThunderX2x2");
  EXPECT_EQ(cfg.iterations, 5);
  EXPECT_EQ(cfg.seed, 123u);
}

TEST(ConfigFile, DefaultsSurviveEmptyConfig) {
  const ExperimentConfig cfg = parse_experiment_config("# nothing\n\n");
  EXPECT_EQ(cfg.app, "ffvc");
  EXPECT_EQ(cfg.ranks, 4);
}

TEST(ConfigFile, CommentsAndWhitespaceIgnored) {
  const ExperimentConfig cfg =
      parse_experiment_config("  app = nicam   # trailing comment\n");
  EXPECT_EQ(cfg.app, "nicam");
}

TEST(ConfigFile, UnknownKeyRejected) {
  EXPECT_THROW(parse_experiment_config("appp = ffvc\n"), Error);
}

TEST(ConfigFile, UnknownKeyErrorNamesKeyAndLine) {
  try {
    parse_experiment_config("app = ffvc\nappp = ffvc\n");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("unknown config key 'appp' on line 2"),
              std::string::npos)
        << e.what();
  }
}

TEST(ConfigFile, MissingEqualsRejected) {
  EXPECT_THROW(parse_experiment_config("app ffvc\n"), Error);
}

TEST(ConfigFile, BadValuesRejected) {
  EXPECT_THROW(parse_experiment_config("ranks = many\n"), Error);
  EXPECT_THROW(parse_experiment_config("fission = maybe\n"), Error);
  EXPECT_THROW(parse_experiment_config("ranks =\n"), Error);
}

TEST(ConfigFile, ResultIsValidated) {
  // 49 ranks x 2 threads does not fit on one A64FX node.
  EXPECT_THROW(parse_experiment_config("ranks = 49\nthreads = 2\n"), Error);
}

TEST(ConfigFile, LoadFromDisk) {
  const std::string path = "/tmp/fibersim_test_config.txt";
  {
    std::ofstream out(path);
    out << "app = ntchem\nranks = 2\nthreads = 1\niterations = 1\n";
  }
  const ExperimentConfig cfg = load_experiment_config(path);
  EXPECT_EQ(cfg.app, "ntchem");
  std::remove(path.c_str());
  EXPECT_THROW(load_experiment_config("/nonexistent/x.cfg"), Error);
}

// ----- CLI driver -----

struct CliResult {
  int code = 0;
  std::string out;
  std::string err;
};

CliResult run_cli(std::vector<std::string> args) {
  args.insert(args.begin(), "fibersim");
  std::ostringstream out;
  std::ostringstream err;
  const int code = cli_main(args, out, err);
  return {code, out.str(), err.str()};
}

TEST(Cli, NoArgsPrintsUsage) {
  const CliResult r = run_cli({});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("usage"), std::string::npos);
}

TEST(Cli, HelpSucceeds) {
  const CliResult r = run_cli({"help"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("usage"), std::string::npos);
}

TEST(Cli, UnknownCommand) {
  const CliResult r = run_cli({"frobnicate"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST(Cli, ListShowsSuiteAndReports) {
  const CliResult r = run_cli({"list"});
  EXPECT_EQ(r.code, 0);
  for (const auto& name : apps::registry_names()) {
    EXPECT_NE(r.out.find(name), std::string::npos) << name;
  }
  // The report index comes from the experiment registry: id, title, ref.
  EXPECT_NE(r.out.find("T1"), std::string::npos);
  EXPECT_NE(r.out.find("E1"), std::string::npos);
  EXPECT_NE(r.out.find("machine configurations"), std::string::npos);
  EXPECT_NE(r.out.find("[Table 1]"), std::string::npos);
  EXPECT_NE(r.out.find("[extension (multi-node outlook)]"), std::string::npos);
}

TEST(Cli, DescribeApp) {
  const CliResult r = run_cli({"describe", "mvmc"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("Sherman-Morrison"), std::string::npos);
  EXPECT_EQ(run_cli({"describe"}).code, 2);
  EXPECT_EQ(run_cli({"describe", "nope"}).code, 2);
}

TEST(Cli, DescribeProcessorDumpsTheCanonicalDescriptor) {
  const CliResult r = run_cli({"describe", "a64fx"});
  EXPECT_EQ(r.code, 0);
  // Bit-exact round trip: stdout IS the canonical descriptor.
  EXPECT_EQ(r.out, machine::to_descriptor(machine::a64fx()));
  EXPECT_TRUE(machine::parse_descriptor(r.out) == machine::a64fx());
  // Variants and names resolve through the same path.
  EXPECT_EQ(run_cli({"describe", "a64fx-eco"}).code, 0);
  EXPECT_EQ(run_cli({"describe", "Skylake-8168x2"}).code, 0);
}

TEST(Cli, CalibrateFromMeasurementsIsDeterministic) {
  const std::string meas_path = ::testing::TempDir() + "/cli_meas.json";
  {
    std::ofstream out(meas_path, std::ios::binary);
    out << machine::measurements_to_json(
        machine::synthetic_measurements(machine::a64fx(), 42, 0.02));
  }
  const std::vector<std::string> args = {"calibrate", "--from-measurements",
                                         meas_path, "--name", "cli-test"};
  const CliResult a = run_cli(args);
  const CliResult b = run_cli(args);
  ASSERT_EQ(a.code, 0) << a.err;
  EXPECT_EQ(a.out, b.out);  // same measurements -> byte-identical descriptor
  const machine::ProcessorConfig cfg = machine::parse_descriptor(a.out);
  EXPECT_EQ(cfg.name, "cli-test");
  EXPECT_EQ(run_cli({"calibrate", "--from-measurements",
                     "/nonexistent/meas.json"})
                .code,
            2);
}

TEST(Parse, ProcessorAcceptsDescriptorPaths) {
  machine::ProcessorConfig custom = machine::a64fx();
  custom.name = "A64FX-parse-path";
  custom.freq_hz = 1.8e9;
  const std::string path = ::testing::TempDir() + "/parse_processor.json";
  {
    std::ofstream out(path, std::ios::binary);
    out << machine::to_descriptor(custom);
  }
  EXPECT_TRUE(parse_processor(path) == custom);
  // Loaded as a side effect: the bare name now resolves too.
  EXPECT_TRUE(parse_processor("A64FX-parse-path") == custom);
  machine::ProcessorRegistry::instance().reset();
  EXPECT_THROW(parse_processor("A64FX-parse-path"), Error);
}

TEST(Cli, RunExperimentEndToEnd) {
  const CliResult r = run_cli({"run", "--app", "ffvc", "--dataset", "small",
                               "--ranks", "2", "--threads", "2",
                               "--iterations", "1"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("predicted time"), std::string::npos);
  EXPECT_NE(r.out.find("verified"), std::string::npos);
  EXPECT_NE(r.out.find("phases"), std::string::npos);
}

TEST(Cli, RunWithConfigFileAndOverride) {
  const std::string path = "/tmp/fibersim_cli_config.txt";
  {
    std::ofstream out(path);
    out << "app = ffvc\nranks = 2\nthreads = 2\niterations = 1\n"
        << "dataset = small\n";
  }
  // Flags after --config override the file.
  const CliResult r =
      run_cli({"run", "--config", path, "--processor", "skylake"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("Skylake"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Cli, RunConfigLoadsFirstWhereverItAppears) {
  const std::string path = ::testing::TempDir() + "/fibersim_cli_first.cfg";
  {
    std::ofstream out(path);
    out << "app = ffvc\nranks = 2\nthreads = 2\niterations = 1\n"
        << "dataset = small\nprocessor = a64fx\n";
  }
  // A flag before --config still overrides the file.
  const CliResult r =
      run_cli({"run", "--processor", "skylake", "--config", path});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("Skylake"), std::string::npos) << r.out;
  ExperimentConfig cfg;
  ASSERT_EQ(parse_run_flags({"--ranks", "1", "--config", path, "--threads",
                             "3"},
                            cfg),
            "");
  EXPECT_EQ(cfg.ranks, 1);
  EXPECT_EQ(cfg.threads, 3);
  EXPECT_EQ(cfg.iterations, 1);
  std::remove(path.c_str());
}

TEST(Cli, RunCollapseRanksIsBareOrTakesAValue) {
  ExperimentConfig cfg;
  ASSERT_EQ(parse_run_flags({"--collapse-ranks"}, cfg), "");
  EXPECT_TRUE(cfg.collapse);
  cfg = ExperimentConfig{};
  ASSERT_EQ(parse_run_flags({"--collapse-ranks", "--ranks", "2"}, cfg), "");
  EXPECT_TRUE(cfg.collapse);
  EXPECT_EQ(cfg.ranks, 2);
  ASSERT_EQ(parse_run_flags({"--collapse-ranks", "off"}, cfg), "");
  EXPECT_FALSE(cfg.collapse);
  EXPECT_NE(parse_run_flags({"--collapse-ranks", "maybe"}, cfg)
                .find("expected on|off"),
            std::string::npos);
}

// The one key table drives all three front ends. Each row, set alone to a
// non-default token, must reach the same config through the config file,
// the run flags and a serve predict, and the journal fingerprint of that
// config must differ from the default's: every settable field is keyed.
TEST(ConfigKeys, FrontEndsAgreeAndTheJournalKeyCoversEveryField) {
  const std::map<std::string, std::string> tokens = {
      {"app", "nicam"},       {"dataset", "large"},
      {"ranks", "2"},         {"threads", "6"},
      {"nodes", "2"},         {"bind", "scatter"},
      {"alloc", "cyclic"},    {"compile", "simd+"},
      {"unroll", "4"},        {"fission", "on"},
      {"compiler", "gnu"},    {"processor", "skylake"},
      {"iterations", "2"},    {"seed", "7"},
      {"weak_scale", "2"},    {"collapse_ranks", "on"},
  };
  const std::uint64_t defaults = SweepJournal::fingerprint(ExperimentConfig{});
  for (const ConfigKey& row : config_keys()) {
    SCOPED_TRACE(row.name);
    const auto it = tokens.find(row.name);
    ASSERT_NE(it, tokens.end()) << "no test token for key " << row.name;
    const std::string& token = it->second;
    const ExperimentConfig file =
        parse_experiment_config(std::string(row.name) + " = " + token + "\n");
    ExperimentConfig flags;
    ASSERT_EQ(parse_run_flags({row.flag(), token}, flags), "");
    ServeRequest req;
    ASSERT_EQ(parse_serve_request("{\"verb\":\"predict\",\"" +
                                      std::string(row.name) + "\":\"" +
                                      token + "\"}",
                                  req),
              "");
    const std::uint64_t fingerprint = SweepJournal::fingerprint(file);
    EXPECT_EQ(SweepJournal::fingerprint(flags), fingerprint);
    EXPECT_EQ(SweepJournal::fingerprint(req.config), fingerprint);
    EXPECT_NE(fingerprint, defaults);
  }
  EXPECT_EQ(tokens.size(), config_keys().size());
}

// The serve `report` verb reads the report table too: a request that sets
// every field serve accepts must answer exactly the bytes `fibersim report`
// prints for the same flags, in text and JSON.
TEST(ConfigKeys, ServeReportAgreesWithTheReportCommand) {
  const std::map<std::string, std::string> tokens = {
      {"apps", "ffvc"}, {"dataset", "small"},       {"iterations", "1"},
      {"seed", "7"},    {"jobs", "2"},              {"collapse_ranks", "on"},
      {"format", ""},  // set per pass below
  };
  std::size_t served = 0;
  for (const KeyRow<ReportFlags>& row : report_keys()) {
    if (row.scope == KeyScope::kCommandLine) continue;
    ++served;
    EXPECT_TRUE(tokens.contains(row.name)) << "no test token for " << row.name;
  }
  EXPECT_EQ(tokens.size(), served);

  ServeOptions opts;
  opts.socket_path = ::testing::TempDir() + "/fibersim_cli_report_" +
                     std::to_string(::getpid()) + ".sock";
  opts.workers = 1;
  Server server(std::move(opts));
  server.start();
  ServeClient client(server.socket_path());
  for (const char* format : {"text", "json"}) {
    SCOPED_TRACE(format);
    std::vector<std::string> args = {"report", "T2"};
    json::Emitter request;
    request.object(json::Layout::kCompact);
    request.str("verb", "report");
    request.str("report", "T2");
    for (const auto& [name, token] : tokens) {
      const std::string value = name == "format" ? format : token;
      args.push_back(find_key(report_keys(), name)->flag());
      args.push_back(value);
      request.str(name, value);
    }
    const CliResult cli = run_cli(args);
    ASSERT_EQ(cli.code, 0) << cli.err;
    const std::string response = client.request(std::move(request).finish());
    std::string error;
    const std::optional<json::Value> decoded = json::parse(response, &error);
    ASSERT_TRUE(decoded) << error << ": " << response;
    const json::Value* payload = decoded->find("payload");
    ASSERT_NE(payload, nullptr) << response;
    ASSERT_TRUE(payload->is_string()) << response;
    EXPECT_EQ(payload->as_string(), cli.out);
  }
  server.stop();
  server.wait();
}

// Every row of every command table is spelled out in the usage text.
TEST(ConfigKeys, UsageListsEveryRunFlag) {
  const std::string usage = run_cli({"help"}).out;
  const auto word_char = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '-';
  };
  for (const std::string& flag : cli_flags()) {
    bool listed = false;
    for (std::size_t at = usage.find(flag); at != std::string::npos;
         at = usage.find(flag, at + 1)) {
      const std::size_t end = at + flag.size();
      listed = listed || (at > 0 && !word_char(usage[at - 1]) &&
                          (end == usage.size() || !word_char(usage[end])));
    }
    EXPECT_TRUE(listed) << flag;
  }
}

TEST(Cli, RunJsonOutput) {
  const CliResult r = run_cli({"run", "--app", "ntchem", "--ranks", "2",
                               "--threads", "1", "--iterations", "1",
                               "--json"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_EQ(r.out.front(), '{');
  EXPECT_NE(r.out.find("\"total_s\""), std::string::npos);
  EXPECT_NE(r.out.find("\"phases\""), std::string::npos);
}

TEST(Cli, RunDumpTraceWritesFile) {
  const std::string path = "/tmp/fibersim_cli_trace.json";
  const CliResult r = run_cli({"run", "--app", "ntchem", "--ranks", "2",
                               "--threads", "1", "--iterations", "1",
                               "--dump-trace", path});
  EXPECT_EQ(r.code, 0) << r.err;
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string first_line;
  std::getline(in, first_line);
  EXPECT_EQ(first_line.front(), '[');
  EXPECT_NE(first_line.find("dgemm"), std::string::npos);
  std::remove(path.c_str());
}

// A collapsed job past the native thread cap (4096 ranks) must still dump
// the full expansion, one entry per virtual rank.
TEST(Cli, RunDumpTraceExpandsCollapsedJobBeyondNativeScale) {
  const std::string path = "/tmp/fibersim_cli_trace_8192.json";
  const CliResult r = run_cli(
      {"run", "--app", "ntchem", "--ranks", "8192", "--threads", "1",
       "--nodes", "256", "--iterations", "1", "--collapse-ranks",
       "--dump-trace", path});
  ASSERT_EQ(r.code, 0) << r.err;
  std::stringstream text;
  text << std::ifstream(path).rdbuf();
  std::remove(path.c_str());
  const json::Value doc = json::parse_document(text.str(), path);
  ASSERT_TRUE(doc.is_array());
  EXPECT_EQ(doc.items().size(), 8192u);
}

TEST(Cli, RunDumpTraceRejectsBadPath) {
  const CliResult r = run_cli({"run", "--app", "ntchem", "--ranks", "1",
                               "--threads", "1", "--iterations", "1",
                               "--dump-trace", "/nonexistent/dir/x.json"});
  EXPECT_EQ(r.code, 2);
}

// One loop parses every command line, so an unknown flag is named as one
// on every command, whether or not a value follows it.
TEST(Cli, UnknownFlagsAreNamedOnEveryCommand) {
  const CliResult report = run_cli({"report", "T1", "--bogus"});
  EXPECT_EQ(report.code, 2);
  EXPECT_NE(report.err.find("unknown report flag: --bogus"), std::string::npos)
      << report.err;
  const CliResult tune = run_cli({"tune", "--bogus", "1"});
  EXPECT_EQ(tune.code, 2);
  EXPECT_NE(tune.err.find("unknown tune flag: --bogus"), std::string::npos)
      << tune.err;
}

TEST(Cli, RunRejectsBadFlags) {
  EXPECT_EQ(run_cli({"run", "--bogus", "1"}).code, 2);
  EXPECT_EQ(run_cli({"run", "--app"}).code, 2);
  EXPECT_EQ(run_cli({"run", "--processor", "epyc"}).code, 2);
}

TEST(Cli, ReportT1) {
  const CliResult r = run_cli({"report", "T1"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("A64FX"), std::string::npos);
}

TEST(Cli, ReportA2NeedsNoExecution) {
  const CliResult r = run_cli({"report", "a2"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("threads"), std::string::npos);
}

TEST(Cli, ReportWithAppFilter) {
  const CliResult r = run_cli({"report", "F2", "--apps", "ffvc", "--dataset",
                               "small", "--iterations", "1"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("ffvc"), std::string::npos);
  EXPECT_NE(r.out.find("compact"), std::string::npos);
}

TEST(Cli, ReportAllRegeneratesEveryId) {
  const CliResult r = run_cli({"report", "all", "--apps", "ffvc", "--dataset",
                               "small", "--iterations", "1"});
  EXPECT_EQ(r.code, 0) << r.err;
  for (const auto& id : cli_report_ids()) {
    EXPECT_NE(r.out.find("== " + id + " =="), std::string::npos) << id;
  }
}

TEST(Cli, ReportRejectsUnknownId) {
  EXPECT_EQ(run_cli({"report", "Z9"}).code, 2);
  EXPECT_EQ(run_cli({"report"}).code, 2);
  EXPECT_EQ(run_cli({"report", "--apps", "ffvc"}).code, 2);
}

TEST(Cli, ReportListNeedsNoId) {
  // `report --list` prints the registered ids, as `report <id> --list` and
  // `bench/experiment --list` do.
  const CliResult r = run_cli({"report", "--list"});
  EXPECT_EQ(r.code, 0) << r.err;
  for (const auto& id : cli_report_ids()) {
    EXPECT_NE(r.out.find("  " + id + " "), std::string::npos) << id;
  }
  EXPECT_EQ(r.out, run_cli({"report", "T1", "--list"}).out);
}

TEST(Cli, ReportFormatJson) {
  const CliResult r = run_cli({"report", "T1", "--format", "json"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_EQ(r.out.front(), '{');
  EXPECT_NE(r.out.find("\"id\": \"T1\""), std::string::npos);
  EXPECT_NE(r.out.find("\"metrics\""), std::string::npos);
}

TEST(Cli, ReportFormatCsv) {
  const CliResult r = run_cli({"report", "T1", "--format", "csv"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("A64FX,48,"), std::string::npos) << r.out;
  // --csv is shorthand for --format csv.
  EXPECT_EQ(run_cli({"report", "T1", "--csv"}).out, r.out);
  EXPECT_EQ(run_cli({"report", "T1", "--format", "yaml"}).code, 2);
}

TEST(Cli, ReportAllJsonIsOneArray) {
  const CliResult r = run_cli({"report", "--all", "--apps", "ffvc",
                               "--dataset", "small", "--iterations", "1",
                               "--format", "json"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_EQ(r.out.front(), '[');
  EXPECT_EQ(r.out.substr(r.out.size() - 2), "]\n");
  for (const auto& id : cli_report_ids()) {
    EXPECT_NE(r.out.find("\"id\": \"" + id + "\""), std::string::npos) << id;
  }
}

TEST(Cli, ReportIdsCoverTheDesignIndex) {
  const auto ids = cli_report_ids();
  EXPECT_EQ(ids.size(), 20u);
}

// ----- malformed numeric values: every flag, every command -----
//
// Each case must exit 2 with a diagnostic on stderr -- never an uncaught
// std::sto* exception, never a silently clamped value.

// Values that no integer flag may accept (surrounding whitespace is the
// one tolerated decoration — parse_num trims it before the strict parse).
const char* const kBadInts[] = {"",     "abc",  "2x",  "x2",   "1 2",
                                "1.5",  "0x10", "++1", "--1",  "1e3",
                                "nan",  "9999999999999999999"};

TEST(Cli, RunRejectsMalformedIntegerValues) {
  for (const char* flag : {"--ranks", "--threads", "--nodes", "--iterations",
                           "--weak-scale"}) {
    for (const char* bad : kBadInts) {
      const CliResult r = run_cli({"run", flag, bad});
      EXPECT_EQ(r.code, 2) << flag << "='" << bad << "'";
      EXPECT_NE(r.err.find(flag), std::string::npos) << flag << "='" << bad
                                                     << "'";
    }
    // Positive-only flags reject zero and negatives with a range message.
    for (const char* bad : {"0", "-3"}) {
      const CliResult r = run_cli({"run", flag, bad});
      EXPECT_EQ(r.code, 2) << flag << "='" << bad << "'";
      EXPECT_NE(r.err.find("must be >= 1"), std::string::npos)
          << flag << "='" << bad << "'";
    }
  }
}

TEST(Cli, RunRejectsMalformedSeed) {
  for (const char* bad : {"", "-1", "abc", "12x", "18446744073709551616"}) {
    const CliResult r = run_cli({"run", "--seed", bad});
    EXPECT_EQ(r.code, 2) << "seed='" << bad << "'";
    EXPECT_NE(r.err.find("--seed"), std::string::npos);
  }
  // The full u64 range is usable as a seed.
  EXPECT_EQ(run_cli({"run", "--app", "ffvc", "--dataset", "small", "--ranks",
                     "2", "--threads", "1", "--iterations", "1", "--seed",
                     "18446744073709551615"})
                .code,
            0);
}

TEST(Cli, ReportRejectsMalformedNumericValues) {
  for (const char* flag : {"--iterations", "--jobs"}) {
    for (const char* bad : {"abc", "2x", "", "0", "-2"}) {
      const CliResult r = run_cli({"report", "T1", flag, bad});
      EXPECT_EQ(r.code, 2) << flag << "='" << bad << "'";
      EXPECT_NE(r.err.find(flag), std::string::npos);
    }
  }
  // --retries allows 0 but rejects negatives and garbage.
  EXPECT_EQ(run_cli({"report", "T1", "--retries", "-1"}).code, 2);
  EXPECT_EQ(run_cli({"report", "T1", "--retries", "two"}).code, 2);
  // --watchdog is a float: finite, >= 0, fully consumed.
  for (const char* bad : {"-0.5", "abc", "1.5s", "nan", "inf", ""}) {
    const CliResult r = run_cli({"report", "T1", "--watchdog", bad});
    EXPECT_EQ(r.code, 2) << "watchdog='" << bad << "'";
    EXPECT_NE(r.err.find("--watchdog"), std::string::npos);
  }
  EXPECT_EQ(run_cli({"report", "T1", "--seed", "-7"}).code, 2);
  // Missing value at end of line is reported, not read out of bounds.
  EXPECT_EQ(run_cli({"report", "T1", "--jobs"}).code, 2);
}

TEST(Cli, ServeRejectsMalformedNumericValues) {
  // Bad flag values must fail before the server binds its socket.
  for (const char* flag : {"--workers", "--queue"}) {
    for (const char* bad : {"abc", "4x", "", "0", "-1", "1e2"}) {
      const CliResult r = run_cli({"serve", flag, bad});
      EXPECT_EQ(r.code, 2) << flag << "='" << bad << "'";
      EXPECT_NE(r.err.find(flag), std::string::npos);
    }
  }
  EXPECT_EQ(run_cli({"serve", "--bogus", "1"}).code, 2);
  EXPECT_EQ(run_cli({"serve", "--workers"}).code, 2);
}

// The search-schedule flags of the retired successive-halving tuner must
// fail loudly, so an old script never silently runs a different search.
TEST(Cli, TuneRejectsRetiredSearchFlags) {
  for (const char* flag : {"--eta", "--min-survivors", "--generations",
                           "--population", "--unbounded"}) {
    const CliResult r = run_cli({"tune", flag, "2"});
    EXPECT_EQ(r.code, 2) << flag;
    EXPECT_NE(r.err.find(std::string("unknown tune flag: ") + flag),
              std::string::npos)
        << flag;
  }
}

// The bench shims route their argv through the same parse_report_flags as
// `fibersim report`; exercise that entry point directly so a bench binary
// can never crash on a malformed numeric value either.
TEST(Cli, BenchFlagParserRejectsMalformedValues) {
  for (const char* flag : {"--iterations", "--jobs", "--retries"}) {
    for (const char* bad : kBadInts) {
      ReportFlags flags;
      const std::string problem = parse_report_flags({flag, bad}, flags);
      EXPECT_FALSE(problem.empty()) << flag << "='" << bad << "'";
      EXPECT_NE(problem.find(flag), std::string::npos);
    }
  }
  for (const char* bad : {"x", "-1", "1.0e999"}) {
    ReportFlags flags;
    EXPECT_FALSE(parse_report_flags({"--watchdog", bad}, flags).empty())
        << "watchdog='" << bad << "'";
  }
  {
    ReportFlags flags;
    EXPECT_FALSE(parse_report_flags({"--seed", "-1"}, flags).empty());
    EXPECT_TRUE(parse_report_flags({"--seed", "18446744073709551615"}, flags)
                    .empty());
    EXPECT_EQ(flags.ctx.seed, 18446744073709551615ull);
    EXPECT_TRUE(parse_report_flags({"--retries", "0"}, flags).empty());
    EXPECT_EQ(flags.ctx.sweep.max_retries, 0);
  }
}

// The rank/thread overrides and the collapse toggle enter sweeps through
// the same checked parsers: zero, negative, overflow and garbage must come
// back as one-line errors naming the flag, never as a crash or a silent 0.
TEST(Cli, ReportRankThreadAndCollapseFlagsValidate) {
  for (const char* flag : {"--ranks", "--threads"}) {
    for (const char* bad : kBadInts) {
      ReportFlags flags;
      const std::string problem = parse_report_flags({flag, bad}, flags);
      EXPECT_FALSE(problem.empty()) << flag << "='" << bad << "'";
      EXPECT_NE(problem.find(flag), std::string::npos);
    }
    for (const char* bad : {"0", "-8"}) {
      ReportFlags flags;
      EXPECT_FALSE(parse_report_flags({flag, bad}, flags).empty())
          << flag << "='" << bad << "'";
    }
  }
  for (const char* bad : {"", "maybe", "2", "onn", "-1"}) {
    ReportFlags flags;
    const std::string problem =
        parse_report_flags({"--collapse-ranks", bad}, flags);
    EXPECT_FALSE(problem.empty()) << "collapse='" << bad << "'";
    EXPECT_NE(problem.find("--collapse-ranks"), std::string::npos);
  }
  ReportFlags flags;
  EXPECT_TRUE(parse_report_flags({"--ranks", "25600", "--threads", "12",
                                  "--collapse-ranks", "on"},
                                 flags)
                  .empty());
  EXPECT_EQ(flags.ctx.override_ranks, 25600);
  EXPECT_EQ(flags.ctx.override_threads, 12);
  EXPECT_TRUE(flags.ctx.collapse);
  EXPECT_TRUE(parse_report_flags({"--collapse-ranks", "off"}, flags).empty());
  EXPECT_FALSE(flags.ctx.collapse);
}

}  // namespace
}  // namespace fibersim::core
