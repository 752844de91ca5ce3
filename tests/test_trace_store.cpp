// Tests for the persistent trace store (tier 2 of the execution cache).
//
// The store's contract is: a warm load is bit-identical to the native run it
// replaces, and *anything* wrong with a stored file — truncation, bit flips,
// version or endianness mismatch, a foreign key, a torn write — silently
// falls back to a native run. Concurrent publishers (threads or processes)
// never produce a torn file or divergent results, and a fault-injected run
// never publishes.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "core/runner.hpp"
#include "core/sweep_pool.hpp"
#include "fault/fault.hpp"
#include "machine/processor.hpp"
#include "native_trace.hpp"
#include "trace/canonical.hpp"
#include "trace/serialize.hpp"
#include "trace/trace_store.hpp"

namespace fibersim {
namespace {

namespace fs = std::filesystem;

/// Unique scratch directory, removed on destruction.
struct TempDir {
  explicit TempDir(const std::string& tag) {
    static std::atomic<int> counter{0};
    path = fs::temp_directory_path() /
           ("fibersim-test-" + tag + "-" +
            std::to_string(static_cast<long>(::getpid())) + "-" +
            std::to_string(counter.fetch_add(1)));
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  fs::path path;
  std::string str() const { return path.string(); }
};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

core::ExperimentConfig make_config(const std::string& app,
                                   apps::Dataset dataset, int ranks = 2,
                                   int threads = 2) {
  core::ExperimentConfig cfg;
  cfg.app = app;
  cfg.dataset = dataset;
  cfg.ranks = ranks;
  cfg.threads = threads;
  cfg.iterations = 1;
  return cfg;
}

trace::StoreKey key_of(const core::ExperimentConfig& cfg) {
  return core::Runner::execution_key(cfg);
}

void expect_results_identical(const core::ExperimentResult& a,
                              const core::ExperimentResult& b) {
  EXPECT_EQ(trace::to_json(a.prediction), trace::to_json(b.prediction));
  EXPECT_EQ(a.verified, b.verified);
  EXPECT_TRUE(same_bits(a.check_value, b.check_value));
  EXPECT_EQ(a.check_description, b.check_description);
}

/// `cfg`'s native trace, canonicalized as the store persists it.
trace::StoredExecution stored_of(const core::ExperimentConfig& cfg) {
  trace::StoredExecution exec;
  exec.canonical = trace::CanonicalTrace::build(
      record_native(cfg.app, cfg.ranks, cfg.threads, cfg.dataset).trace);
  return exec;
}

bool has_temp_files(const fs::path& dir) {
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    if (e.path().filename().string().rfind(".tmp-", 0) == 0) return true;
  }
  return false;
}

std::size_t trace_file_count(const fs::path& dir) {
  std::size_t n = 0;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    if (e.path().filename().string().rfind("trace-", 0) == 0) ++n;
  }
  return n;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// ----- codec round trip ----------------------------------------------------

TEST(TraceStoreCodec, RoundTripBitIdenticalForEveryMiniappAndDataset) {
  for (const std::string& app : apps::registry_names()) {
    for (const apps::Dataset dataset :
         {apps::Dataset::kSmall, apps::Dataset::kLarge}) {
      SCOPED_TRACE(app + "/" + apps::dataset_name(dataset));
      const core::ExperimentConfig cfg = make_config(app, dataset);
      const NativeRun ref = record_native(app, cfg.ranks, cfg.threads, dataset);
      const apps::RunResult& check = ref.results.front();

      trace::StoredExecution original;
      original.canonical = trace::CanonicalTrace::build(ref.trace);
      original.verified = check.verified;
      original.check_value = check.check_value;
      original.check_description = check.check_description;

      // expand() must be the exact inverse of build().
      expect_traces_identical(original.canonical.expand(), ref.trace);

      const trace::StoreKey key = key_of(cfg);
      const std::string blob = trace::encode_stored(key, original);
      const std::optional<trace::StoredExecution> decoded =
          trace::decode_stored(key, blob);
      ASSERT_TRUE(decoded.has_value());
      expect_traces_identical(decoded->canonical.expand(), ref.trace);
      EXPECT_EQ(decoded->canonical.fingerprint(),
                original.canonical.fingerprint());
      EXPECT_EQ(decoded->verified, check.verified);
      EXPECT_TRUE(same_bits(decoded->check_value, check.check_value));
      EXPECT_EQ(decoded->check_description, check.check_description);

      // Encoding is deterministic: decode-re-encode is byte-identical.
      EXPECT_EQ(trace::encode_stored(key, *decoded), blob);
    }
  }
}

TEST(TraceStoreCodec, EveryTruncationIsRejected) {
  const core::ExperimentConfig cfg =
      make_config("ffb", apps::Dataset::kSmall);
  const trace::StoredExecution exec = stored_of(cfg);
  const trace::StoreKey key = key_of(cfg);
  const std::string blob = trace::encode_stored(key, exec);

  ASSERT_GT(blob.size(), 16u);
  for (std::size_t len = 0; len < blob.size(); len += 7) {
    EXPECT_FALSE(trace::decode_stored(key, blob.substr(0, len)).has_value())
        << "prefix of " << len << " bytes decoded";
  }
}

TEST(TraceStoreCodec, BitFlipsAndWrongKeysAreRejected) {
  const core::ExperimentConfig cfg =
      make_config("ffvc", apps::Dataset::kSmall);
  const trace::StoredExecution exec = stored_of(cfg);
  const trace::StoreKey key = key_of(cfg);
  const std::string blob = trace::encode_stored(key, exec);

  // A single flipped bit anywhere must be caught by the trailing file hash
  // (or, for the final 8 bytes, by the hash comparison itself).
  for (const std::size_t at :
       {std::size_t{0}, std::size_t{9}, blob.size() / 2, blob.size() - 1}) {
    std::string bad = blob;
    bad[at] = static_cast<char>(bad[at] ^ 0x10);
    EXPECT_FALSE(trace::decode_stored(key, bad).has_value())
        << "flip at " << at;
  }

  // The same bytes presented for a different key must be rejected even
  // though the file itself is pristine.
  trace::StoreKey other = key;
  other.seed = key.seed + 1;
  EXPECT_FALSE(trace::decode_stored(other, blob).has_value());

  EXPECT_FALSE(trace::decode_stored(key, std::string_view{}).has_value());
}

TEST(TraceStoreCodec, WrongFormatVersionIsRejectedEvenWithValidHash) {
  const core::ExperimentConfig cfg =
      make_config("ngsa", apps::Dataset::kSmall);
  const trace::StoredExecution exec = stored_of(cfg);
  const trace::StoreKey key = key_of(cfg);
  std::string blob = trace::encode_stored(key, exec);

  // Bump the format version (u32 little-endian at offset 8, after the magic)
  // and re-stamp the trailing whole-file hash so only the version gate can
  // reject the blob.
  blob[8] = static_cast<char>(blob[8] + 1);
  Fnv1a file_hash;
  for (std::size_t i = 0; i + 8 < blob.size(); ++i) {
    file_hash.byte(static_cast<unsigned char>(blob[i]));
  }
  const std::uint64_t h = file_hash.value();
  for (int i = 0; i < 8; ++i) {
    blob[blob.size() - 8 + static_cast<std::size_t>(i)] =
        static_cast<char>(h >> (8 * i));
  }
  EXPECT_FALSE(trace::decode_stored(key, blob).has_value());
}

// ----- pinned bytes --------------------------------------------------------

/// A two-rank, one-phase trace whose records differ from each other and in
/// which every work field, flag, send and collective holds a distinct value,
/// each set by name: swapping two fields in a writer and its reader together
/// moves bytes here, where the round-trip tests would still pass.
trace::JobTrace pinned_trace() {
  trace::JobTrace trace(2);
  for (int rank = 0; rank < 2; ++rank) {
    const double base = 100.0 * rank;
    trace::PhaseRecord rec;
    rec.name = "pinned";
    rec.parallel = false;
    rec.timed = true;
    rec.entries = 3;
    rec.work = {.flops = base + 1.5, .load_bytes = base + 2.5,
                .store_bytes = base + 3.5, .int_ops = base + 4.5,
                .branches = base + 5.5, .iterations = base + 6.5,
                .vectorizable_fraction = base + 0.0625,
                .fma_fraction = base + 0.125, .dep_chain_ops = base + 7.5,
                .gather_fraction = base + 0.1875,
                .branch_miss_rate = base + 0.25,
                .shared_access_fraction = base + 0.3125,
                .working_set_bytes = base + 8.5,
                .dram_traffic_bytes = base + 9.5,
                .inner_trip_count = base + 10.5};
    const std::uint64_t r = static_cast<std::uint64_t>(rank);
    rec.comm.sends[1 - rank] = mp::PeerTraffic{11 + 2 * r, 4096 * (r + 1)};
    rec.comm.collectives[mp::CollectiveKind::kAllreduce] = {13 + r, 48};
    rec.comm.collectives[mp::CollectiveKind::kAlltoall] = {17, 640 * (r + 1)};
    trace[static_cast<std::size_t>(rank)].push_back(rec);
  }
  return trace;
}

std::uint64_t fnv1a_of(std::string_view bytes) {
  Fnv1a h;
  for (const char c : bytes) h.byte(static_cast<unsigned char>(c));
  return h.value();
}

// The hashes are those of the format as first pinned; a change to either
// is a format change (kFormatVersion for the store), never a refactor.
TEST(TraceStoreCodec, EncodedBytesArePinned) {
  trace::StoredExecution exec;
  exec.canonical = trace::CanonicalTrace::build(pinned_trace());
  ASSERT_EQ(exec.canonical.class_count(), 2u);
  exec.verified = true;
  exec.check_value = 0.375;
  exec.check_description = "pinned check";
  const trace::StoreKey key{.app = "pinned-app", .dataset = 1, .ranks = 2,
                            .threads = 3, .iterations = 4, .weak_scale = 5,
                            .collapse = 6, .seed = 7};
  const std::string blob = trace::encode_stored(key, exec);
  EXPECT_EQ(blob.size(), 643u);
  EXPECT_EQ(fnv1a_of(blob), 0xa023f38e0eb73f68ull);
  ASSERT_TRUE(trace::decode_stored(key, blob).has_value());
}

TEST(Serialize, TraceJsonBytesArePinned) {
  const std::string text = trace::to_json(pinned_trace());
  EXPECT_EQ(text.size(), 1123u);
  EXPECT_EQ(fnv1a_of(text), 0xa0e65d8cc43fa81aull);
}

// ----- store-level fallback ------------------------------------------------

TEST(TraceStore, CorruptFilesFallBackToNativeRuns) {
  const core::ExperimentConfig cfg =
      make_config("modylas", apps::Dataset::kSmall);
  TempDir dir("corrupt");

  core::Runner seed_runner;
  seed_runner.set_trace_store(std::make_shared<trace::TraceStore>(dir.str()));
  const core::ExperimentResult ref = seed_runner.run(cfg);
  EXPECT_EQ(seed_runner.native_runs(), 1u);
  EXPECT_EQ(seed_runner.disk_writes(), 1u);

  const std::string path =
      trace::TraceStore(dir.str()).path_for(key_of(cfg));
  const std::string clean = read_file(path);
  ASSERT_FALSE(clean.empty());

  const auto corruptions = std::vector<std::pair<std::string, std::string>>{
      {"truncated", clean.substr(0, clean.size() / 2)},
      {"zero-length", std::string{}},
      {"bit-flipped", [&] {
         std::string bad = clean;
         bad[bad.size() / 3] = static_cast<char>(bad[bad.size() / 3] ^ 0x01);
         return bad;
       }()},
      {"wrong-magic", [&] {
         std::string bad = clean;
         bad[0] = 'X';
         return bad;
       }()},
  };
  for (const auto& [label, bytes] : corruptions) {
    SCOPED_TRACE(label);
    write_file(path, bytes);
    core::Runner runner;
    runner.set_trace_store(std::make_shared<trace::TraceStore>(dir.str()));
    const core::ExperimentResult res = runner.run(cfg);
    // Silent fallback: one native run, no disk hit, identical result — and
    // the clean trace is re-published over the corrupt file.
    EXPECT_EQ(runner.native_runs(), 1u);
    EXPECT_EQ(runner.disk_hits(), 0u);
    EXPECT_EQ(runner.disk_writes(), 1u);
    expect_results_identical(res, ref);
    EXPECT_EQ(read_file(path), clean);
  }

  // A file copied under a foreign key's path is rejected by the key check.
  core::ExperimentConfig other_cfg = cfg;
  other_cfg.seed = cfg.seed + 7;
  const std::string other_path =
      trace::TraceStore(dir.str()).path_for(key_of(other_cfg));
  write_file(other_path, clean);
  core::Runner runner;
  runner.set_trace_store(std::make_shared<trace::TraceStore>(dir.str()));
  runner.run(other_cfg);
  EXPECT_EQ(runner.native_runs(), 1u);
  EXPECT_EQ(runner.disk_hits(), 0u);
}

/// One pass of `configs` through a fresh Runner on `dir`'s store.
struct SweepPass {
  std::vector<core::ExperimentResult> results;
  std::vector<trace::JobTrace> traces;  ///< expanded; index == config
  std::size_t native_runs = 0;
  std::size_t disk_hits = 0;
  std::size_t disk_writes = 0;
};

SweepPass run_sweep(const std::vector<core::ExperimentConfig>& configs,
                    const TempDir& dir, int jobs) {
  core::Runner runner;
  runner.set_trace_store(std::make_shared<trace::TraceStore>(dir.str()));
  SweepPass pass;
  pass.results = core::SweepPool(jobs).run(runner, configs);
  pass.native_runs = runner.native_runs();
  pass.disk_hits = runner.disk_hits();
  pass.disk_writes = runner.disk_writes();
  for (const core::ExperimentConfig& cfg : configs) {
    pass.traces.push_back(runner.expanded_trace(cfg));
  }
  return pass;
}

void expect_passes_identical(const SweepPass& a, const SweepPass& b) {
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    SCOPED_TRACE(a.results[i].config.label());
    expect_results_identical(a.results[i], b.results[i]);
    expect_traces_identical(a.traces[i], b.traces[i]);
  }
}

TEST(TraceStore, WarmSweepReplaysFromDiskAtAnyJobs) {
  // apps x (ranks, threads) x comparison processors. Processors do not enter
  // the execution key, so 18 configs share 6 native runs.
  std::vector<core::ExperimentConfig> configs;
  for (const machine::ProcessorConfig& proc : machine::comparison_set()) {
    for (const char* app : {"ffvc", "ffb", "modylas"}) {
      for (const auto& [ranks, threads] :
           {std::pair{2, 2}, std::pair{4, 2}}) {
        configs.push_back(make_config(app, apps::Dataset::kSmall, ranks,
                                      threads));
        configs.back().processor = proc;
      }
    }
  }
  const std::size_t unique_keys = 6;

  std::vector<SweepPass> cold_passes;
  for (const int jobs : {1, 4}) {
    SCOPED_TRACE("jobs " + std::to_string(jobs));
    TempDir dir("sweep");
    SweepPass cold = run_sweep(configs, dir, jobs);
    EXPECT_EQ(cold.native_runs, unique_keys);
    EXPECT_EQ(cold.disk_writes, unique_keys);
    // A fresh Runner on the same directory replays every key from disk and
    // reproduces the cold predictions, traces and check values bit for bit.
    const SweepPass warm = run_sweep(configs, dir, jobs);
    EXPECT_EQ(warm.native_runs, 0u);
    EXPECT_EQ(warm.disk_hits, unique_keys);
    expect_passes_identical(warm, cold);
    EXPECT_FALSE(has_temp_files(dir.path));
    cold_passes.push_back(std::move(cold));
  }
  // The determinism contract extends to the disk tier: any --jobs, same bits.
  expect_passes_identical(cold_passes[1], cold_passes[0]);
}

TEST(TraceStore, EvictionKeepsDirectoryUnderBudget) {
  TempDir dir("evict");
  const core::ExperimentConfig cfg = make_config("ffb", apps::Dataset::kSmall);
  const trace::StoredExecution exec = stored_of(cfg);
  const std::size_t file_size =
      trace::encode_stored(key_of(cfg), exec).size();

  // Budget for ~1.5 files: publishing three keys must evict the older ones
  // while never deleting the file just published.
  trace::TraceStore store(dir.str(), file_size + file_size / 2);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    trace::StoreKey key = key_of(cfg);
    key.seed = seed;
    EXPECT_TRUE(store.store(key, exec));
    EXPECT_TRUE(fs::exists(store.path_for(key)));
  }
  EXPECT_GE(store.evictions(), 2u);
  EXPECT_LE(trace_file_count(dir.path), 1u);

  // The survivor (the most recent publication) still loads.
  trace::StoreKey last = key_of(cfg);
  last.seed = 3;
  EXPECT_TRUE(store.load(last).has_value());
}

TEST(TraceStore, FaultPlanBypassesTheStoreEntirely) {
  TempDir dir("fault");
  const core::ExperimentConfig cfg = make_config("ffb", apps::Dataset::kSmall);
  {
    fault::Plan plan;
    plan.run_fail = 1;
    fault::ScopedPlan scoped(plan);
    core::Runner runner;
    runner.set_trace_store(std::make_shared<trace::TraceStore>(dir.str()));
    // First native attempt is injected to fail; nothing may be published —
    // neither by the failed attempt nor by the successful retry (the store
    // is bypassed whenever a plan is installed).
    EXPECT_THROW(runner.run(cfg), Error);
    EXPECT_EQ(trace_file_count(dir.path), 0u);
    EXPECT_FALSE(has_temp_files(dir.path));
    const core::ExperimentResult res = runner.run(cfg, /*attempt=*/1);
    EXPECT_TRUE(res.verified);
    EXPECT_EQ(runner.disk_writes(), 0u);
    EXPECT_EQ(runner.disk_hits(), 0u);
    EXPECT_EQ(trace_file_count(dir.path), 0u);
  }
  // With the plan cleared the same directory accepts a clean publication.
  core::Runner runner;
  runner.set_trace_store(std::make_shared<trace::TraceStore>(dir.str()));
  runner.run(cfg);
  EXPECT_EQ(runner.disk_writes(), 1u);
  EXPECT_EQ(trace_file_count(dir.path), 1u);
}

// ----- concurrency ---------------------------------------------------------

TEST(TraceStore, RacingRunnersProduceIdenticalResultsAndNoTornFiles) {
  TempDir dir("race");
  const std::vector<core::ExperimentConfig> configs = {
      make_config("ffb", apps::Dataset::kSmall),
      make_config("ffvc", apps::Dataset::kSmall),
  };

  // Two independent Runners (separate tier-1 caches) race on one store
  // directory from two threads each: publications collide on the same final
  // paths and must stay atomic.
  core::Runner a;
  core::Runner b;
  a.set_trace_store(std::make_shared<trace::TraceStore>(dir.str()));
  b.set_trace_store(std::make_shared<trace::TraceStore>(dir.str()));
  std::vector<core::ExperimentResult> results_a(configs.size());
  std::vector<core::ExperimentResult> results_b(configs.size());
  {
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < configs.size(); ++i) {
      threads.emplace_back(
          [&, i] { results_a[i] = a.run(configs[i]); });
      threads.emplace_back(
          [&, i] { results_b[i] = b.run(configs[i]); });
    }
    for (std::thread& t : threads) t.join();
  }
  for (std::size_t i = 0; i < configs.size(); ++i) {
    expect_results_identical(results_a[i], results_b[i]);
    expect_traces_identical(a.expanded_trace(configs[i]),
                            b.expanded_trace(configs[i]));
  }
  EXPECT_FALSE(has_temp_files(dir.path));
  EXPECT_EQ(trace_file_count(dir.path), configs.size());

  // Whoever won, a warm runner now replays both keys from disk.
  core::Runner warm;
  warm.set_trace_store(std::make_shared<trace::TraceStore>(dir.str()));
  for (std::size_t i = 0; i < configs.size(); ++i) {
    expect_results_identical(warm.run(configs[i]), results_a[i]);
    expect_traces_identical(warm.expanded_trace(configs[i]),
                            a.expanded_trace(configs[i]));
  }
  EXPECT_EQ(warm.native_runs(), 0u);
}

#ifdef FIBERSIM_CLI
TEST(TraceStore, RacingProcessesShareOneStore) {
  TempDir dir("procs");
  const std::string out1 = (dir.path / "out1.json").string();
  const std::string out2 = (dir.path / "out2.json").string();
  const fs::path cache = dir.path / "cache";
  const std::string base = std::string("'") + FIBERSIM_CLI +
                           "' run --app ffb --dataset small --ranks 2"
                           " --threads 2 --iterations 1 --json"
                           " --trace-cache '" +
                           cache.string() + "'";
  // Two whole processes race cold on the same cache directory; both must
  // succeed, agree bytewise, and leave exactly one published trace file.
  const std::string cmd = base + " > '" + out1 + "' & " + base + " > '" +
                          out2 + "'; wait";
  ASSERT_EQ(std::system(cmd.c_str()), 0);
  const std::string bytes1 = read_file(out1);
  ASSERT_FALSE(bytes1.empty());
  EXPECT_EQ(bytes1, read_file(out2));
  EXPECT_FALSE(has_temp_files(cache));
  EXPECT_EQ(trace_file_count(cache), 1u);

  // A third, warm process must reproduce the same bytes from the store.
  const std::string out3 = (dir.path / "out3.json").string();
  ASSERT_EQ(std::system((base + " > '" + out3 + "'").c_str()), 0);
  EXPECT_EQ(bytes1, read_file(out3));
}
#endif

// ----- environment configuration -------------------------------------------

/// Sets (or clears, when value is null) one env var; restores on destruction.
struct ScopedEnv {
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) {
      had_ = true;
      saved_ = old;
    }
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_) {
      ::setenv(name_, saved_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  const char* name_;
  std::string saved_;
  bool had_ = false;
};

TEST(TraceStore, FromEnvHonoursDirectoryAndBudget) {
  TempDir dir("env");
  {
    ScopedEnv unset("FIBERSIM_TRACE_CACHE", nullptr);
    EXPECT_EQ(trace::TraceStore::from_env(), nullptr);
  }
  {
    ScopedEnv empty("FIBERSIM_TRACE_CACHE", "");
    EXPECT_EQ(trace::TraceStore::from_env(), nullptr);
  }
  ScopedEnv cache("FIBERSIM_TRACE_CACHE", dir.str().c_str());
  {
    ScopedEnv mb("FIBERSIM_TRACE_CACHE_MAX_MB", "64");
    const auto store = trace::TraceStore::from_env();
    ASSERT_NE(store, nullptr);
    EXPECT_EQ(store->dir(), dir.str());
    EXPECT_EQ(store->max_bytes(), 64ull << 20);
  }
  {
    // 0 is a real value: eviction disabled, not "fall back to default".
    ScopedEnv mb("FIBERSIM_TRACE_CACHE_MAX_MB", "0");
    EXPECT_EQ(trace::TraceStore::from_env()->max_bytes(), 0u);
  }
  {
    ScopedEnv mb("FIBERSIM_TRACE_CACHE_MAX_MB", nullptr);
    EXPECT_EQ(trace::TraceStore::from_env()->max_bytes(),
              trace::TraceStore::kDefaultMaxBytes);
  }
}

TEST(TraceStore, FromEnvFallsBackOnMalformedBudgets) {
  TempDir dir("envbad");
  ScopedEnv cache("FIBERSIM_TRACE_CACHE", dir.str().c_str());
  // A negative value must not wrap through strtoull into a ~2^64-byte
  // budget that silently disables eviction; garbage and overflow must not
  // half-apply. All of them land on the default, with a warning logged.
  for (const char* bad : {"-1", "garbage", "12x", "1.5", "", "0x40",
                          "18446744073709551616", "99999999999999999999"}) {
    ScopedEnv mb("FIBERSIM_TRACE_CACHE_MAX_MB", bad);
    const auto store = trace::TraceStore::from_env();
    ASSERT_NE(store, nullptr) << "MAX_MB='" << bad << "'";
    EXPECT_EQ(store->max_bytes(), trace::TraceStore::kDefaultMaxBytes)
        << "MAX_MB='" << bad << "'";
  }
  // The largest MiB count whose byte budget still fits in 64 bits is
  // honoured exactly; one past it would overflow the shift and falls back.
  {
    ScopedEnv mb("FIBERSIM_TRACE_CACHE_MAX_MB", "17592186044415");
    EXPECT_EQ(trace::TraceStore::from_env()->max_bytes(),
              17592186044415ull << 20);
  }
  {
    ScopedEnv mb("FIBERSIM_TRACE_CACHE_MAX_MB", "17592186044416");
    EXPECT_EQ(trace::TraceStore::from_env()->max_bytes(),
              trace::TraceStore::kDefaultMaxBytes);
  }
}

}  // namespace
}  // namespace fibersim
