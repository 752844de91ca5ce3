// fsbench — the fibersim benchmark driver. One process runs one workload:
//
//   fsbench --workload <sweep_cold|scale_warm|tune_suite|serve_mix>
//           --seed <n> --seconds <s> --trace <0|1>
//
// Every input is generated from --seed: the miniapp seed of every experiment
// and the serve request stream. The last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
// are the end-to-end metrics, with --trace 1 (only in the fsbench_traced
// build) the per-layer metrics. README.md in this directory explains why
// each workload exists and which layer it isolates.
//
// Correctness: every batch pass must render bytes identical to a reference
// rendered at jobs 1 during set-up (the jobs-invariance contract) and every
// result must be verified; every serve payload must equal trace::to_json of
// Runner::run on the same config, checked after the timed window. Any
// mismatch makes the process exit non-zero.
#include <sys/prctl.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <semaphore>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/parse_num.hpp"
#include "common/report_emit.hpp"
#include "common/rng.hpp"
#include "common/string_util.hpp"
#include "common/timer.hpp"
#include "core/experiment_registry.hpp"
#include "core/reports.hpp"
#include "core/runner.hpp"
#include "core/serve.hpp"
#include "core/serve_codec.hpp"
#include "core/sweep.hpp"
#include "core/tuner.hpp"
#include "layers.hpp"
#include "topo/binding.hpp"
#include "topo/topology.hpp"
#include "trace/serialize.hpp"
#include "trace/trace_store.hpp"

namespace {

using namespace fibersim;
namespace fs = std::filesystem;
namespace layers = fsbench::layers;
using Clock = std::chrono::steady_clock;

/// Sweep jobs of the timed batch passes (the reference host has 4 cores).
constexpr int kJobs = 4;
/// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 3;
/// The serve phase: 2 workers and one generator; the open-loop phases use
/// one connection (fewer threads contending for the 4 cores).
constexpr int kServeWorkers = 2;
constexpr int kConnections = 1;
/// The serve_mix pass keeps kPassWindow requests outstanding over
/// kPassConnections connections, so both workers stay busy and the pass
/// times the server's work rather than thread wake-ups.
constexpr int kPassConnections = 2;
constexpr int kPassWindow = 16;
constexpr int kServeQueueCapacity = 4096;
/// Open-loop rates (req/s), fixed at 25/50/75% of the max_rps (about 22000
/// req/s) the parent commit of this benchmark measured on the reference host.
constexpr double kRateLow = 5500.0;
constexpr double kRateMid = 11000.0;
constexpr double kRateHigh = 16500.0;
/// max_rps: highest rate of the ladder kLadderBase * kLadderStep^k whose
/// p99 stays within kLatencyLimitMs with no growing backlog and no failure.
/// Each climb starts at the rung nearest kLadderStart.
constexpr double kLatencyLimitMs = 2.0;
constexpr double kLadderBase = 100.0;
constexpr double kLadderStep = 1.05;
constexpr double kLadderStart = 16000.0;
/// Latency quantiles are taken per window of consecutive requests (p99 of
/// 1000 keeps ten samples beyond it); see Phase::p for how windows combine.
constexpr std::size_t kLatencyWindow = 1000;
constexpr std::size_t kPhaseRamp = 500;
constexpr int kRatePhaseRequests = 3500;
constexpr int kServeRounds = 3;
constexpr int kLadderStepRequests = 3500;
constexpr int kClimbs = 3;
constexpr int kServePassRequests = 5000;
/// Requests answered during set-up so the memo caches start warm.
constexpr int kServeWarmRequests = 4000;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "fsbench: " << problem
            << "\nusage: fsbench --workload "
               "<sweep_cold|scale_warm|tune_suite|serve_mix> --seed <n> "
               "--seconds <s> --trace <0|1>\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      const std::optional<std::uint64_t> v = parse_u64(value);
      if (!v) usage("--seed: expected an unsigned integer, got '" + value + "'");
      args.seed = *v;
    } else if (flag == "--seconds") {
      const std::optional<int> v = parse_i32(value);
      if (!v || *v < 1) usage("--seconds: expected an integer >= 1");
      args.seconds = *v;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace: expected 0 or 1");
      args.trace = value == "1";
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  return args;
}

// ---- small helpers ---------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile (q in [0, 1]).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/// Peak resident set of this process (VmHWM), in MiB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

fs::path fresh_dir(const fs::path& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir);
  return dir;
}

std::uint64_t hash_bytes(const std::string& s) { return Fnv1a().str(s).value(); }

/// Everything one run reports.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::tuple<std::string, double, std::string>> metrics;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.emplace_back(name, value, unit);
  }
  /// A wrong output: counted, reported, and the run fails.
  void mismatch(const std::string& what) {
    std::cerr << "fsbench: MISMATCH: " << what << "\n";
    correct = false;
    ++failed;
  }
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

void print_outcome(const Args& args, const Outcome& out) {
  std::cout << "fsbench workload=" << args.workload << " seed=" << args.seed
            << " trace=" << (args.trace ? 1 : 0) << " correct="
            << (out.correct ? "true" : "false") << " attempted="
            << out.attempted << " failed=" << out.failed << "\n";
  for (const auto& [name, value, unit] : out.metrics) {
    std::cout << strfmt("  %-28s %16.6f %s\n", name.c_str(), value,
                        unit.c_str());
  }
  std::string line = "{\"correct\":" + std::string(out.correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(out.attempted) +
                     ",\"failed\":" + std::to_string(out.failed) +
                     ",\"metrics\":{";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const auto& [name, value, unit] = out.metrics[i];
    line += (i ? "," : "") + std::string("\"") + name + "\":{\"value\":" +
            json_number(value) + ",\"unit\":\"" + unit + "\"}";
  }
  line += "}}";
  std::cout << line << std::endl;
}

// ---- batch workloads -------------------------------------------------------

/// What one pass of a batch workload produced.
struct PassResult {
  std::string bytes;
  double seconds = 0.0;
  bool verified = true;
  // Cache-tier counters of the pass's Runners (summed).
  std::size_t native_runs = 0;
  std::size_t disk_hits = 0;
  std::size_t codegen_lookups = 0, codegen_evals = 0;
  std::size_t exec_lookups = 0, exec_evals = 0;
  std::size_t store_evictions = 0;
  // Tuner-level counters (tune_suite only).
  std::size_t tune_evaluations = 0, tune_deduped = 0;
};

void add_runner_counters(const core::Runner& runner, PassResult* out) {
  out->native_runs += runner.native_runs();
  out->disk_hits += runner.disk_hits();
  out->codegen_lookups += runner.codegen_lookups();
  out->codegen_evals += runner.codegen_evals();
  out->exec_lookups += runner.exec_lookups();
  out->exec_evals += runner.exec_evals();
  if (runner.trace_store()) {
    out->store_evictions += runner.trace_store()->evictions();
  }
}

std::shared_ptr<trace::TraceStore> open_store(const fs::path& dir) {
  return std::make_shared<trace::TraceStore>(dir.string());
}

/// Every stored execution of `keys` must load and be verified.
bool stored_verified(const fs::path& store_dir,
                     const std::vector<trace::StoreKey>& keys) {
  trace::TraceStore store(store_dir.string());
  for (const trace::StoreKey& key : keys) {
    const std::optional<trace::StoredExecution> exec = store.load(key);
    if (!exec || !exec->verified) return false;
  }
  return true;
}

trace::StoreKey store_key(const std::string& app, apps::Dataset dataset,
                          int ranks, int threads, int iterations,
                          int weak_scale, bool collapse, std::uint64_t seed) {
  trace::StoreKey key;
  key.app = app;
  key.dataset = static_cast<int>(dataset);
  key.ranks = ranks;
  key.threads = threads;
  key.iterations = iterations;
  key.weak_scale = weak_scale;
  key.collapse = collapse ? 1 : 0;
  key.seed = seed;
  return key;
}

/// The timed window of one pass. In a traced pass the layer wrappers record
/// only inside it, so set-up and correctness checks stay out of the spans.
class Window {
 public:
  explicit Window(bool traced) : traced_(traced) {
    if (traced_) layers::enable(true);
    timer_.reset();
  }
  double stop() {
    const double seconds = timer_.elapsed();
    if (traced_) layers::enable(false);
    return seconds;
  }

 private:
  bool traced_;
  WallTimer timer_;
};

/// Regenerate registry experiments through one fresh Runner.
PassResult registry_pass(const std::vector<std::string>& ids,
                         const fs::path& store_dir, int jobs,
                         std::uint64_t app_seed, bool traced) {
  core::Runner runner;
  runner.set_trace_store(open_store(store_dir));
  core::ReportContext ctx;
  ctx.runner = &runner;
  ctx.dataset = apps::Dataset::kLarge;
  ctx.seed = app_seed;
  ctx.jobs = jobs;
  std::ostringstream out;
  PassResult result;
  Window window(traced);
  for (const std::string& id : ids) {
    emit_report(core::ExperimentRegistry::instance().build(id, ctx),
                EmitOptions{}, out);
  }
  result.seconds = window.stop();
  result.bytes = out.str();
  add_runner_counters(runner, &result);
  return result;
}

/// One batch workload: a fixed piece of work that renders bytes, run with
/// fresh Runners on a trace store under `work`.
class BatchWorkload {
 public:
  virtual ~BatchWorkload() = default;
  /// One set-up: whatever the timed passes need, plus the jobs-1 reference.
  /// Returns the reference bytes.
  virtual std::string setup(const fs::path& work) = 0;
  /// One pass of the fixed work at `jobs`; `traced` records layer spans.
  virtual PassResult pass(const fs::path& work, int jobs, bool traced) = 0;
};

/// T2, F2 and F3 for the whole suite on the large dataset, every execution
/// native: each pass starts from an empty trace store.
class SweepCold : public BatchWorkload {
 public:
  explicit SweepCold(std::uint64_t app_seed) : seed_(app_seed) {}

  std::string setup(const fs::path& work) override {
    PassResult ref = pass(work, 1, false);
    if (!ref.verified) throw Error("sweep_cold reference is not verified");
    return ref.bytes;
  }

  PassResult pass(const fs::path& work, int jobs, bool traced) override {
    const fs::path store = fresh_dir(work / "store-cold");
    PassResult result =
        registry_pass({"T2", "F2", "F3"}, store, jobs, seed_, traced);
    // T2 spans every MPI x OMP split of every app; F2 (4x12) and F3 (8x6)
    // reuse executions from that set.
    std::vector<trace::StoreKey> keys;
    for (const std::string& app : core::ReportContext{}.apps_or_default()) {
      for (const auto& [ranks, threads] : core::mpi_omp_combinations(48)) {
        keys.push_back(store_key(app, apps::Dataset::kLarge, ranks, threads,
                                 3, 1, false, seed_));
      }
    }
    result.verified = stored_verified(store, keys);
    return result;
  }

 private:
  std::uint64_t seed_;
};

/// E1X and E2X (collapsed, to 16384 and 102400 ranks) replayed from a trace
/// store filled during set-up.
class ScaleWarm : public BatchWorkload {
 public:
  explicit ScaleWarm(std::uint64_t app_seed) : seed_(app_seed) {}

  std::string setup(const fs::path& work) override {
    // The jobs-1 reference pass on an empty store is also what fills it.
    PassResult ref =
        registry_pass({"E1X", "E2X"}, fresh_dir(store(work)), 1, seed_, false);
    if (!stored_verified(store(work), keys())) {
      throw Error("scale_warm reference is not verified");
    }
    return ref.bytes;
  }

  PassResult pass(const fs::path& work, int jobs, bool traced) override {
    PassResult result =
        registry_pass({"E1X", "E2X"}, store(work), jobs, seed_, traced);
    // Nothing executes natively here, so the stored flags are the results'.
    result.verified = result.native_runs == 0;
    return result;
  }

 private:
  static fs::path store(const fs::path& work) { return work / "store-scale"; }

  /// The executions E1X and E2X need: 4 ranks x 12 threads per node.
  std::vector<trace::StoreKey> keys() const {
    std::vector<trace::StoreKey> keys;
    for (const int nodes : {1, 16, 256, 4096}) {
      keys.push_back(store_key("ffvc", apps::Dataset::kLarge, 4 * nodes, 12,
                               3, 1, true, seed_));
    }
    for (const char* app : {"ffvc", "mvmc", "ngsa"}) {
      for (const int nodes : {1, 16, 256, 4096, 25600}) {
        keys.push_back(store_key(app, apps::Dataset::kLarge, 4 * nodes, 12, 3,
                                 nodes, true, seed_));
      }
    }
    return keys;
  }

  std::uint64_t seed_;
};

/// core::Tuner with the CLI defaults over the full space, once per app,
/// each with a fresh Runner on a trace store filled during set-up.
class TuneSuite : public BatchWorkload {
 public:
  explicit TuneSuite(std::uint64_t app_seed) : seed_(app_seed) {}

  std::string setup(const fs::path& work) override {
    fresh_dir(store(work));
    PassResult ref = pass(work, 1, false);
    if (!ref.verified) throw Error("tune_suite reference is not verified");
    return ref.bytes;
  }

  PassResult pass(const fs::path& work, int jobs, bool traced) override {
    return run(work, jobs, false, traced);
  }

  /// Memoized exhaustive search over the same space (the honest baseline).
  PassResult exhaustive(const fs::path& work, int jobs) {
    return run(work, jobs, true, false);
  }

 private:
  static fs::path store(const fs::path& work) { return work / "store-tune"; }

  PassResult run(const fs::path& work, int jobs, bool unbounded, bool traced) {
    const std::shared_ptr<trace::TraceStore> shared = open_store(store(work));
    struct App {
      std::unique_ptr<core::Runner> runner;
      core::TunerOptions opts;
      core::TuneOutcome outcome;
    };
    std::vector<App> done;
    std::ostringstream out;
    PassResult result;
    Window window(traced);
    for (const std::string& app : core::ReportContext{}.apps_or_default()) {
      App a{std::make_unique<core::Runner>(), {}, {}};
      a.runner->set_trace_store(shared);
      a.opts.app = app;
      a.opts.seed = seed_;
      a.opts.jobs = jobs;
      a.opts.unbounded = unbounded;
      a.outcome = core::Tuner(*a.runner, a.opts).run();
      emit_report(core::tune_artifact(a.outcome, a.opts), EmitOptions{}, out);
      done.push_back(std::move(a));
    }
    result.seconds = window.stop();
    result.bytes = out.str();
    // Outside the timed window: every app's recommended config must be a
    // verified result.
    for (App& a : done) {
      result.tune_evaluations += a.outcome.evaluations;
      result.tune_deduped += a.outcome.deduped;
      add_runner_counters(*a.runner, &result);
      const core::Tuner tuner(*a.runner, a.opts);
      const core::TuneBudget target{a.opts.dataset, a.opts.iterations};
      if (!a.runner->run(tuner.make_config(a.outcome.best.candidate, target))
               .verified) {
        result.verified = false;
      }
    }
    return result;
  }

  std::uint64_t seed_;
};

// ---- serve phase -------------------------------------------------------------

/// What one batch of requests observed, per request.
struct Phase {
  std::vector<double> latency_ms;  ///< from the scheduled send time
  std::vector<double> lag_ms;      ///< actual send - scheduled send
  std::vector<double> server_us;   ///< the response's latency_us
  std::vector<double> wait_us;     ///< client latency from send - server_us
  std::vector<int> ok;             ///< 1: ok, verified, payload recorded
  std::vector<std::uint64_t> payload_hash;
  std::size_t failures = 0;
  double seconds = 0.0;  ///< first scheduled send to last response
  bool backlog_grows = false;

  /// The q-quantile of each window of kLatencyWindow requests, combined
  /// over windows by their `over`-quantile: the median (0.5) for the ladder,
  /// the lower quartile (0.25) for the reported latencies. On the shared
  /// virtual machine this was tuned on, bursts of stolen CPU time spoil a
  /// varying share of windows; the quietest quarter still shows latencies
  /// the program itself sets.
  double p(double q, double over = 0.5) const {
    std::vector<double> per_window;
    for (std::size_t begin = 0; begin + kLatencyWindow <= latency_ms.size();
         begin += kLatencyWindow) {
      per_window.push_back(quantile(
          std::vector<double>(latency_ms.begin() + begin,
                              latency_ms.begin() + begin + kLatencyWindow),
          q));
    }
    if (per_window.empty()) return quantile(latency_ms, q);
    return over == 0.5 ? median(per_window) : quantile(per_window, over);
  }
  double throughput() const {
    return seconds > 0.0 ? static_cast<double>(latency_ms.size()) / seconds
                         : 0.0;
  }
};

/// Fields of one response line that the driver checks.
void parse_response(const std::string& line, Phase* phase, std::size_t* index,
                    bool* ok) {
  *ok = false;
  const std::size_t id = line.find("\"id\":\"r");
  if (id == std::string::npos) return;
  *index = std::strtoull(line.c_str() + id + 7, nullptr, 10);
  if (*index >= phase->ok.size()) return;
  if (line.rfind("{\"ok\":true", 0) != 0 ||
      line.find("\"verified\":true") == std::string::npos) {
    return;
  }
  const std::size_t lat = line.find("\"latency_us\":");
  const std::string marker = "\"payload\":";
  const std::size_t pos = line.find(marker);
  if (lat == std::string::npos || pos == std::string::npos ||
      line.back() != '}') {
    return;
  }
  phase->server_us[*index] = std::strtod(line.c_str() + lat + 13, nullptr);
  phase->payload_hash[*index] = hash_bytes(
      line.substr(pos + marker.size(), line.size() - pos - marker.size() - 1));
  *ok = true;
}

/// Send `requests` over `connections` connections from one generator
/// thread while one reader thread per connection takes the responses. Open
/// loop (rate > 0): request i goes out at its seeded Poisson arrival time
/// whatever the backlog, and latency runs from that scheduled time. Windowed
/// (rate == 0): request i goes out as soon as fewer than `window` requests
/// are outstanding, and latency runs from its send.
Phase run_phase(const std::string& socket, const std::vector<std::string>& requests,
                double rate, std::uint64_t arrival_seed, int connections,
                int window = 1) {
  const std::size_t n = requests.size();
  Phase phase;
  phase.latency_ms.assign(n, 0.0);
  phase.lag_ms.assign(n, 0.0);
  phase.server_us.assign(n, 0.0);
  phase.wait_us.assign(n, 0.0);
  phase.ok.assign(n, 0);
  phase.payload_hash.assign(n, 0);
  std::vector<Clock::time_point> scheduled(n), sent(n), received(n);
  std::vector<int> answered(n, 0);
  const bool windowed = rate <= 0.0;
  // Each response frees a slot; a reader that ends frees them all, so the
  // generator never waits on a broken connection.
  std::counting_semaphore<> slots(windowed ? window : 0);

  std::vector<std::unique_ptr<core::ServeClient>> clients;
  for (int c = 0; c < connections; ++c) {
    clients.push_back(std::make_unique<core::ServeClient>(socket));
  }
  auto line_of = [&](std::size_t i) {
    return "{\"verb\":\"predict\",\"id\":\"r" + std::to_string(i) + "\"," +
           requests[i] + "}";
  };
  auto record = [&](const std::string& line) {
    std::size_t i = n;  // stays out of range if the line carries no id
    bool ok = false;
    parse_response(line, &phase, &i, &ok);
    if (i < n && !answered[i]) {
      answered[i] = 1;
      received[i] = Clock::now();
      phase.ok[i] = ok ? 1 : 0;
    }
    if (windowed) slots.release();
  };

  // Open loop: the schedule starts a little ahead so the first arrival is
  // not already late. Windowed: the pass starts now.
  const Clock::time_point start =
      Clock::now() + (windowed ? std::chrono::milliseconds(0)
                               : std::chrono::milliseconds(5));
  if (!windowed) {
    Xoshiro256 arrivals(arrival_seed);
    double t = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      t += -std::log(1.0 - arrivals.uniform()) / rate;
      scheduled[i] = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(t));
    }
  }
  // Reader threads only read (buffer + fd recv); the generator only writes
  // (fd send): the two sides of a ServeClient share no state. A broken
  // connection ends its side early; what never got an answer counts as
  // failed below.
  std::vector<std::thread> readers;
  for (int c = 0; c < connections; ++c) {
    readers.emplace_back([&, c] {
      try {
        while (const std::optional<std::string> line =
                   clients[c]->read_line()) {
          record(*line);
        }
      } catch (const std::exception&) {
      }
      if (windowed) slots.release(static_cast<std::ptrdiff_t>(n));
    });
  }
  try {
    for (std::size_t i = 0; i < n; ++i) {
      if (windowed) {
        slots.acquire();
        scheduled[i] = Clock::now();
      } else {
        std::this_thread::sleep_until(scheduled[i]);
      }
      sent[i] = Clock::now();
      clients[i % static_cast<std::size_t>(connections)]->send_line(
          line_of(i));
    }
  } catch (const std::exception&) {
  }
  for (auto& client : clients) client->shutdown_write();
  for (std::thread& reader : readers) reader.join();

  Clock::time_point last = start;
  for (std::size_t i = 0; i < n; ++i) {
    if (!answered[i] || !phase.ok[i]) {
      ++phase.failures;
      phase.latency_ms[i] = 1e9;  // a failure misses every latency limit
      continue;
    }
    last = std::max(last, received[i]);
    phase.latency_ms[i] =
        std::chrono::duration<double, std::milli>(received[i] - scheduled[i])
            .count();
    phase.lag_ms[i] =
        std::chrono::duration<double, std::milli>(sent[i] - scheduled[i])
            .count();
    phase.wait_us[i] =
        std::chrono::duration<double, std::micro>(received[i] - sent[i])
            .count() -
        phase.server_us[i];
  }
  // An open-loop phase starts with a ramp of kPhaseRamp requests that are
  // checked but not timed: the first milliseconds after an idle gap are
  // the ones a host stall most often lands in.
  const std::size_t ramp = !windowed && n > 2 * kPhaseRamp ? kPhaseRamp : 0;
  for (std::vector<double>* v :
       {&phase.latency_ms, &phase.lag_ms, &phase.server_us, &phase.wait_us}) {
    v->erase(v->begin(), v->begin() + static_cast<std::ptrdiff_t>(ramp));
  }
  const Clock::time_point first = windowed ? start : scheduled[ramp];
  phase.seconds = std::chrono::duration<double>(last - first).count();
  // A backlog that grows makes late requests wait much longer than early
  // ones; compare the first and last quarters of the send order.
  const std::size_t m = phase.latency_ms.size();
  if (m >= 8) {
    double head = 0.0, tail = 0.0;
    const std::size_t q = m / 4;
    for (std::size_t i = 0; i < q; ++i) {
      head += phase.latency_ms[i];
      tail += phase.latency_ms[m - 1 - i];
    }
    head /= static_cast<double>(q);
    tail /= static_cast<double>(q);
    phase.backlog_grows = tail > 2.0 * head + 0.5;
  }
  return phase;
}

/// The serve fixture: an in-process Server (2 workers) whose every
/// execution key was warmed during set-up, plus a reference Runner for the
/// payload check.
class ServeFixture {
 public:
  ServeFixture(const fs::path& work, std::uint64_t stream_seed,
               std::uint64_t app_seed)
      : work_(work), stream_seed_(stream_seed), app_seed_(app_seed) {}

  ~ServeFixture() { stop(); }

  ServeFixture(const ServeFixture&) = delete;
  ServeFixture& operator=(const ServeFixture&) = delete;

  /// Fill the store natively through the reference Runner, start the
  /// server on it and warm every execution key into the server's memo.
  void setup() {
    stop();
    const fs::path store = fresh_dir(work_ / "store-serve");
    reference_ = std::make_unique<core::Runner>();
    reference_->set_trace_store(open_store(store));
    build_choices();
    for (const std::string& app : apps_) {
      for (const auto& [ranks, threads] : splits_) {
        core::ExperimentConfig cfg;
        cfg.app = app;
        cfg.ranks = ranks;
        cfg.threads = threads;
        cfg.seed = app_seed_;
        if (!reference_->run(cfg).verified) {
          throw Error("serve reference run is not verified: " + cfg.label());
        }
      }
    }
    // Relative path: a Unix socket path must stay under 108 bytes.
    socket_ = (fs::relative(work_) / "serve.sock").string();
    core::ServeOptions opts;
    opts.socket_path = socket_;
    opts.workers = kServeWorkers;
    // Deep enough that a host stall at the fixed rates queues requests
    // (latency) instead of shedding them (BUSY); the ladder still finds
    // saturation through the p99 limit and the backlog test.
    opts.queue_capacity = kServeQueueCapacity;
    opts.trace_cache_dir = store.string();
    server_ = std::make_unique<core::Server>(std::move(opts));
    server_->start();
    core::ServeClient client(socket_);
    for (const std::string& app : apps_) {
      for (const auto& [ranks, threads] : splits_) {
        const std::string response = client.request(strfmt(
            "{\"verb\":\"predict\",\"app\":\"%s\",\"dataset\":\"small\","
            "\"ranks\":%d,\"threads\":%d,\"seed\":%llu}",
            app.c_str(), ranks, threads,
            static_cast<unsigned long long>(app_seed_)));
        if (response.rfind("{\"ok\":true", 0) != 0) {
          throw Error("serve warm-up failed: " + response);
        }
      }
    }
    // The mix keeps drawing (preset, processor) pairs the memo caches have
    // not seen; answer one stream first so the phases measure steady state.
    const Phase warm = run_phase(socket_, stream(0, kServeWarmRequests), 0.0,
                                 0, kPassConnections, kPassWindow);
    if (warm.failures != 0) {
      throw Error(strfmt("serve warm-up: %zu requests failed", warm.failures));
    }
  }

  void stop() {
    if (server_) {
      server_->stop();
      server_->wait();
      server_.reset();
    }
  }

  core::Server& server() { return *server_; }
  const std::string& socket() const { return socket_; }

  /// `n` predict requests of sub-stream `stream` (each phase draws its own),
  /// as the request fields without "verb" and "id".
  std::vector<std::string> stream(std::uint64_t stream, int n) const {
    Xoshiro256 rng(stream_seed_, stream);
    std::vector<std::string> out;
    out.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      const std::string& app = apps_[rng.bounded(apps_.size())];
      const Placement& p = placements_[rng.bounded(placements_.size())];
      const char* compile = kPresets[rng.bounded(std::size(kPresets))];
      out.push_back(strfmt(
          "\"app\":\"%s\",\"dataset\":\"small\",\"ranks\":%d,\"threads\":%d,"
          "\"bind\":\"%s\",\"alloc\":\"%s\",\"compile\":\"%s\","
          "\"processor\":\"%s\",\"seed\":%llu",
          app.c_str(), p.ranks, p.threads, p.bind.c_str(), p.alloc.c_str(),
          compile, p.processor.c_str(),
          static_cast<unsigned long long>(app_seed_)));
    }
    return out;
  }

  /// Hash of trace::to_json(Runner::run(config)) for the request's config.
  std::uint64_t expected_hash(const std::string& fields) {
    {
      std::lock_guard<std::mutex> lock(expected_mutex_);
      const auto it = expected_.find(fields);
      if (it != expected_.end()) return it->second;
    }
    core::ServeRequest parsed;
    const std::string problem = core::parse_serve_request(
        "{\"verb\":\"predict\"," + fields + "}", parsed);
    if (!problem.empty()) throw Error("bad benchmark request: " + problem);
    const std::uint64_t h =
        hash_bytes(trace::to_json(reference_->run(parsed.config).prediction));
    std::lock_guard<std::mutex> lock(expected_mutex_);
    expected_[fields] = h;
    return h;
  }

 private:
  static constexpr const char* kPresets[] = {"as-is", "simd", "simd+",
                                             "simd+swp", "nosimd"};

  struct Placement {
    int ranks, threads;
    std::string bind, alloc, processor;
  };

  /// The mix: every app x a few 16-core MPI x OMP splits, crossed with the
  /// binds, allocations and processors on which that placement is valid.
  void build_choices() {
    apps_ = core::ReportContext{}.apps_or_default();
    splits_ = {{16, 1}, {8, 2}, {4, 4}, {2, 8}};
    placements_.clear();
    for (const auto& [ranks, threads] : splits_) {
      for (const char* bind : {"compact", "stride-2", "scatter"}) {
        for (const char* alloc : {"block", "cyclic", "scatter"}) {
          for (const char* proc : {"a64fx", "a64fx-boost", "a64fx-eco",
                                   "skylake", "thunderx2", "broadwell"}) {
            core::ServeRequest req;
            const std::string line = strfmt(
                "{\"verb\":\"predict\",\"ranks\":%d,\"threads\":%d,"
                "\"bind\":\"%s\",\"alloc\":\"%s\",\"processor\":\"%s\"}",
                ranks, threads, bind, alloc, proc);
            if (!core::parse_serve_request(line, req).empty()) continue;
            try {
              req.config.validate();
              const topo::Topology topology(req.config.processor.shape,
                                            req.config.nodes);
              topo::Binding::make(topology, ranks, threads, req.config.alloc,
                                  req.config.bind);
            } catch (const Error&) {
              continue;
            }
            placements_.push_back({ranks, threads, bind, alloc, proc});
          }
        }
      }
    }
  }

  fs::path work_;
  std::uint64_t stream_seed_;
  std::uint64_t app_seed_;
  std::vector<std::string> apps_;
  std::vector<std::pair<int, int>> splits_;
  std::vector<Placement> placements_;
  std::unique_ptr<core::Runner> reference_;
  std::string socket_;
  std::unique_ptr<core::Server> server_;
  std::mutex expected_mutex_;
  std::map<std::string, std::uint64_t> expected_;  // guarded by the mutex
};

/// Check every payload of `phase` against the reference (outside any timed
/// window); returns the number of mismatches.
std::size_t check_payloads(ServeFixture& fixture,
                           const std::vector<std::string>& requests,
                           const Phase& phase) {
  std::vector<std::size_t> todo;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (phase.ok[i]) todo.push_back(i);
  }
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> bad{0};
  std::vector<std::thread> checkers;
  for (int t = 0; t < kJobs; ++t) {
    checkers.emplace_back([&] {
      for (std::size_t k = next++; k < todo.size(); k = next++) {
        const std::size_t i = todo[k];
        try {
          if (fixture.expected_hash(requests[i]) != phase.payload_hash[i]) {
            ++bad;
          }
        } catch (const std::exception& e) {
          std::cerr << "fsbench: reference run failed: " << e.what() << "\n";
          ++bad;
        }
      }
    });
  }
  for (std::thread& t : checkers) t.join();
  return bad.load();
}

struct ServeResults {
  Phase low, mid, high;  ///< pooled over rounds
  double max_rps = 0.0;
};

bool within_limit(const Phase& phase) {
  return phase.failures == 0 && !phase.backlog_grows &&
         phase.p(0.99) <= kLatencyLimitMs;
}

/// Highest passing rung of one climb up the ladder, starting at the rung
/// nearest kLadderStart (walking down instead if that rung fails). A step
/// that fails is tried once more with fresh requests, so a single scheduling
/// stall of the host does not end the climb. Returns the throughput achieved
/// at the highest passing rung.
double climb(ServeFixture& fixture, std::uint64_t stream_base) {
  auto rung = [](int i) { return kLadderBase * std::pow(kLadderStep, i); };
  int steps = 0;
  auto step = [&](int i) {
    Phase phase;
    for (std::uint64_t attempt = 0; attempt < 2; ++attempt) {
      ++steps;
      const std::uint64_t id =
          stream_base + 2 * static_cast<std::uint64_t>(i) + attempt;
      phase = run_phase(fixture.socket(),
                        fixture.stream(id, kLadderStepRequests), rung(i), id,
                        kConnections);
      const bool pass = within_limit(phase);
      std::cerr << strfmt(
          "fsbench: ladder %.0f req/s: p99 %.3f ms, %zu failed, backlog %s "
          "-> %s\n",
          rung(i), phase.p(0.99), phase.failures,
          phase.backlog_grows ? "grows" : "steady", pass ? "pass" : "fail");
      if (pass) break;
    }
    return phase;
  };
  int k = static_cast<int>(
      std::lround(std::log(kLadderStart / kLadderBase) / std::log(kLadderStep)));
  Phase at = step(k);
  if (!within_limit(at)) {
    while (k > 0 && !within_limit(at)) at = step(--k);
    return at.throughput();
  }
  for (;;) {
    Phase up = step(k + 1);
    if (!within_limit(up) || steps >= 40) return at.throughput();
    ++k;
    at = std::move(up);
  }
}

/// Pool `more` after `into` (windows stay whole: every phase times a
/// multiple of kLatencyWindow requests).
void append(Phase* into, const Phase& more) {
  for (auto [to, from] : {std::pair{&into->latency_ms, &more.latency_ms},
                          std::pair{&into->lag_ms, &more.lag_ms},
                          std::pair{&into->server_us, &more.server_us},
                          std::pair{&into->wait_us, &more.wait_us}}) {
    to->insert(to->end(), from->begin(), from->end());
  }
  into->failures += more.failures;
}

/// kServeRounds rounds of the three fixed rates (so a slow stretch of the
/// host lands in a minority of windows), then kClimbs ladder climbs for
/// max_rps (their median). Fixed-rate requests count as attempted; ladder
/// steps probe past saturation on purpose and are not.
ServeResults serve_phase(ServeFixture& fixture, Outcome* out) {
  ServeResults r;
  std::uint64_t stream = 1;
  for (int round = 0; round < kServeRounds; ++round) {
    for (auto [rate, pooled] : {std::pair{kRateLow, &r.low},
                                std::pair{kRateMid, &r.mid},
                                std::pair{kRateHigh, &r.high}}) {
      const std::vector<std::string> requests =
          fixture.stream(stream, kRatePhaseRequests);
      const Phase phase =
          run_phase(fixture.socket(), requests, rate, stream, kConnections);
      ++stream;
      out->attempted += requests.size();
      out->failed += phase.failures;
      const std::size_t bad = check_payloads(fixture, requests, phase);
      if (bad != 0) out->mismatch(strfmt("%zu serve payloads differ", bad));
      append(pooled, phase);
    }
  }
  std::vector<double> climbs;
  for (int c = 0; c < kClimbs; ++c) {
    climbs.push_back(climb(fixture, 1000 + 1000 * static_cast<std::uint64_t>(c)));
  }
  r.max_rps = median(climbs);
  return r;
}

// ---- runs ------------------------------------------------------------------

std::unique_ptr<BatchWorkload> make_batch(const std::string& name,
                                          std::uint64_t app_seed) {
  if (name == "sweep_cold") return std::make_unique<SweepCold>(app_seed);
  if (name == "scale_warm") return std::make_unique<ScaleWarm>(app_seed);
  if (name == "tune_suite") return std::make_unique<TuneSuite>(app_seed);
  return nullptr;
}

/// Latency at the three fixed rates (per layer, from the traced serve_mix
/// run).
void report_latency(const ServeResults& s, double q, const char* name,
                    Outcome* out) {
  for (auto [tag, phase] : {std::pair{"low", &s.low}, std::pair{"mid", &s.mid},
                            std::pair{"high", &s.high}}) {
    out->metric(std::string(name) + "." + tag, phase->p(q, 0.25), "ms");
  }
}

/// Set-up and timed passes for `seconds`: the end-to-end metrics. The
/// open-loop serve phase is left to the traced serve_mix run (see README.md).
void run_untraced(const Args& args, const fs::path& work,
                  std::uint64_t app_seed, std::uint64_t stream_seed,
                  Outcome* out) {
  std::unique_ptr<BatchWorkload> batch = make_batch(args.workload, app_seed);
  ServeFixture fixture(work, stream_seed, app_seed);

  std::vector<double> setups;
  std::vector<double> passes;
  std::string reference;
  std::uint64_t pass_index = 0;
  double timed_s = 0.0;  // wall time of the pass loops so far
  // serve_mix follows each set-up with its share of the timed passes, so
  // pass_s pools passes over several servers: the passes of one server
  // agree closely, but its thread placement and heap layout can make all of
  // them faster or slower than the next server's. A batch pass starts from
  // a fresh Runner anyway, and batch set-ups between passes would fragment
  // the heap and scatter peak_rss_mb, so batch passes follow the last one.
  const int first_timed = batch ? kSetupReps - 1 : 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    WallTimer timer;
    if (batch) {
      std::string bytes = batch->setup(work);
      setups.push_back(timer.elapsed());
      if (rep > 0 && bytes != reference) {
        out->mismatch("set-up references differ between repetitions");
      }
      reference = std::move(bytes);
    } else {
      fixture.setup();
      setups.push_back(timer.elapsed());
    }

    // Passes until the loops so far fill this set-up's share of `seconds`;
    // a pass that overran one share shortens the next.
    if (rep < first_timed) continue;
    const double until_s =
        args.seconds * (rep + 1 - first_timed) / (kSetupReps - first_timed);
    WallTimer clock;
    for (int n = 0; n < 1 || timed_s + clock.elapsed() < until_s; ++n) {
      if (batch) {
        ++out->attempted;
        const PassResult pass = batch->pass(work, kJobs, false);
        passes.push_back(pass.seconds);
        if (!pass.verified) out->mismatch(args.workload + ": unverified result");
        if (pass.bytes != reference) {
          out->mismatch(args.workload + ": pass bytes differ from the jobs-1 "
                                        "reference");
        }
      } else {
        // serve_mix: a fixed request list, kPassWindow requests outstanding.
        const std::vector<std::string> requests =
            fixture.stream(500 + pass_index++ % 4, kServePassRequests);
        const Phase phase = run_phase(fixture.socket(), requests, 0.0, 0,
                                      kPassConnections, kPassWindow);
        passes.push_back(phase.seconds);
        out->attempted += requests.size();
        out->failed += phase.failures;
        const std::size_t bad = check_payloads(fixture, requests, phase);
        if (bad != 0) out->mismatch(strfmt("%zu serve payloads differ", bad));
      }
    }
    timed_s += clock.elapsed();
  }
  fixture.stop();

  out->metric("setup_s", median(setups), "s");
  out->metric("pass_s", median(passes), "s");
  out->metric("peak_rss_mb", peak_rss_mb(), "MiB");
  out->metric("ok_frac",
              out->attempted > 0
                  ? 1.0 - static_cast<double>(out->failed) /
                              static_cast<double>(out->attempted)
                  : 0.0,
              "ratio");
}

/// Per-layer metrics from one traced pass at jobs 1, beside untraced
/// passes of the same work for the overhead and the jobs efficiency.
void report_layers(const layers::Snapshot& s, double traced_s, Outcome* out) {
  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  auto n = [](std::uint64_t v) { return static_cast<double>(v); };
  out->metric("native.runs", n(s.native_runs), "count");
  out->metric("native.busy_s", s.native_s, "s");
  out->metric("native.run_p50_ms", median(s.native_run_ms), "ms");
  out->metric("native.os_threads", n(s.native_os_threads), "count");
  out->metric("canon.calls", n(s.canon_calls), "count");
  out->metric("canon.busy_s", s.canon_s, "s");
  out->metric("canon.class_ratio",
              ratio(n(s.canon_classes), n(s.canon_rank_phases)), "ratio");
  out->metric("collapse.classes", n(s.collapse_classes), "count");
  out->metric("collapse.native_ranks", n(s.collapse_native_ranks), "count");
  out->metric("collapse.assemble_s", s.collapse_s, "s");
  out->metric("store.publish_calls", n(s.store_publish_calls), "count");
  out->metric("store.publish_s", s.store_publish_s, "s");
  out->metric("store.bytes_written", n(s.store_bytes_written), "bytes");
  out->metric("store.load_calls", n(s.store_load_calls), "count");
  out->metric("store.load_s", s.store_load_s, "s");
  out->metric("store.hit_ratio",
              ratio(n(s.store_load_hits), n(s.store_load_calls)), "ratio");
  out->metric("predict.calls", n(s.predict_calls), "count");
  out->metric("predict.busy_s", s.predict_s, "s");
  out->metric("predict.p50_us", quantile(s.predict_us, 0.50), "us");
  out->metric("predict.p99_us", quantile(s.predict_us, 0.99), "us");
  out->metric("codegen.apply_s", s.codegen_s, "s");
  out->metric("exec.work_eval_s", s.exec_s, "s");
  out->metric("replay.thread_refs", n(s.replay_thread_refs), "count");
  out->metric("replay.busy_s", s.replay_s, "s");
  out->metric("torus.pairs_routed", n(s.torus_pairs_routed), "count");
  out->metric("torus.max_link_load", n(s.torus_max_link_load), "bytes");
  out->metric("contention.busy_s", s.contention_s, "s");
  out->metric("runner.tier_memo", n(s.tier_memo), "count");
  out->metric("runner.tier_disk", n(s.tier_disk), "count");
  out->metric("runner.tier_native", n(s.tier_native), "count");
  out->metric("sweep.tasks", n(s.runner_calls), "count");
  out->metric("sweep.retries", n(s.runner_retries), "count");
  out->metric("render.calls", n(s.render_calls), "count");
  out->metric("render.bytes", n(s.render_bytes), "bytes");
  out->metric("render.busy_s", s.render_s, "s");
  out->metric("payload.busy_s", s.payload_s, "s");
  out->metric("layers.coverage", ratio(s.top_level_s, traced_s), "ratio");
}

void report_memo(std::size_t codegen_lookups, std::size_t codegen_evals,
                 std::size_t exec_lookups, std::size_t exec_evals,
                 Outcome* out) {
  auto hit = [](std::size_t lookups, std::size_t evals) {
    return lookups > 0 ? 1.0 - static_cast<double>(evals) /
                                   static_cast<double>(lookups)
                       : 0.0;
  };
  out->metric("codegen.lookups", static_cast<double>(codegen_lookups), "count");
  out->metric("codegen.evals", static_cast<double>(codegen_evals), "count");
  out->metric("codegen.hit_ratio", hit(codegen_lookups, codegen_evals),
              "ratio");
  out->metric("exec.lookups", static_cast<double>(exec_lookups), "count");
  out->metric("exec.evals", static_cast<double>(exec_evals), "count");
  out->metric("exec.hit_ratio", hit(exec_lookups, exec_evals), "ratio");
}

struct ServeLayerStats {
  double server_p50_us = 0.0, server_p99_us = 0.0, queue_wait_p99_us = 0.0;
  double busy = 0.0, deadline = 0.0, tier_memo = 0.0, lag_p99_ms = 0.0;
};

void report_serve_layers(const ServeLayerStats& s, Outcome* out) {
  out->metric("serve.server_p50_us", s.server_p50_us, "us");
  out->metric("serve.server_p99_us", s.server_p99_us, "us");
  out->metric("serve.queue_wait_p99_us", s.queue_wait_p99_us, "us");
  out->metric("serve.busy", s.busy, "count");
  out->metric("serve.deadline", s.deadline, "count");
  out->metric("serve.tier_memo", s.tier_memo, "count");
  out->metric("loadgen.lag_p99_ms", s.lag_p99_ms, "ms");
}

struct TuneLayerStats {
  double evaluations = 0, deduped = 0, native_runs = 0, codegen_evals = 0,
         exec_evals = 0;
  double ex_native_runs = 0, ex_codegen_evals = 0, ex_exec_evals = 0,
         ex_pass_s = 0;
};

void report_tune_layers(const TuneLayerStats& t, Outcome* out) {
  out->metric("tune.evaluations", t.evaluations, "count");
  out->metric("tune.deduped", t.deduped, "count");
  out->metric("tune.native_runs", t.native_runs, "count");
  out->metric("tune.codegen_evals", t.codegen_evals, "count");
  out->metric("tune.exec_evals", t.exec_evals, "count");
  out->metric("exhaustive.native_runs", t.ex_native_runs, "count");
  out->metric("exhaustive.codegen_evals", t.ex_codegen_evals, "count");
  out->metric("exhaustive.exec_evals", t.ex_exec_evals, "count");
  out->metric("exhaustive.pass_s", t.ex_pass_s, "s");
}

void run_traced(const Args& args, const fs::path& work, std::uint64_t app_seed,
                std::uint64_t stream_seed, Outcome* out) {
  std::unique_ptr<BatchWorkload> batch = make_batch(args.workload, app_seed);
  ServeLayerStats serve_stats;
  TuneLayerStats tune_stats;
  layers::Snapshot snap;
  ServeResults serve;  // serve_mix only
  double traced_s = 0.0, untraced_1_s = 0.0, untraced_n_s = 0.0;
  // Sweep jobs of the batch passes; server workers for serve_mix.
  const int parallelism = batch ? kJobs : kServeWorkers;
  std::size_t cg_lookups = 0, cg_evals = 0, ex_lookups = 0, ex_evals = 0;
  std::size_t evictions = 0;

  if (batch) {
    const std::string reference = batch->setup(work);
    auto checked = [&](const PassResult& pass) {
      ++out->attempted;
      if (!pass.verified) out->mismatch(args.workload + ": unverified result");
      if (pass.bytes != reference) {
        out->mismatch(args.workload + ": pass bytes differ from reference");
      }
      return pass;
    };
    std::vector<double> at_n;
    for (int i = 0; i < 2; ++i) {
      at_n.push_back(checked(batch->pass(work, kJobs, false)).seconds);
    }
    untraced_n_s = median(at_n);
    untraced_1_s = checked(batch->pass(work, 1, false)).seconds;
    layers::reset();
    const PassResult traced = checked(batch->pass(work, 1, true));
    snap = layers::snapshot();
    traced_s = traced.seconds;
    cg_lookups = traced.codegen_lookups;
    cg_evals = traced.codegen_evals;
    ex_lookups = traced.exec_lookups;
    ex_evals = traced.exec_evals;
    evictions = traced.store_evictions;
    if (auto* tune = dynamic_cast<TuneSuite*>(batch.get())) {
      tune_stats.evaluations = static_cast<double>(traced.tune_evaluations);
      tune_stats.deduped = static_cast<double>(traced.tune_deduped);
      tune_stats.native_runs =
          static_cast<double>(traced.native_runs + traced.disk_hits);
      tune_stats.codegen_evals = static_cast<double>(traced.codegen_evals);
      tune_stats.exec_evals = static_cast<double>(traced.exec_evals);
      const PassResult ex = tune->exhaustive(work, kJobs);
      ++out->attempted;
      if (!ex.verified) out->mismatch("exhaustive search: unverified result");
      tune_stats.ex_native_runs =
          static_cast<double>(ex.native_runs + ex.disk_hits);
      tune_stats.ex_codegen_evals = static_cast<double>(ex.codegen_evals);
      tune_stats.ex_exec_evals = static_cast<double>(ex.exec_evals);
      tune_stats.ex_pass_s = ex.seconds;
    }
  } else {
    ServeFixture fixture(work, stream_seed, app_seed);
    fixture.setup();
    core::Runner& runner = fixture.server().runner();
    // The pass at its own window, then one request at a time (the serve
    // counterpart of jobs 1).
    auto windowed = [&](int window, std::uint64_t stream) {
      const std::vector<std::string> requests =
          fixture.stream(stream, kServePassRequests);
      const Phase phase = run_phase(fixture.socket(), requests, 0.0, 0,
                                    kPassConnections, window);
      out->attempted += requests.size();
      out->failed += phase.failures;
      const std::size_t bad = check_payloads(fixture, requests, phase);
      if (bad != 0) out->mismatch(strfmt("%zu serve payloads differ", bad));
      return phase.seconds;
    };
    untraced_n_s =
        median({windowed(kPassWindow, 500), windowed(kPassWindow, 501)});
    untraced_1_s = median({windowed(1, 502), windowed(1, 503)});
    const std::size_t cg_l0 = runner.codegen_lookups(),
                      cg_e0 = runner.codegen_evals(),
                      ex_l0 = runner.exec_lookups(),
                      ex_e0 = runner.exec_evals();
    layers::reset();
    layers::enable(true);
    {
      const std::vector<std::string> requests =
          fixture.stream(504, kServePassRequests);
      const Phase phase =
          run_phase(fixture.socket(), requests, 0.0, 0, kPassConnections);
      layers::enable(false);
      snap = layers::snapshot();
      traced_s = phase.seconds;
      out->attempted += requests.size();
      out->failed += phase.failures;
      if (check_payloads(fixture, requests, phase) != 0) {
        out->mismatch("traced serve payloads differ");
      }
    }
    cg_lookups = runner.codegen_lookups() - cg_l0;
    cg_evals = runner.codegen_evals() - cg_e0;
    ex_lookups = runner.exec_lookups() - ex_l0;
    ex_evals = runner.exec_evals() - ex_e0;
    if (runner.trace_store()) evictions = runner.trace_store()->evictions();
    // The serving layer, untraced: the fixed rates and the ladder.
    const core::ServeStats before = fixture.server().stats_snapshot();
    serve = serve_phase(fixture, out);
    const core::ServeStats after = fixture.server().stats_snapshot();
    const Phase& mid = serve.mid;
    serve_stats.server_p50_us = quantile(mid.server_us, 0.50);
    serve_stats.server_p99_us = quantile(mid.server_us, 0.99);
    serve_stats.queue_wait_p99_us = quantile(mid.wait_us, 0.99);
    serve_stats.lag_p99_ms = quantile(mid.lag_ms, 0.99);
    serve_stats.busy = static_cast<double>(after.busy - before.busy);
    serve_stats.deadline = static_cast<double>(after.deadline - before.deadline);
    serve_stats.tier_memo =
        static_cast<double>(after.tier_memo - before.tier_memo);
    fixture.stop();
  }

  report_layers(snap, traced_s, out);
  out->metric("store.evictions", static_cast<double>(evictions), "count");
  report_memo(cg_lookups, cg_evals, ex_lookups, ex_evals, out);
  out->metric("sweep.jobs_efficiency",
              untraced_n_s > 0.0
                  ? untraced_1_s / (parallelism * untraced_n_s)
                  : 0.0,
              "ratio");
  out->metric("trace_overhead",
              untraced_1_s > 0.0 ? traced_s / untraced_1_s - 1.0 : 0.0,
              "ratio");
  report_tune_layers(tune_stats, out);
  report_serve_layers(serve_stats, out);
  report_latency(serve, 0.50, "lat_p50_ms", out);
  report_latency(serve, 0.99, "lat_p99_ms", out);
  out->metric("max_rps", serve.max_rps, "req/s");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (args.workload != "sweep_cold" && args.workload != "scale_warm" &&
      args.workload != "tune_suite" && args.workload != "serve_mix") {
    usage("unknown workload '" + args.workload + "'");
  }
  if (args.trace && !layers::linked()) {
    usage("--trace 1 needs the fsbench_traced build");
  }
  // The program reads this variable to attach a store; every store here is
  // explicit.
  ::unsetenv("FIBERSIM_TRACE_CACHE");
  // The open-loop generator sleeps until each scheduled send; the default
  // 50 us timer slack would make every send up to 50 us late, and latency
  // runs from the scheduled time. Threads started later inherit the slack.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  // Derived inputs: the miniapp seed of every experiment and the serve
  // request stream.
  const std::uint64_t app_seed = Xoshiro256(args.seed, 1).next() % 1000000007u;
  const std::uint64_t stream_seed = Xoshiro256(args.seed, 2).next();
  const fs::path work =
      fs::path(".bench_build") / "work" / std::to_string(::getpid());
  std::cerr << "fsbench: workload " << args.workload << ", seed " << args.seed
            << " (miniapp seed " << app_seed << ")\n";

  Outcome out;
  int status = 0;
  try {
    fresh_dir(work);
    if (args.trace) {
      run_traced(args, work, app_seed, stream_seed, &out);
    } else {
      run_untraced(args, work, app_seed, stream_seed, &out);
    }
  } catch (const std::exception& e) {
    std::cerr << "fsbench: " << e.what() << "\n";
    status = 1;
  }
  std::error_code ec;
  fs::remove_all(work, ec);
  if (status != 0) return status;
  print_outcome(args, out);
  return out.correct ? 0 : 1;
}
