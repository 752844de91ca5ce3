// perf_trace_cache — cold vs warm sweep through the persistent trace store,
// plus the zero-copy message-payload micro-benchmark.
//
// Sweep leg: the same multi-app sweep (apps x rank/thread splits x the
// processor comparison set — processors share native runs, so the store is
// exercised exactly once per execution key) is evaluated twice against one
// trace-cache directory:
//
//   * cold: empty store. Every execution key runs natively and publishes.
//   * warm: fresh Runner, same directory. Every native run must be replayed
//           from disk — native_runs() == 0 — and every serialized result
//           (prediction + raw trace + check value bits) must be byte-
//           identical to the cold pass.
//
// Both legs run with --jobs 1 and --jobs 4; all four serialized outputs must
// agree bytewise (the determinism contract extends to the disk tier). The
// bench aborts with a nonzero exit if any invariant fails.
//
// Payload leg: fan-out cost of mp::Buffer's refcounted payloads. A 1 MiB
// broadcast over 8 ranks shares one immutable buffer across every hop
// (one allocation + memcpy at the root); the baseline emulates the old
// copy-per-destination behaviour with a root send_bytes loop. Results go to
// stdout and a JSON file (default BENCH_trace_cache.json — run from the
// repo root to refresh the committed artifact).
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/parse_num.hpp"
#include "common/report_emit.hpp"
#include "common/string_util.hpp"
#include "common/timer.hpp"
#include "core/runner.hpp"
#include "core/sweep_pool.hpp"
#include "machine/processor.hpp"
#include "mp/job.hpp"
#include "trace/serialize.hpp"
#include "trace/trace_store.hpp"

namespace {

using namespace fibersim;
namespace fs = std::filesystem;

/// Serialize a sweep's results into one comparable byte string: prediction,
/// raw per-rank trace (expanded from `runner`'s cache), and the verification
/// value by bit pattern.
std::string serialize_results(core::Runner& runner,
                              const std::vector<core::ExperimentResult>& rs) {
  std::ostringstream out;
  for (const core::ExperimentResult& r : rs) {
    out << r.config.label() << "\n"
        << trace::to_json(r.prediction) << "\n"
        << trace::to_json(runner.expanded_trace(r.config)) << "\n"
        << (r.verified ? "ok " : "FAIL ")
        << std::bit_cast<std::uint64_t>(r.check_value) << " "
        << r.check_description << "\n";
  }
  return out.str();
}

struct PassStats {
  double seconds = 0.0;
  std::size_t native_runs = 0;
  std::size_t disk_hits = 0;
  std::size_t disk_writes = 0;
  std::string bytes;
};

PassStats run_pass(const std::vector<core::ExperimentConfig>& configs,
                   const fs::path& cache_dir, int jobs) {
  core::Runner runner;
  runner.set_trace_store(
      std::make_shared<trace::TraceStore>(cache_dir.string()));
  const core::SweepPool pool(jobs);
  WallTimer timer;
  const std::vector<core::ExperimentResult> results =
      pool.run(runner, configs);
  PassStats stats;
  stats.seconds = timer.elapsed();
  stats.native_runs = runner.native_runs();
  stats.disk_hits = runner.disk_hits();
  stats.disk_writes = runner.disk_writes();
  stats.bytes = serialize_results(runner, results);
  return stats;
}

/// Broadcast `bytes` from rank 0 over `ranks` ranks, `repeats` times.
/// shared=true uses bcast_bytes (one refcounted buffer for the whole tree);
/// shared=false emulates copy-per-destination with a root send loop.
double time_fanout(int ranks, std::size_t bytes, int repeats, bool shared) {
  std::vector<std::byte> payload(bytes, std::byte{0x5a});
  WallTimer timer;
  mp::Job::run(ranks, [&](mp::Comm& comm) {
    std::vector<std::byte> buf(bytes);
    if (comm.rank() == 0) {
      std::memcpy(buf.data(), payload.data(), bytes);
    }
    for (int r = 0; r < repeats; ++r) {
      if (shared) {
        comm.bcast_bytes(buf.data(), bytes, 0);
      } else if (comm.rank() == 0) {
        for (int dst = 1; dst < comm.size(); ++dst) {
          comm.send_bytes(dst, r, buf.data(), bytes);
        }
      } else {
        comm.recv_bytes(0, r, buf.data(), bytes);
      }
    }
  });
  return timer.elapsed();
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> app_names = {"ffvc", "ffb", "modylas"};
  apps::Dataset dataset = apps::Dataset::kSmall;
  int repeats = 16;
  std::string out_path = "BENCH_trace_cache.json";
  std::string cache_root;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << a << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--apps") {
      app_names = fibersim::split(value(), ',');
    } else if (a == "--dataset") {
      dataset = value() == "large" ? apps::Dataset::kLarge
                                   : apps::Dataset::kSmall;
    } else if (a == "--repeats") {
      const std::string v = value();
      const std::optional<int> n = fibersim::parse_i32(v);
      if (!n || *n < 1) {
        std::cerr << "--repeats: expected an integer >= 1, got '" << v
                  << "'\n";
        std::exit(2);
      }
      repeats = *n;
    } else if (a == "--out") {
      out_path = value();
    } else if (a == "--cache-dir") {
      cache_root = value();
    } else {
      std::cerr << "unknown argument: " << a << "\n";
      std::exit(2);
    }
  }

  // Sweep: apps x (ranks, threads) x comparison processors. Processors do
  // not enter the execution key, so unique native runs = apps x splits.
  const std::vector<std::pair<int, int>> splits = {{2, 2}, {4, 2}};
  std::vector<core::ExperimentConfig> configs;
  for (const machine::ProcessorConfig& proc : machine::comparison_set()) {
    for (const std::string& app : app_names) {
      for (const auto& [ranks, threads] : splits) {
        core::ExperimentConfig cfg;
        cfg.app = app;
        cfg.dataset = dataset;
        cfg.ranks = ranks;
        cfg.threads = threads;
        cfg.iterations = 1;
        cfg.processor = proc;
        configs.push_back(cfg);
      }
    }
  }
  const std::size_t unique_keys = app_names.size() * splits.size();

  if (cache_root.empty()) {
    cache_root = (fs::temp_directory_path() /
                  ("fibersim-bench-cache-" +
                   std::to_string(static_cast<long>(::getpid()))))
                     .string();
  }

  bool ok = true;
  struct Leg {
    int jobs;
    PassStats cold;
    PassStats warm;
  };
  std::vector<Leg> legs;
  for (const int jobs : {1, 4}) {
    const fs::path dir = fs::path(cache_root) / ("jobs" + std::to_string(jobs));
    std::error_code ec;
    fs::remove_all(dir, ec);
    Leg leg;
    leg.jobs = jobs;
    leg.cold = run_pass(configs, dir, jobs);
    leg.warm = run_pass(configs, dir, jobs);
    if (leg.cold.native_runs != unique_keys ||
        leg.cold.disk_writes != unique_keys) {
      std::cerr << "FATAL: cold pass (--jobs " << jobs << ") expected "
                << unique_keys << " native runs/writes, got "
                << leg.cold.native_runs << "/" << leg.cold.disk_writes << "\n";
      ok = false;
    }
    if (leg.warm.native_runs != 0 || leg.warm.disk_hits != unique_keys) {
      std::cerr << "FATAL: warm pass (--jobs " << jobs
                << ") ran natively: native_runs=" << leg.warm.native_runs
                << " disk_hits=" << leg.warm.disk_hits << "\n";
      ok = false;
    }
    if (leg.warm.bytes != leg.cold.bytes) {
      std::cerr << "FATAL: warm output diverged from cold (--jobs " << jobs
                << ")\n";
      ok = false;
    }
    legs.push_back(std::move(leg));
    fs::remove_all(dir, ec);
  }
  for (std::size_t i = 1; i < legs.size(); ++i) {
    if (legs[i].cold.bytes != legs[0].cold.bytes) {
      std::cerr << "FATAL: --jobs " << legs[i].jobs
                << " output diverged from --jobs " << legs[0].jobs << "\n";
      ok = false;
    }
  }
  {
    std::error_code ec;
    fs::remove_all(cache_root, ec);
  }

  // Payload fan-out micro-benchmark (median-free, single timing pass each —
  // the two legs move identical bytes so the ratio is the signal).
  const int fan_ranks = 8;
  const std::size_t fan_bytes = 1u << 20;
  const double fan_copy_s = time_fanout(fan_ranks, fan_bytes, repeats, false);
  const double fan_shared_s = time_fanout(fan_ranks, fan_bytes, repeats, true);
  const double fan_ratio = fan_shared_s > 0.0 ? fan_copy_s / fan_shared_s : 0.0;

  // Stdout summary goes through the shared report emitter (same renderer as
  // the experiment registry); the JSON artifact below stays hand-rolled.
  ReportArtifact artifact;
  artifact.id = "perf_trace_cache";
  TextTable table({"jobs", "cold s", "native runs", "warm s", "disk hits",
                   "speedup"});
  for (const Leg& leg : legs) {
    const double speedup =
        leg.warm.seconds > 0.0 ? leg.cold.seconds / leg.warm.seconds : 0.0;
    table.add_row({std::to_string(leg.jobs), strfmt("%g", leg.cold.seconds),
                   std::to_string(leg.cold.native_runs),
                   strfmt("%g", leg.warm.seconds),
                   std::to_string(leg.warm.disk_hits),
                   strfmt("%gx", speedup)});
    artifact.metrics.push_back({"warm_speedup_jobs" + std::to_string(leg.jobs),
                                speedup, "x"});
  }
  ReportSection& section = artifact.add_table(
      "perf_trace_cache: cold vs warm sweep through the store", table);
  section.notes.push_back(strfmt("sweep: %zu configs, %zu unique execution keys",
                                 configs.size(), unique_keys));
  section.notes.push_back(
      strfmt("fan-out %d ranks x %zu KiB x %d: per-destination copies %g s, "
             "shared buffer %g s (%gx)",
             fan_ranks, fan_bytes >> 10, repeats, fan_copy_s, fan_shared_s,
             fan_ratio));
  artifact.metrics.push_back({"fanout_copy_over_shared", fan_ratio, "x"});
  EmitOptions emit_opts;
  emit_opts.framed = true;
  emit_report(artifact, emit_opts, std::cout);

  std::ostringstream json;
  json.precision(17);
  json << "{\n"
       << "  \"dataset\": \"" << apps::dataset_name(dataset) << "\",\n"
       << "  \"configs\": " << configs.size() << ",\n"
       << "  \"unique_execution_keys\": " << unique_keys << ",\n"
       << "  \"byte_identical\": " << (ok ? "true" : "false") << ",\n"
       << "  \"legs\": [\n";
  for (std::size_t i = 0; i < legs.size(); ++i) {
    const Leg& leg = legs[i];
    const double speedup =
        leg.warm.seconds > 0.0 ? leg.cold.seconds / leg.warm.seconds : 0.0;
    json << "    {\n"
         << "      \"jobs\": " << leg.jobs << ",\n"
         << "      \"cold_seconds\": " << leg.cold.seconds << ",\n"
         << "      \"cold_native_runs\": " << leg.cold.native_runs << ",\n"
         << "      \"cold_disk_writes\": " << leg.cold.disk_writes << ",\n"
         << "      \"warm_seconds\": " << leg.warm.seconds << ",\n"
         << "      \"warm_native_runs\": " << leg.warm.native_runs << ",\n"
         << "      \"warm_disk_hits\": " << leg.warm.disk_hits << ",\n"
         << "      \"warm_speedup\": " << speedup << "\n"
         << "    }" << (i + 1 < legs.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"payload_fanout\": {\n"
       << "    \"ranks\": " << fan_ranks << ",\n"
       << "    \"payload_bytes\": " << fan_bytes << ",\n"
       << "    \"repeats\": " << repeats << ",\n"
       << "    \"per_destination_copy_seconds\": " << fan_copy_s << ",\n"
       << "    \"shared_buffer_seconds\": " << fan_shared_s << ",\n"
       << "    \"copy_over_shared_ratio\": " << fan_ratio << "\n"
       << "  }\n"
       << "}\n";

  std::ofstream out(out_path);
  out << json.str();
  if (!out) {
    std::cerr << "failed to write " << out_path << "\n";
    return 1;
  }
  std::cout << "wrote " << out_path << "\n";
  return ok ? 0 : 1;
}
