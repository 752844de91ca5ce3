// perf_serve — load generator and benchmark for the `fibersim serve` daemon.
//
// Default mode spins the server up in-process and drives it through the same
// Unix-socket client the tests and CI use. Legs:
//
//   * load: for each client count, a cold pass (empty trace store: every
//     unique execution key runs natively exactly once — concurrent identical
//     requests coalesce) and a warm pass (fresh server, same store: zero
//     native runs, every key replayed from disk). Client-side p50/p99
//     latency and throughput per pass; every predict payload must be
//     byte-identical to the prediction JSON an in-process Runner produces
//     for the same config (the `fibersim run --json` contract).
//   * busy: workers=1, queue capacity 1, one pipelined burst of distinct
//     heavy requests — admission control must shed with typed BUSY
//     responses, answer everything, and hang nothing.
//   * chaos: a PR-3 fault plan (run.fail=1) installed against the live
//     server — the first predict per key fails as a typed FAILED response
//     tagged class=injected, the retry succeeds.
//   * shutdown: stop() must drain, remove the socket file and leave the
//     trace store with no half-published .tmp entries.
//
// Results go to stdout and a JSON file (default BENCH_serve.json — run from
// the repo root to refresh the committed artifact). Exit is nonzero if any
// invariant fails.
//
// --connect <socket> turns the binary into a plain client for an externally
// started daemon (the CI smoke leg): with --send '<json line>' it performs
// one request and prints the response (--retries/--backoff-ms ride through
// typed sheds and restart windows); without, it runs a small load pass and
// summarizes.
#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "common/report_emit.hpp"
#include "common/stats.hpp"
#include "common/string_util.hpp"
#include "common/timer.hpp"
#include "core/config_parse.hpp"
#include "core/serve.hpp"
#include "fault/fault.hpp"
#include "serve_targets.hpp"

namespace {

using namespace fibersim;
namespace fs = std::filesystem;
using namespace fibersim::bench;  // the shared predict mix

struct PassStats {
  double seconds = 0.0;
  std::size_t requests = 0;
  std::size_t not_ok = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  /// target index -> payload (for the byte-identity check).
  std::map<std::size_t, std::string> payloads;
};

/// Fire `clients` threads x `requests` predicts at `socket_path`; every
/// response must be ok:true.
PassStats run_load(const std::string& socket_path, int clients,
                   int requests) {
  PassStats stats;
  std::vector<double> latencies;
  std::mutex merge_mutex;
  std::vector<std::thread> threads;
  WallTimer timer;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<double> local;
      std::map<std::size_t, std::string> local_payloads;
      std::size_t local_not_ok = 0;
      core::ServeClient client(socket_path);
      for (int r = 0; r < requests; ++r) {
        const std::size_t target =
            static_cast<std::size_t>(c + r) % kTargets.size();
        WallTimer one;
        const std::string response = client.request(
            predict_line(kTargets[target], strfmt("c%d-%d", c, r)));
        local.push_back(one.elapsed() * 1e6);
        if (response.find("\"ok\":true") == std::string::npos) {
          ++local_not_ok;
          continue;
        }
        local_payloads[target] = payload_of(response);
      }
      std::lock_guard<std::mutex> lock(merge_mutex);
      latencies.insert(latencies.end(), local.begin(), local.end());
      stats.not_ok += local_not_ok;
      for (auto& [target, payload] : local_payloads) {
        stats.payloads[target] = std::move(payload);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  stats.seconds = timer.elapsed();
  stats.requests = latencies.size();
  if (!latencies.empty()) {
    stats.p50_us = percentile(latencies, 0.50);
    stats.p99_us = percentile(std::move(latencies), 0.99);
  }
  return stats;
}

struct Flags {
  int requests = 24;
  int clients = 2;  // connect-mode load only; bench mode sweeps {1, 2, 4}
  std::string out_path = "BENCH_serve.json";
  std::string socket_path;
  std::string cache_root;
  std::string connect_path;
  std::string send_line;
  int retries = 1;  // --send attempts; > 1 rides through restarts
  int backoff_ms = 50;
};

constexpr core::KeyRow<Flags> kKeys[] = {
    {"requests", core::set_int<1, &Flags::requests>},
    {"clients", core::set_int<1, &Flags::clients>},
    {"out", core::set_text<&Flags::out_path>},
    {"socket", core::set_text<&Flags::socket_path>},
    {"cache_dir", core::set_text<&Flags::cache_root>},
    {"connect", core::set_text<&Flags::connect_path>},
    {"send", core::set_text<&Flags::send_line>},
    {"retries", core::set_int<1, &Flags::retries>},
    {"backoff_ms", core::set_int<1, &Flags::backoff_ms>},
};

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  const std::vector<std::string> args(argv + 1, argv + argc);
  const std::string problem =
      core::parse_flags(args, "perf_serve", core::KeyTable{kKeys, flags});
  if (!problem.empty()) {
    std::cerr << problem << "\n";
    return 2;
  }
  // ---- client mode against an external daemon ----------------------------
  if (!flags.connect_path.empty()) {
    try {
      if (!flags.send_line.empty()) {
        // --retries > 1 retries typed BUSY / SHUTDOWN / CIRCUIT_OPEN sheds
        // and connect failures (a supervised server mid-restart) with
        // jittered exponential backoff, so callers stop hand-rolling
        // sleep-and-poll loops around this client.
        core::RetryPolicy policy;
        policy.attempts = flags.retries;
        policy.backoff_ms = flags.backoff_ms;
        policy.max_backoff_ms = std::max<std::int64_t>(flags.backoff_ms, 2000);
        std::cout << core::request_with_retry(flags.connect_path,
                                              flags.send_line, policy)
                  << "\n";
        return 0;
      }
      const PassStats pass = run_load(flags.connect_path, flags.clients,
                                      flags.requests);
      std::cout << strfmt(
          "connect: %zu requests over %d clients in %g s "
          "(%.0f req/s, p50 %.0f us, p99 %.0f us, %zu not ok)\n",
          pass.requests, flags.clients, pass.seconds,
          pass.seconds > 0.0 ? pass.requests / pass.seconds : 0.0,
          pass.p50_us, pass.p99_us, pass.not_ok);
      return pass.not_ok == 0 ? 0 : 1;
    } catch (const std::exception& e) {
      std::cerr << "connect failed: " << e.what() << "\n";
      return 1;
    }
  }

  // ---- in-process benchmark ----------------------------------------------
  const std::string run_tag = std::to_string(static_cast<long>(::getpid()));
  std::string socket_path = flags.socket_path;
  std::string cache_root = flags.cache_root;
  if (socket_path.empty()) {
    socket_path =
        (fs::temp_directory_path() / ("fibersim-serve-" + run_tag + ".sock"))
            .string();
  }
  if (cache_root.empty()) {
    cache_root = (fs::temp_directory_path() /
                  ("fibersim-serve-cache-" + run_tag))
                     .string();
  }
  bool ok = true;

  const std::vector<std::string> expected = expected_payloads();

  struct Leg {
    int clients;
    PassStats cold;
    PassStats warm;
    core::ServeStats cold_server;
    core::ServeStats warm_server;
  };
  std::vector<Leg> legs;
  for (const int n : {1, 2, 4}) {
    const fs::path dir = fs::path(cache_root) / ("clients" + std::to_string(n));
    std::error_code ec;
    fs::remove_all(dir, ec);
    Leg leg;
    leg.clients = n;
    for (const bool warm : {false, true}) {
      core::ServeOptions opts;
      opts.socket_path = socket_path;
      opts.trace_cache_dir = dir.string();
      core::Server server(std::move(opts));
      server.start();
      PassStats pass = run_load(socket_path, n, flags.requests);
      const core::ServeStats stats = server.stats_snapshot();
      server.stop();
      server.wait();
      if (warm) {
        leg.warm = std::move(pass);
        leg.warm_server = stats;
      } else {
        leg.cold = std::move(pass);
        leg.cold_server = stats;
      }
    }
    if (leg.cold.not_ok != 0 || leg.warm.not_ok != 0) {
      std::cerr << "FATAL: " << (leg.cold.not_ok + leg.warm.not_ok)
                << " failed requests at " << n << " clients\n";
      ok = false;
    }
    if (leg.cold_server.tier_native != kTargets.size()) {
      std::cerr << "FATAL: cold pass (" << n << " clients) expected "
                << kTargets.size() << " native-tier requests, got "
                << leg.cold_server.tier_native << "\n";
      ok = false;
    }
    if (leg.warm_server.tier_native != 0 ||
        leg.warm_server.tier_disk != kTargets.size()) {
      std::cerr << "FATAL: warm pass (" << n << " clients) hit tiers "
                << "native=" << leg.warm_server.tier_native
                << " disk=" << leg.warm_server.tier_disk << " (expected 0/"
                << kTargets.size() << ")\n";
      ok = false;
    }
    for (const PassStats* pass : {&leg.cold, &leg.warm}) {
      for (const auto& [target, payload] : pass->payloads) {
        if (payload != expected[target]) {
          std::cerr << "FATAL: payload for " << kTargets[target].app << " "
                    << kTargets[target].ranks << "x"
                    << kTargets[target].threads
                    << " diverged from `run --json` output\n";
          ok = false;
        }
      }
    }
    legs.push_back(std::move(leg));
  }

  // ---- busy leg: load shedding under a full queue ------------------------
  std::size_t busy_responses = 0;
  std::size_t busy_ok = 0;
  {
    core::ServeOptions opts;
    opts.socket_path = socket_path;
    opts.workers = 1;
    opts.queue_capacity = 1;
    core::Server server(std::move(opts));
    server.start();
    core::ServeClient client(socket_path);
    const int burst = 16;
    for (int i = 0; i < burst; ++i) {
      // Distinct seeds -> distinct execution keys -> every admitted request
      // is a real native run, keeping the single worker busy while the
      // reader floods the queue.
      client.send_line(predict_line({"ffvc", 2, 2}, "", 9000 + i));
    }
    client.shutdown_write();
    for (int i = 0; i < burst; ++i) {
      const std::optional<std::string> response = client.read_line();
      if (!response) {
        std::cerr << "FATAL: busy leg got " << i << " responses, expected "
                  << burst << "\n";
        ok = false;
        break;
      }
      if (has_code(*response, core::kCodeBusy)) {
        ++busy_responses;
      } else if (response->find("\"ok\":true") != std::string::npos) {
        ++busy_ok;
      }
    }
    server.stop();
    server.wait();
    if (busy_responses == 0) {
      std::cerr << "FATAL: a 16-burst against queue capacity 1 shed no "
                   "requests\n";
      ok = false;
    }
    if (busy_ok == 0) {
      std::cerr << "FATAL: busy leg admitted nothing\n";
      ok = false;
    }
  }

  // ---- chaos leg: fault plan against a live server -----------------------
  bool chaos_failed_typed = false;
  bool chaos_retry_ok = false;
  {
    core::ServeOptions opts;
    opts.socket_path = socket_path;
    core::Server server(std::move(opts));
    server.start();
    fault::Plan plan;
    plan.run_fail = 1;  // first native-run attempt of every key fails
    const fault::ScopedPlan scoped(plan);
    core::ServeClient client(socket_path);
    const std::string line = predict_line({"ffvc", 2, 2}, "", 31337);
    const std::string first = client.request(line);
    chaos_failed_typed = has_code(first, core::kCodeFailed) &&
                         first.find("class=injected") != std::string::npos;
    const std::string second = client.request(line);
    chaos_retry_ok = second.find("\"ok\":true") != std::string::npos;
    server.stop();
    server.wait();
    if (!chaos_failed_typed) {
      std::cerr << "FATAL: injected run failure did not produce a typed "
                   "FAILED/class=injected response: "
                << first << "\n";
      ok = false;
    }
    if (!chaos_retry_ok) {
      std::cerr << "FATAL: retry after the transient injected failure did "
                   "not succeed: "
                << second << "\n";
      ok = false;
    }
  }

  // ---- shutdown leg: no stray socket, no torn store files ----------------
  if (fs::exists(socket_path)) {
    std::cerr << "FATAL: socket file survived shutdown: " << socket_path
              << "\n";
    ok = false;
  }
  for (const Leg& leg : legs) {
    const fs::path dir =
        fs::path(cache_root) / ("clients" + std::to_string(leg.clients));
    if (has_staged_files(dir)) {
      std::cerr << "FATAL: trace store " << dir
                << " holds half-published .tmp files after shutdown\n";
      ok = false;
    }
  }

  // ---- report ------------------------------------------------------------
  ReportArtifact artifact;
  artifact.id = "perf_serve";
  TextTable table({"clients", "pass", "req/s", "p50 us", "p99 us",
                   "native", "disk"});
  for (const Leg& leg : legs) {
    for (const bool warm : {false, true}) {
      const PassStats& pass = warm ? leg.warm : leg.cold;
      const core::ServeStats& server = warm ? leg.warm_server : leg.cold_server;
      table.add_row(
          {std::to_string(leg.clients), warm ? "warm" : "cold",
           strfmt("%.0f",
                  pass.seconds > 0.0 ? pass.requests / pass.seconds : 0.0),
           strfmt("%.0f", pass.p50_us), strfmt("%.0f", pass.p99_us),
           std::to_string(server.tier_native),
           std::to_string(server.tier_disk)});
    }
  }
  ReportSection& section = artifact.add_table(
      "perf_serve: daemon latency/throughput, cold vs warm store", table);
  section.notes.push_back(
      strfmt("%d requests per client over %zu unique execution keys; "
             "payloads byte-identical to `run --json`: %s",
             flags.requests, kTargets.size(), ok ? "yes" : "NO"));
  section.notes.push_back(
      strfmt("admission control: 16-burst at capacity 1 -> %zu BUSY, %zu "
             "served; chaos: typed FAILED %s, retry %s",
             busy_responses, busy_ok, chaos_failed_typed ? "yes" : "NO",
             chaos_retry_ok ? "ok" : "NO"));
  if (!legs.empty()) {
    const Leg& last = legs.back();
    artifact.metrics.push_back(
        {"warm_p50_us_clients4", last.warm.p50_us, "us"});
    artifact.metrics.push_back(
        {"warm_p99_us_clients4", last.warm.p99_us, "us"});
  }
  EmitOptions emit_opts;
  emit_opts.framed = true;
  emit_report(artifact, emit_opts, std::cout);

  using json::Layout;
  json::Emitter doc;
  doc.object(Layout::kBlock);
  doc.i64("requests_per_client", flags.requests);
  doc.u64("unique_execution_keys", kTargets.size());
  doc.boolean("byte_identical", ok);
  doc.array("legs", Layout::kBlock);
  for (const Leg& leg : legs) {
    doc.object(Layout::kBlock);
    doc.i64("clients", leg.clients);
    for (const bool warm : {false, true}) {
      const PassStats& pass = warm ? leg.warm : leg.cold;
      const core::ServeStats& server = warm ? leg.warm_server : leg.cold_server;
      doc.object(warm ? "warm" : "cold", Layout::kBlock);
      doc.num("seconds", pass.seconds);
      doc.u64("requests", pass.requests);
      doc.num("throughput_rps",
              pass.seconds > 0.0 ? pass.requests / pass.seconds : 0.0);
      doc.num("p50_us", pass.p50_us);
      doc.num("p99_us", pass.p99_us);
      doc.u64("tier_native", server.tier_native);
      doc.u64("tier_disk", server.tier_disk);
      doc.u64("tier_memo", server.tier_memo);
      doc.close();
    }
    doc.close();
  }
  doc.close();
  doc.object("admission", Layout::kBlock);
  doc.i64("burst", 16);
  doc.i64("queue_capacity", 1);
  doc.u64("busy_responses", busy_responses);
  doc.u64("served", busy_ok);
  doc.close();
  doc.object("chaos", Layout::kBlock);
  doc.boolean("typed_failed_response", chaos_failed_typed);
  doc.boolean("retry_succeeded", chaos_retry_ok);

  {
    std::error_code ec;
    fs::remove_all(cache_root, ec);
  }
  std::ofstream out(flags.out_path);
  out << std::move(doc).finish() << '\n';
  if (!out) {
    std::cerr << "failed to write " << flags.out_path << "\n";
    return 1;
  }
  std::cout << "wrote " << flags.out_path << "\n";
  return ok ? 0 : 1;
}
