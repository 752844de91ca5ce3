// perf_resilience — chaos soak harness for the `fibersim serve` resilience
// layer (deadlines, circuit breakers, crash-safe recovery).
//
// Legs:
//
//   * deadline: workers=1 server; a tight deadline_ms on cold work must come
//     back as a typed DEADLINE (shed in queue or at a phase boundary), a
//     generous one must succeed — and the miss rates must be 100% / 0%.
//   * wedge: a fault plan drops every mp message with a short recv watchdog;
//     a predict against the live server must answer typed
//     FAILED[class=timeout] instead of hanging a worker forever.
//   * circuit: a permanently failing plan trips the breaker after N classed
//     failures (typed CIRCUIT_OPEN answered fast), and once the plan is
//     lifted the half-open probe closes the circuit again.
//   * soak: a supervised external server (`--server <fibersim binary>`,
//     fork/exec) takes concurrent live load while a chaos thread SIGKILLs
//     the serving child mid-request, several times. Clients ride through
//     restarts with request_with_retry. Afterward every config class that
//     was ever acknowledged ok must still be answered, byte-identical to a
//     quiet in-process baseline (zero acknowledged-but-lost requests, warm
//     journal), the journal must end newline-clean, and the supervisor must
//     drain to exit 0 on SIGTERM.
//
// Emits BENCH_resilience.json (recovery times, deadline-miss rates, circuit
// trip/half-open counts, zero-loss + byte-identity checks). Exit is nonzero
// if any invariant fails.
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/parse_num.hpp"
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

// ---- supervised external server -------------------------------------------

/// The soak's server-under-test: fork/exec of the real fibersim binary in
/// `serve --supervise` mode, stdout+stderr captured through a pipe. A reader
/// thread scans the stream for "supervisor: worker pid=N" lines so the chaos
/// thread always knows which pid to SIGKILL.
class SupervisedServer {
 public:
  SupervisedServer(const std::string& binary,
                   const std::vector<std::string>& args) {
    int fds[2];
    if (::pipe(fds) != 0) {
      throw Error("perf_resilience: cannot create output pipe");
    }
    // argv must be fully materialised before fork: the child may only call
    // async-signal-safe functions (this bench is multi-threaded).
    std::vector<std::string> strings;
    strings.push_back(binary);
    strings.insert(strings.end(), args.begin(), args.end());
    std::vector<char*> argv;
    argv.reserve(strings.size() + 1);
    for (std::string& s : strings) argv.push_back(s.data());
    argv.push_back(nullptr);

    pid_ = ::fork();
    if (pid_ < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      throw Error("perf_resilience: fork failed");
    }
    if (pid_ == 0) {
      ::dup2(fds[1], 1);
      ::dup2(fds[1], 2);
      ::close(fds[0]);
      ::close(fds[1]);
      ::execv(argv[0], argv.data());
      _exit(127);
    }
    ::close(fds[1]);
    read_fd_ = fds[0];
    reader_ = std::thread([this] { reader_loop(); });
  }

  ~SupervisedServer() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      (void)wait_exit();
    }
    if (reader_.joinable()) reader_.join();
    if (read_fd_ >= 0) ::close(read_fd_);
  }

  pid_t supervisor_pid() const { return pid_; }
  /// Latest "supervisor: worker pid=" seen (0 before the first boot line).
  pid_t worker_pid() const {
    return static_cast<pid_t>(worker_pid_.load(std::memory_order_acquire));
  }

  void term() const { ::kill(pid_, SIGTERM); }

  /// waitpid the supervisor; returns its exit status (-1 = killed/anomaly).
  int wait_exit() {
    if (pid_ <= 0) return -1;
    int status = 0;
    pid_t rc;
    do {
      rc = ::waitpid(pid_, &status, 0);
    } while (rc < 0 && errno == EINTR);
    pid_ = -1;
    if (reader_.joinable()) reader_.join();  // EOF after the child exits
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  std::string output() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return output_;
  }

 private:
  void reader_loop() {
    std::string pending;
    char chunk[4096];
    for (;;) {
      const ssize_t n = ::read(read_fd_, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      pending.append(chunk, static_cast<std::size_t>(n));
      std::size_t start = 0;
      for (std::size_t nl = pending.find('\n', start);
           nl != std::string::npos; nl = pending.find('\n', start)) {
        const std::string line = pending.substr(start, nl - start);
        start = nl + 1;
        const std::string marker = "supervisor: worker pid=";
        const std::size_t pos = line.find(marker);
        if (pos != std::string::npos) {
          if (const std::optional<int> pid =
                  parse_i32(line.substr(pos + marker.size()))) {
            worker_pid_.store(*pid, std::memory_order_release);
          }
        }
        std::lock_guard<std::mutex> lock(mutex_);
        output_ += line + "\n";
      }
      pending.erase(0, start);
    }
  }

  pid_t pid_ = -1;
  int read_fd_ = -1;
  std::thread reader_;
  std::atomic<int> worker_pid_{0};
  mutable std::mutex mutex_;
  std::string output_;
};

/// Ping until the server answers ok; returns seconds waited (< 0 = never).
double await_ready(const std::string& socket, double timeout_s) {
  WallTimer timer;
  while (timer.elapsed() < timeout_s) {
    try {
      core::ServeClient client(socket);
      const std::string r = client.request("{\"verb\":\"ping\"}");
      if (r.find("\"ok\":true") != std::string::npos) return timer.elapsed();
    } catch (const std::exception&) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return -1.0;
}

struct Flags {
  std::string out_path = "BENCH_resilience.json";
  std::string server_binary = "build/tools/fibersim";
  std::string work_dir;
  int kills = 3;
  int clients = 2;
  int requests = 48;  // per client, spread over the kill cycles
};

constexpr core::KeyRow<Flags> kKeys[] = {
    {"out", core::set_text<&Flags::out_path>},
    {"server", core::set_text<&Flags::server_binary>},
    {"work_dir", core::set_text<&Flags::work_dir>},
    {"kills", core::set_int<1, &Flags::kills>},
    {"clients", core::set_int<1, &Flags::clients>},
    {"requests", core::set_int<1, &Flags::requests>},
};

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  const std::vector<std::string> args(argv + 1, argv + argc);
  const std::string problem = core::parse_flags(args, "perf_resilience",
                                                core::KeyTable{kKeys, flags});
  if (!problem.empty()) {
    std::cerr << problem << "\n";
    return 2;
  }
  std::string work_root = flags.work_dir;

  const std::string run_tag = std::to_string(static_cast<long>(::getpid()));
  // A caller-provided work dir is left in place afterwards so CI can assert
  // socket/journal/store cleanliness; a self-made temp dir is cleaned up.
  const bool own_work_root = work_root.empty();
  if (own_work_root) {
    work_root = (fs::temp_directory_path() /
                 ("fibersim-resilience-" + run_tag))
                    .string();
  }
  fs::create_directories(work_root);
  const std::string socket_path =
      (fs::path(work_root) / "resilience.sock").string();
  bool ok = true;
  const auto fail = [&](const std::string& what) {
    std::cerr << "FATAL: " << what << "\n";
    ok = false;
  };

  // Quiet-server baseline: the `run --json` payload for every target.
  const std::vector<std::string> expected = expected_payloads();

  // ---- deadline leg --------------------------------------------------------
  std::size_t deadline_tight_missed = 0;
  std::size_t deadline_tight_total = 0;
  std::size_t deadline_generous_missed = 0;
  std::size_t deadline_generous_total = 0;
  {
    core::ServeOptions opts;
    opts.socket_path = socket_path;
    opts.workers = 1;
    core::Server server(std::move(opts));
    server.start();
    core::ServeClient client(socket_path);
    // Tight: 1 ms against cold native runs (distinct seeds -> no memo hits);
    // each must shed as typed DEADLINE, either still queued or at the first
    // phase-boundary checkpoint.
    for (int i = 0; i < 6; ++i) {
      const std::string r = client.request(
          predict_line({"ffvc", 8, 4, "large", 0}, "", 7100 + i, 1));
      ++deadline_tight_total;
      if (has_code(r, core::kCodeDeadline)) {
        ++deadline_tight_missed;
      } else if (r.find("\"ok\":true") == std::string::npos) {
        fail("tight-deadline request answered neither DEADLINE nor ok: " + r);
      }
    }
    // Generous: 30 s deadlines must never shed.
    for (std::size_t t = 0; t < kTargets.size(); ++t) {
      const std::string r = client.request(
          predict_line(kTargets[t], strfmt("dl%zu", t), 0, 30000));
      ++deadline_generous_total;
      if (r.find("\"ok\":true") == std::string::npos) {
        ++deadline_generous_missed;
        fail("generous-deadline request did not succeed: " + r);
      } else if (payload_of(r) != expected[t]) {
        fail("generous-deadline payload diverged from baseline");
      }
    }
    const core::ServeStats stats = server.stats_snapshot();
    server.stop();
    server.wait();
    if (deadline_tight_missed == 0) {
      fail("no tight-deadline request was shed with DEADLINE");
    }
    if (stats.deadline != deadline_tight_missed) {
      fail(strfmt("server counted %llu DEADLINE sheds, clients saw %zu",
                  static_cast<unsigned long long>(stats.deadline),
                  deadline_tight_missed));
    }
  }

  // ---- wedge leg: watchdogged hang answers typed FAILED[class=timeout] ----
  bool wedge_typed_timeout = false;
  {
    core::ServeOptions opts;
    opts.socket_path = socket_path;
    core::Server server(std::move(opts));
    server.start();
    fault::Plan plan;
    plan.mp_drop = 1.0;        // every message vanishes: the run wedges
    plan.mp_timeout_ms = 50.0; // ... until the recv watchdog fires
    const fault::ScopedPlan scoped(plan);
    core::ServeClient client(socket_path);
    const std::string r =
        client.request(predict_line({"ffvc", 2, 2}, "", 424242));
    wedge_typed_timeout =
        has_code(r, core::kCodeFailed) &&
        r.find("class=timeout") != std::string::npos;
    server.stop();
    server.wait();
    if (!wedge_typed_timeout) {
      fail("wedged run did not answer typed FAILED[class=timeout]: " + r);
    }
  }

  // ---- circuit leg ---------------------------------------------------------
  std::uint64_t circuit_trips = 0;
  std::uint64_t circuit_half_opens = 0;
  std::size_t circuit_rejections = 0;
  bool circuit_recovered = false;
  {
    core::ServeOptions opts;
    opts.socket_path = socket_path;
    opts.circuit.failure_threshold = 3;
    opts.circuit.window = 8;
    opts.circuit.open_ms = 200;
    core::Server server(std::move(opts));
    server.start();
    const std::string line = predict_line({"ffvc", 2, 2}, "", 515151);
    {
      fault::Plan plan;
      plan.run_fail = 1000000;  // every attempt of every key fails
      const fault::ScopedPlan scoped(plan);
      core::ServeClient client(socket_path);
      for (int i = 0; i < 8; ++i) {
        const std::string r = client.request(line);
        if (has_code(r, core::kCodeCircuitOpen)) ++circuit_rejections;
      }
    }
    if (circuit_rejections == 0) {
      fail("8 straight classed failures never answered CIRCUIT_OPEN");
    }
    // Plan lifted: after open_ms the half-open probe must run, succeed, and
    // close the circuit for everyone.
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    core::ServeClient client(socket_path);
    const std::string probe = client.request(line);
    const std::string after = client.request(line);
    circuit_recovered =
        probe.find("\"ok\":true") != std::string::npos &&
        after.find("\"ok\":true") != std::string::npos;
    if (!circuit_recovered) {
      fail("circuit did not close after the failing plan was lifted: " +
           probe);
    }
    const core::ServeStats stats = server.stats_snapshot();
    circuit_trips = stats.breaker_trips;
    circuit_half_opens = stats.breaker_half_opens;
    if (circuit_trips == 0 || circuit_half_opens == 0) {
      fail("breaker stats recorded no trips/half-opens");
    }
    server.stop();
    server.wait();
  }

  // ---- SIGKILL soak against a supervised external server ------------------
  std::vector<double> recovery_s;
  std::size_t soak_acked = 0;
  std::size_t soak_terminal_errors = 0;
  bool soak_byte_identical = true;
  bool zero_loss = true;
  bool supervisor_clean_exit = false;
  bool journal_newline_clean = false;
  int kills_done = 0;
  const std::string journal_path =
      (fs::path(work_root) / "resilience.journal").string();
  const std::string cache_dir =
      (fs::path(work_root) / "resilience-cache").string();
  if (!fs::exists(flags.server_binary)) {
    fail("server binary not found: " + flags.server_binary +
         " (pass --server <path to fibersim>)");
  } else {
    SupervisedServer server(
        flags.server_binary,
        {"serve", "--socket", socket_path, "--workers", "2", "--journal",
         journal_path, "--trace-cache", cache_dir, "--supervise",
         "--max-restarts", "50", "--restart-backoff-ms", "50"});
    if (await_ready(socket_path, 20.0) < 0) {
      fail("supervised server never became ready");
    }

    // Live load: every acked-ok payload is checked against the baseline the
    // moment it arrives; acked targets are remembered for the zero-loss
    // re-request after the final recovery.
    std::mutex acked_mutex;
    std::vector<bool> acked(kTargets.size(), false);
    std::atomic<bool> stop_load{false};
    std::vector<std::thread> load_threads;
    std::atomic<std::size_t> acked_count{0};
    std::atomic<std::size_t> terminal_errors{0};
    std::atomic<bool> byte_identical{true};
    for (int c = 0; c < flags.clients; ++c) {
      load_threads.emplace_back([&, c] {
        core::RetryPolicy policy;
        policy.attempts = 12;
        policy.backoff_ms = 25;
        policy.max_backoff_ms = 400;
        policy.seed = static_cast<std::uint64_t>(c + 1);
        for (int r = 0; r < flags.requests && !stop_load.load(); ++r) {
          const std::size_t t =
              static_cast<std::size_t>(c + r) % kTargets.size();
          try {
            const std::string response = core::request_with_retry(
                socket_path, predict_line(kTargets[t], strfmt("s%d-%d", c, r)),
                policy);
            if (response.find("\"ok\":true") != std::string::npos) {
              if (payload_of(response) != expected[t]) {
                byte_identical.store(false);
              }
              acked_count.fetch_add(1);
              std::lock_guard<std::mutex> lock(acked_mutex);
              acked[t] = true;
            } else {
              // Typed shed even after retries: allowed under chaos (the
              // client backed off cleanly); anything else is terminal.
              if (!has_code(response, core::kCodeBusy) &&
                  !has_code(response, core::kCodeShutdown) &&
                  !has_code(response, core::kCodeCircuitOpen)) {
                terminal_errors.fetch_add(1);
              }
            }
          } catch (const std::exception&) {
            // All attempts fell in a restart window; the client gave up
            // cleanly. Not a loss: nothing was acknowledged.
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
      });
    }

    // Chaos: SIGKILL the serving child mid-load, wait for the supervisor to
    // bring it back, measure time-to-ready.
    for (int k = 0; k < flags.kills; ++k) {
      std::this_thread::sleep_for(std::chrono::milliseconds(150));
      const pid_t victim = server.worker_pid();
      if (victim <= 0) {
        fail("chaos thread never learned the worker pid");
        break;
      }
      ::kill(victim, SIGKILL);
      ++kills_done;
      WallTimer timer;
      // Readiness probe doubles as the recovery clock: a new worker must
      // accept and answer a ping.
      const double waited = await_ready(socket_path, 20.0);
      if (waited < 0) {
        fail(strfmt("server did not recover from SIGKILL #%d", k + 1));
        break;
      }
      recovery_s.push_back(waited);
    }

    stop_load.store(true);
    for (std::thread& t : load_threads) t.join();
    soak_acked = acked_count.load();
    soak_terminal_errors = terminal_errors.load();
    soak_byte_identical = byte_identical.load();
    if (soak_acked == 0) fail("soak acknowledged zero requests");
    if (soak_terminal_errors != 0) {
      fail(strfmt("%zu terminal errors during the soak", soak_terminal_errors));
    }
    if (!soak_byte_identical) {
      fail("an acked soak payload diverged from the quiet baseline");
    }

    // Zero-loss: every config class acked before any crash must still be
    // answered after the final recovery, byte-identical. The journal (fsync
    // before ack) is what makes this hold across SIGKILL.
    for (std::size_t t = 0; t < kTargets.size(); ++t) {
      bool was_acked;
      {
        std::lock_guard<std::mutex> lock(acked_mutex);
        was_acked = acked[t];
      }
      if (!was_acked) continue;
      try {
        core::RetryPolicy policy;
        policy.attempts = 8;
        policy.backoff_ms = 50;
        const std::string response = core::request_with_retry(
            socket_path, predict_line(kTargets[t], strfmt("final%zu", t)),
            policy);
        if (response.find("\"ok\":true") == std::string::npos ||
            payload_of(response) != expected[t]) {
          zero_loss = false;
          fail("acked config lost or changed across SIGKILL: " + response);
        }
      } catch (const std::exception& e) {
        zero_loss = false;
        fail(std::string("zero-loss re-request failed: ") + e.what());
      }
    }

    // Clean drain: TERM the supervisor -> child drains -> both exit 0,
    // socket unlinked, journal newline-terminated (no torn tail), no torn
    // .tmp store entries.
    server.term();
    const int status = server.wait_exit();
    supervisor_clean_exit = status == 0;
    if (!supervisor_clean_exit) {
      fail(strfmt("supervisor exited %d after SIGTERM", status));
      std::cerr << server.output();
    }
  }
  if (fs::exists(socket_path)) {
    fail("socket file survived supervised shutdown");
  }
  {
    std::ifstream j(journal_path, std::ios::binary);
    std::ostringstream buf;
    buf << j.rdbuf();
    const std::string bytes = buf.str();
    journal_newline_clean = !bytes.empty() && bytes.back() == '\n';
    if (!journal_newline_clean) {
      fail("journal is empty or ends in a torn line after the soak");
    }
  }
  {
    if (has_staged_files(cache_dir)) {
      fail("trace store holds a half-published .tmp entry after the soak");
    }
  }

  // ---- report --------------------------------------------------------------
  double recovery_max_s = 0.0;
  double recovery_sum_s = 0.0;
  for (const double s : recovery_s) {
    recovery_max_s = std::max(recovery_max_s, s);
    recovery_sum_s += s;
  }
  const double recovery_mean_s =
      recovery_s.empty() ? 0.0 : recovery_sum_s / recovery_s.size();

  std::cout << strfmt(
      "deadline: %zu/%zu tight shed, %zu/%zu generous missed\n",
      deadline_tight_missed, deadline_tight_total, deadline_generous_missed,
      deadline_generous_total);
  std::cout << strfmt("wedge: typed FAILED[class=timeout] %s\n",
                      wedge_typed_timeout ? "yes" : "NO");
  std::cout << strfmt(
      "circuit: %llu trips, %llu half-opens, %zu fast rejections, "
      "recovered %s\n",
      static_cast<unsigned long long>(circuit_trips),
      static_cast<unsigned long long>(circuit_half_opens),
      circuit_rejections, circuit_recovered ? "yes" : "NO");
  std::cout << strfmt(
      "soak: %d SIGKILLs, %zu acked, recovery mean %.0f ms max %.0f ms, "
      "zero-loss %s, byte-identical %s\n",
      kills_done, soak_acked, recovery_mean_s * 1e3, recovery_max_s * 1e3,
      zero_loss ? "yes" : "NO", soak_byte_identical ? "yes" : "NO");

  using json::Layout;
  json::Emitter doc;
  doc.object(Layout::kBlock);
  doc.object("deadline", Layout::kBlock);
  doc.u64("tight_total", deadline_tight_total);
  doc.u64("tight_missed", deadline_tight_missed);
  doc.num("tight_miss_rate",
          deadline_tight_total > 0
              ? static_cast<double>(deadline_tight_missed) /
                    static_cast<double>(deadline_tight_total)
              : 0.0);
  doc.u64("generous_total", deadline_generous_total);
  doc.u64("generous_missed", deadline_generous_missed);
  doc.close();
  doc.object("wedge", Layout::kBlock);
  doc.boolean("typed_timeout", wedge_typed_timeout);
  doc.close();
  doc.object("circuit", Layout::kBlock);
  doc.u64("trips", circuit_trips);
  doc.u64("half_opens", circuit_half_opens);
  doc.u64("fast_rejections", circuit_rejections);
  doc.boolean("recovered", circuit_recovered);
  doc.close();
  doc.object("soak", Layout::kBlock);
  doc.i64("kills", kills_done);
  doc.u64("acked_responses", soak_acked);
  doc.u64("terminal_errors", soak_terminal_errors);
  doc.num("recovery_mean_ms", recovery_mean_s * 1e3);
  doc.num("recovery_max_ms", recovery_max_s * 1e3);
  doc.boolean("supervisor_clean_exit", supervisor_clean_exit);
  doc.boolean("journal_newline_clean", journal_newline_clean);
  doc.boolean("zero_loss", zero_loss);
  doc.boolean("byte_identical", soak_byte_identical);
  doc.close();
  doc.boolean("ok", ok);

  if (own_work_root) {
    std::error_code ec;
    fs::remove_all(work_root, ec);
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
