// `fibersim serve` — a long-lived prediction daemon in front of the Runner.
//
// Serves line-delimited JSON requests (see serve_codec.hpp) to many
// concurrent clients over a Unix-domain stream socket — no external
// dependencies. Architecture (DESIGN.md "Serve daemon"):
//
//   * one accept thread (poll on the listen socket + a self-pipe so both a
//     signal and stop() interrupt it);
//   * one reader thread per connection: splits lines, parses requests,
//     answers ping/stats inline (the control plane stays responsive under
//     load), and submits predict/report work to the queue;
//   * a fixed worker pool draining one bounded queue. Admission control is
//     load-shedding, never blocking: when the queue is full the client gets
//     an immediate typed BUSY response; during shutdown, typed SHUTDOWN.
//   * one shared Runner: concurrent identical predict requests coalesce
//     onto a single native run via the Runner's per-key claim, and the
//     persistent TraceStore warm-starts across daemon restarts.
//
// Robustness contract:
//   * SIGPIPE is ignored process-wide and every socket op retries EINTR, so
//     a client disconnecting mid-response can never kill the server;
//   * malformed bytes produce typed BAD_REQUEST responses, execution
//     failures (fault injection included) typed FAILED — zero uncaught
//     exceptions whatever arrives on the wire;
//   * SIGINT/SIGTERM (or stop()) drain: no new work is admitted, queued and
//     in-flight requests complete and get their responses, the TraceStore
//     finishes its atomic publications, and the socket file is unlinked.
//
// Resilience layer (this file + circuit.hpp + supervise.hpp):
//   * requests may carry "deadline_ms"; expired work — still queued or at a
//     phase boundary mid-execution — is shed with a typed DEADLINE response
//     and the Runner's coalescing claim is released so waiters never block
//     behind a cancelled leader;
//   * a per-config-class circuit breaker answers CIRCUIT_OPEN fast for
//     configs that keep failing, half-opening with probe requests;
//   * an optional write-ahead result journal (SweepJournal, fsync-before-
//     ack) makes acknowledged predict results durable across kill -9: a
//     restarted server answers them from the journal (tier "journal"),
//     byte-identically.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.hpp"
#include "core/circuit.hpp"
#include "core/journal.hpp"
#include "core/runner.hpp"
#include "core/serve_codec.hpp"

namespace fibersim::core {

struct ServeOptions {
  std::string socket_path = "fibersim.sock";
  /// Worker threads executing predict/report requests; <= 0 selects
  /// SweepPool::default_jobs().
  int workers = 0;
  /// Admitted-but-unfinished request cap (queued + executing). Beyond it,
  /// requests are shed with a typed BUSY response.
  int queue_capacity = 64;
  /// Longest accepted request line; longer input is a BAD_REQUEST and the
  /// connection closes (framing cannot be trusted past an oversized line).
  std::size_t max_line_bytes = 1 << 20;
  /// Attach a persistent TraceStore ("" = honour FIBERSIM_TRACE_CACHE).
  std::string trace_cache_dir;
  /// Write-ahead result journal ("" = none). Completed predict results are
  /// fsync()ed here before the response is written, so an acknowledged
  /// result survives kill -9 and is answered from the journal (tier
  /// "journal") after a restart.
  std::string journal_path;
  /// Circuit-breaker tuning (failure threshold / window / open time).
  CircuitOptions circuit;
};

/// Monotonic counters plus a latency summary; one coherent-enough snapshot
/// (relaxed atomics — the stats verb reports a running system).
struct ServeStats {
  std::uint64_t connections = 0;
  std::uint64_t requests = 0;   ///< parsed lines, good or bad
  std::uint64_t responses = 0;  ///< response lines written successfully
  std::uint64_t ping = 0;
  std::uint64_t stats = 0;
  std::uint64_t predict = 0;
  std::uint64_t report = 0;
  std::uint64_t bad_request = 0;
  std::uint64_t busy = 0;
  std::uint64_t shutdown = 0;
  std::uint64_t failed = 0;
  std::uint64_t internal = 0;
  std::uint64_t deadline = 0;      ///< shed with a typed DEADLINE
  std::uint64_t circuit_open = 0;  ///< shed with a typed CIRCUIT_OPEN
  std::uint64_t dropped_responses = 0;  ///< client gone before the write
  std::uint64_t tier_memo = 0;
  std::uint64_t tier_disk = 0;
  std::uint64_t tier_native = 0;
  std::uint64_t tier_journal = 0;  ///< predict answered from the journal
  std::uint64_t breaker_trips = 0;
  std::uint64_t breaker_half_opens = 0;
  std::uint64_t breaker_open_now = 0;
  std::uint64_t latency_samples = 0;
  double latency_p50_us = 0.0;
  double latency_p99_us = 0.0;
};

class Server {
 public:
  explicit Server(ServeOptions options);
  ~Server();  ///< stop() + wait() if still running

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind the socket (replacing a stale file left by a dead daemon; refusing
  /// a path another live server owns), ignore SIGPIPE process-wide, and
  /// spawn the accept/worker threads. Throws fibersim::Error on bind
  /// failures.
  void start();

  /// Block until the server has fully shut down (stop() or a signal after
  /// install_signal_handlers()), then tear down: drain admitted work, join
  /// every thread, close every socket, unlink the socket file.
  void wait();

  /// Trigger drain + shutdown; idempotent, callable from any thread.
  void stop();

  /// start() + wait() — the CLI's blocking entry point.
  void run();

  /// Route SIGINT/SIGTERM to stop(), which is async-signal-safe: new work is
  /// refused from the moment the handler returns. Restored by wait(). One
  /// server per process may install handlers at a time.
  void install_signal_handlers();

  bool running() const { return running_.load(std::memory_order_acquire); }
  const std::string& socket_path() const { return options_.socket_path; }
  Runner& runner() { return runner_; }
  ServeStats stats_snapshot() const;
  /// The stats verb's response payload (also what `stats` clients see).
  std::string stats_json() const;

 private:
  struct Conn;
  struct Task;
  class Queue;

  void accept_loop();
  void connection_loop(std::shared_ptr<Conn> conn);
  void worker_loop();
  /// Handle one parsed line from a connection (inline verbs answered here,
  /// work admitted to the queue or shed).
  void dispatch_line(const std::shared_ptr<Conn>& conn,
                     const std::string& line);
  void execute(Task task);
  /// Execute one predict (journal fast path included), bump the tier
  /// counter for the tier that answered, write the verb's fields into the
  /// opened ok envelope `reply`, and return the rendered payload value.
  std::string execute_predict(const ServeRequest& req, json::Emitter& reply);
  std::string execute_report(const ServeRequest& req, json::Emitter& reply);
  /// Breaker key for a request: its config class, not the exact config —
  /// "predict/<app>/<dataset>/<ranks>x<threads>" or "report/<id>".
  static std::string breaker_key_of(const ServeRequest& req);
  bool write_response(const std::shared_ptr<Conn>& conn,
                      const std::string& line);
  void record_latency(double micros);
  void teardown();

  ServeOptions options_;
  Runner runner_;
  CircuitBreaker breaker_;
  std::shared_ptr<SweepJournal> journal_;  // null when journaling is off
  std::atomic<std::uint64_t> journal_hits_{0};

  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  int listen_fd_ = -1;
  int stop_pipe_[2] = {-1, -1};
  bool signals_installed_ = false;

  std::thread accept_thread_;
  std::vector<std::thread> workers_;
  std::unique_ptr<Queue> queue_;

  std::mutex conns_mutex_;
  std::vector<std::shared_ptr<Conn>> conns_;
  std::vector<std::thread> conn_threads_;

  // Admitted (queued + executing) requests; drain waits for zero.
  std::mutex pending_mutex_;
  std::condition_variable pending_cv_;
  std::size_t pending_ = 0;

  mutable std::mutex latency_mutex_;
  std::vector<double> latency_us_;  ///< bounded ring (kMaxLatencySamples)
  std::size_t latency_next_ = 0;
  std::uint64_t latency_count_ = 0;

  struct Counters;
  std::unique_ptr<Counters> counters_;
};

/// Minimal blocking client for the daemon: tests, the load-generator bench
/// and the CI smoke leg all speak through this. Not thread-safe.
class ServeClient {
 public:
  /// Connects immediately; throws fibersim::Error on failure.
  explicit ServeClient(const std::string& socket_path);
  ~ServeClient();

  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;

  /// Send one request line (LF appended). Throws on a broken connection.
  void send_line(const std::string& line);
  /// Read one LF-terminated response line (LF stripped); nullopt on EOF.
  std::optional<std::string> read_line();
  /// send_line + read_line; throws if the server closed the connection.
  std::string request(const std::string& line);
  /// Half-close the write side (EOF to the server; responses still read).
  void shutdown_write();
  /// Hard-close without reading the pending response (disconnect tests).
  void abort();

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// Client-side retry policy for typed shed responses (BUSY / SHUTDOWN /
/// CIRCUIT_OPEN) and connection failures (server restarting under a
/// supervisor). Backoff is exponential with deterministic jitter hashed
/// from (seed, attempt), so bench runs are reproducible.
struct RetryPolicy {
  int attempts = 5;  ///< total tries (first + retries)
  std::int64_t backoff_ms = 50;
  std::int64_t max_backoff_ms = 2000;
  std::uint64_t seed = 1;
};

/// Send `line`, reconnecting per attempt, retrying typed BUSY / SHUTDOWN /
/// CIRCUIT_OPEN responses and connect/transport errors with jittered
/// exponential backoff. Returns the first non-retryable response (ok or a
/// terminal typed error). After exhausting attempts, returns the last typed
/// shed response if one was received, else throws the last transport error.
std::string request_with_retry(const std::string& socket_path,
                               const std::string& line,
                               const RetryPolicy& policy = {});

}  // namespace fibersim::core
