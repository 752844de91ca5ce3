#include "core/serve.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <initializer_list>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/log.hpp"
#include "common/report_emit.hpp"
#include "common/stats.hpp"
#include "common/string_util.hpp"
#include "core/experiment_registry.hpp"
#include "core/report_flags.hpp"
#include "core/sweep_pool.hpp"
#include "fault/fault.hpp"
#include "trace/serialize.hpp"

namespace fibersim::core {

namespace {

constexpr std::size_t kMaxLatencySamples = 65536;

/// Self-pipe write end for the signal handlers. One server per process may
/// install handlers at a time (documented on install_signal_handlers); the
/// handler itself only write()s, which is async-signal-safe.
std::atomic<int> g_signal_fd{-1};
struct sigaction g_old_sigint;
struct sigaction g_old_sigterm;

void signal_stop(int) {
  const int fd = g_signal_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char byte = 's';
    // The pipe is never full in practice (one byte per signal, drained at
    // shutdown); a failed write cannot be reported from a handler anyway.
    [[maybe_unused]] const ssize_t rc = ::write(fd, &byte, 1);
  }
}

/// write()/send() the whole buffer, retrying EINTR and short writes.
/// MSG_NOSIGNAL keeps a dead peer from raising SIGPIPE even if some other
/// component un-ignored it. Returns false once the peer is gone.
bool send_all(int fd, std::string_view bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

constexpr auto kCompact = json::Layout::kCompact;

/// `key`: an object of counters, in the order given.
void counters(
    json::Emitter& w, std::string_view key,
    std::initializer_list<std::pair<std::string_view, std::uint64_t>> fields) {
  w.object(key, kCompact);
  for (const auto& [name, value] : fields) w.u64(name, value);
  w.close();
}

void ignore_sigpipe() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = SIG_IGN;
  ::sigaction(SIGPIPE, &sa, nullptr);
}

}  // namespace

// ---------------------------------------------------------------------------
// internals

struct Server::Counters {
  std::atomic<std::uint64_t> connections{0};
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> responses{0};
  std::atomic<std::uint64_t> ping{0};
  std::atomic<std::uint64_t> stats{0};
  std::atomic<std::uint64_t> predict{0};
  std::atomic<std::uint64_t> report{0};
  std::atomic<std::uint64_t> bad_request{0};
  std::atomic<std::uint64_t> busy{0};
  std::atomic<std::uint64_t> shutdown{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> internal{0};
  std::atomic<std::uint64_t> deadline{0};
  std::atomic<std::uint64_t> circuit_open{0};
  std::atomic<std::uint64_t> dropped_responses{0};
  std::atomic<std::uint64_t> tier_memo{0};
  std::atomic<std::uint64_t> tier_disk{0};
  std::atomic<std::uint64_t> tier_native{0};
  std::atomic<std::uint64_t> tier_journal{0};
};

/// One accepted connection. The reader thread owns the fd's lifetime: it is
/// the only closer, and it closes under write_mutex so a worker writing a
/// late response can never race onto a recycled descriptor. teardown() only
/// shutdown()s (also under the mutex) to kick the reader out of recv.
///
/// `outstanding` counts this connection's requests sitting in the worker
/// queue or executing. A client may send a batch and half-close its write
/// side; EOF on the read side must not cut off responses the workers still
/// owe, so the reader waits for outstanding == 0 before closing.
struct Server::Conn {
  int fd = -1;
  std::mutex write_mutex;
  bool closed = false;           ///< guarded by write_mutex
  std::size_t outstanding = 0;   ///< guarded by write_mutex
  std::condition_variable idle;  ///< signalled when outstanding hits 0
};

struct Server::Task {
  ServeRequest req;
  std::shared_ptr<Conn> conn;
  std::chrono::steady_clock::time_point t0;
  /// Cancellation/deadline token ("deadline_ms" requests only).
  std::shared_ptr<cancel::Token> token;
  /// Circuit-breaker class key; always set for predict/report.
  std::string breaker_key;
  /// This task is the breaker's half-open probe; its outcome must be
  /// reported back (see CircuitDecision::probe).
  bool probe = false;
};

/// Work queue between connection readers and the worker pool. Admission
/// control lives in dispatch_line (the pending_ counter bounds queued +
/// executing requests), so push here never blocks and never fails until
/// shutdown.
class Server::Queue {
 public:
  void push(Task task) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      tasks_.push_back(std::move(task));
    }
    cv_.notify_one();
  }

  /// Blocks for work; empty after shutdown() means "workers go home".
  std::optional<Task> pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return shutdown_ || !tasks_.empty(); });
    if (tasks_.empty()) return std::nullopt;
    Task task = std::move(tasks_.front());
    tasks_.pop_front();
    return task;
  }

  void shutdown() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      shutdown_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Task> tasks_;
  bool shutdown_ = false;
};

// ---------------------------------------------------------------------------
// lifecycle

Server::Server(ServeOptions options)
    : options_(std::move(options)),
      breaker_(options_.circuit),
      queue_(std::make_unique<Queue>()),
      counters_(std::make_unique<Counters>()) {
  // The self-pipe exists for the Server's whole lifetime so stop() and
  // signal handlers work even before start() (the byte waits in the pipe
  // and the accept loop drains it immediately).
  if (::pipe(stop_pipe_) != 0) {
    throw Error(strfmt("serve: cannot create stop pipe: %s",
                       std::strerror(errno)));
  }
}

Server::~Server() {
  stop();
  wait();
  for (int& fd : stop_pipe_) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
}

void Server::start() {
  if (running_.load(std::memory_order_acquire)) {
    throw Error("serve: server already started");
  }
  ignore_sigpipe();

  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    throw Error(strfmt("serve: socket path exceeds %zu bytes: %s",
                       sizeof(addr.sun_path) - 1,
                       options_.socket_path.c_str()));
  }
  std::memcpy(addr.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size());

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw Error(strfmt("serve: cannot create socket: %s",
                       std::strerror(errno)));
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    if (errno != EADDRINUSE) {
      const std::string reason = std::strerror(errno);
      ::close(listen_fd_);
      listen_fd_ = -1;
      throw Error(strfmt("serve: cannot bind %s: %s",
                         options_.socket_path.c_str(), reason.c_str()));
    }
    // The path exists. Probe it: a live daemon accepts the connect and we
    // must refuse to steal its socket; a stale file from a dead daemon
    // refuses the connect and is safe to unlink and replace.
    const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
    const bool live =
        probe >= 0 &&
        ::connect(probe, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0;
    if (probe >= 0) ::close(probe);
    if (live) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      throw Error(strfmt("serve: %s is in use by a running server",
                         options_.socket_path.c_str()));
    }
    FS_LOG(kWarn) << "serve: replacing stale socket "
                  << options_.socket_path;
    ::unlink(options_.socket_path.c_str());
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      const std::string reason = std::strerror(errno);
      ::close(listen_fd_);
      listen_fd_ = -1;
      throw Error(strfmt("serve: cannot bind %s: %s",
                         options_.socket_path.c_str(), reason.c_str()));
    }
  }
  if (::listen(listen_fd_, 64) != 0) {
    const std::string reason = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(options_.socket_path.c_str());
    throw Error(strfmt("serve: cannot listen on %s: %s",
                       options_.socket_path.c_str(), reason.c_str()));
  }

  attach_trace_store(runner_, options_.trace_cache_dir);
  if (!options_.journal_path.empty()) {
    journal_ = std::make_shared<SweepJournal>(options_.journal_path);
    FS_LOG(kInfo) << "serve: journal " << options_.journal_path << " ("
                  << journal_->loaded() << " entries loaded"
                  << (journal_->recovered_tail_bytes() > 0
                          ? ", torn tail truncated"
                          : "")
                  << ")";
  }

  int workers = options_.workers;
  if (workers <= 0) workers = SweepPool::default_jobs();
  if (workers < 1) workers = 1;

  running_.store(true, std::memory_order_release);
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
  FS_LOG(kInfo) << "serve: listening on " << options_.socket_path << " ("
                << workers << " workers, queue "
                << options_.queue_capacity << ")";
}

void Server::stop() {
  if (draining_.exchange(true, std::memory_order_acq_rel)) return;
  if (stop_pipe_[1] >= 0) {
    const char byte = 's';
    [[maybe_unused]] const ssize_t rc = ::write(stop_pipe_[1], &byte, 1);
  }
}

void Server::install_signal_handlers() {
  g_signal_fd.store(stop_pipe_[1], std::memory_order_relaxed);
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = signal_stop;
  ::sigemptyset(&sa.sa_mask);
  // No SA_RESTART: the syscalls the workers sit in must see EINTR (they
  // retry), while the accept loop wakes via the pipe regardless.
  ::sigaction(SIGINT, &sa, &g_old_sigint);
  ::sigaction(SIGTERM, &sa, &g_old_sigterm);
  signals_installed_ = true;
}

void Server::wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
  teardown();
}

void Server::run() {
  start();
  wait();
}

void Server::teardown() {
  if (!running_.load(std::memory_order_acquire)) return;

  // Drain: the accept loop is gone (no new connections) and draining_ stops
  // new admissions, so pending_ only goes down. Every admitted request still
  // gets executed and answered before any socket is touched.
  {
    std::unique_lock<std::mutex> lock(pending_mutex_);
    pending_cv_.wait(lock, [&] { return pending_ == 0; });
  }
  queue_->shutdown();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();

  // Kick every reader out of recv(); they close their own fds on the way
  // out (see Conn), which keeps teardown clear of fd-recycling races.
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    for (const std::shared_ptr<Conn>& conn : conns_) {
      std::lock_guard<std::mutex> wlock(conn->write_mutex);
      if (!conn->closed) ::shutdown(conn->fd, SHUT_RDWR);
    }
  }
  for (std::thread& thread : conn_threads_) {
    if (thread.joinable()) thread.join();
  }
  conn_threads_.clear();
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    conns_.clear();
  }

  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  ::unlink(options_.socket_path.c_str());

  if (signals_installed_) {
    g_signal_fd.store(-1, std::memory_order_relaxed);
    ::sigaction(SIGINT, &g_old_sigint, nullptr);
    ::sigaction(SIGTERM, &g_old_sigterm, nullptr);
    signals_installed_ = false;
  }
  running_.store(false, std::memory_order_release);
  FS_LOG(kInfo) << "serve: shut down cleanly";
}

// ---------------------------------------------------------------------------
// threads

void Server::accept_loop() {
  while (!draining_.load(std::memory_order_acquire)) {
    pollfd fds[2];
    fds[0] = {listen_fd_, POLLIN, 0};
    fds[1] = {stop_pipe_[0], POLLIN, 0};
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      FS_LOG(kWarn) << "serve: poll failed: " << std::strerror(errno);
      break;
    }
    if ((fds[1].revents & POLLIN) != 0) {
      char drain[16];
      [[maybe_unused]] const ssize_t n =
          ::read(stop_pipe_[0], drain, sizeof(drain));
      stop();  // a signal delivered the byte directly; align draining_
      break;
    }
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      FS_LOG(kWarn) << "serve: accept failed: " << std::strerror(errno);
      break;
    }
    counters_->connections.fetch_add(1, std::memory_order_relaxed);
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    std::lock_guard<std::mutex> lock(conns_mutex_);
    conns_.push_back(conn);
    conn_threads_.emplace_back(
        [this, conn] { connection_loop(std::move(conn)); });
  }
  stop();
}

void Server::connection_loop(std::shared_ptr<Conn> conn) {
  std::string buffer;
  char chunk[4096];
  bool overflow = false;
  while (!overflow) {
    const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // reset / shutdown — either way the conversation is over
    }
    if (n == 0) break;  // clean EOF
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl = buffer.find('\n', start);
         nl != std::string::npos && !overflow; nl = buffer.find('\n', start)) {
      if (nl - start > options_.max_line_bytes) {
        overflow = true;  // a terminated line can bust the cap too
        break;
      }
      std::string line = buffer.substr(start, nl - start);
      start = nl + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;  // tolerate blank lines between requests
      dispatch_line(conn, line);
    }
    if (!overflow) {
      buffer.erase(0, start);
      overflow = buffer.size() > options_.max_line_bytes;
    }
    if (overflow) {
      // Past this point the framing cannot be trusted; answer once and
      // hang up rather than buffer unbounded garbage.
      counters_->requests.fetch_add(1, std::memory_order_relaxed);
      counters_->bad_request.fetch_add(1, std::memory_order_relaxed);
      write_response(
          conn, serve_error_response(
                    kCodeBadRequest, "",
                    strfmt("request line exceeds %zu bytes",
                           options_.max_line_bytes)));
    }
  }
  // Let the workers finish every response this connection is still owed
  // (drain guarantees they always decrement), then close. Sole closer of
  // the fd; under the write mutex so no worker can be mid-send when the
  // descriptor number is recycled.
  std::unique_lock<std::mutex> lock(conn->write_mutex);
  conn->idle.wait(lock, [&] { return conn->outstanding == 0; });
  conn->closed = true;
  ::close(conn->fd);
}

void Server::worker_loop() {
  while (std::optional<Task> task = queue_->pop()) {
    execute(std::move(*task));
  }
}

void Server::dispatch_line(const std::shared_ptr<Conn>& conn,
                           const std::string& line) {
  counters_->requests.fetch_add(1, std::memory_order_relaxed);
  ServeRequest req;
  const std::string problem = parse_serve_request(line, req);
  if (!problem.empty()) {
    counters_->bad_request.fetch_add(1, std::memory_order_relaxed);
    write_response(conn,
                   serve_error_response(kCodeBadRequest, req.id, problem));
    return;
  }
  switch (req.verb) {
    case ServeRequest::Verb::kPing: {
      counters_->ping.fetch_add(1, std::memory_order_relaxed);
      json::Emitter ok = serve_ok_envelope("ping", req.id);
      ok.str("payload", "pong");
      write_response(conn, std::move(ok).finish());
      return;
    }
    case ServeRequest::Verb::kStats: {
      counters_->stats.fetch_add(1, std::memory_order_relaxed);
      json::Emitter ok = serve_ok_envelope("stats", req.id);
      ok.raw("payload", stats_json());
      write_response(conn, std::move(ok).finish());
      return;
    }
    case ServeRequest::Verb::kPredict:
    case ServeRequest::Verb::kReport:
      break;
  }
  if (draining_.load(std::memory_order_acquire)) {
    counters_->shutdown.fetch_add(1, std::memory_order_relaxed);
    write_response(conn, serve_error_response(kCodeShutdown, req.id,
                                              "server is shutting down"));
    return;
  }
  // Circuit breaker: a config class that keeps failing answers fast here —
  // before the admission counter — so poisoned configs cannot occupy queue
  // slots or workers while the circuit is open.
  const std::string breaker_key = breaker_key_of(req);
  const CircuitDecision decision =
      breaker_.admit(breaker_key, std::chrono::steady_clock::now());
  if (!decision.admit) {
    counters_->circuit_open.fetch_add(1, std::memory_order_relaxed);
    write_response(
        conn, serve_error_response(
                  kCodeCircuitOpen, req.id,
                  "circuit open for " + breaker_key + "; retry later",
                  decision.retry_after_ms));
    return;
  }
  // Admission control: pending_ counts admitted-but-unanswered requests
  // (queued + executing). At capacity the request is shed immediately with
  // a typed BUSY — a client is never left hanging on a silent queue.
  {
    std::lock_guard<std::mutex> lock(pending_mutex_);
    if (pending_ >= static_cast<std::size_t>(options_.queue_capacity)) {
      counters_->busy.fetch_add(1, std::memory_order_relaxed);
      if (decision.probe) {
        // The probe never ran; re-open so the next one can be admitted.
        breaker_.record_failure(breaker_key, true,
                                std::chrono::steady_clock::now());
      }
      write_response(
          conn, serve_error_response(
                    kCodeBusy, req.id,
                    strfmt("server at capacity (%d admitted requests); "
                           "retry later",
                           options_.queue_capacity)));
      return;
    }
    ++pending_;
  }
  {
    std::lock_guard<std::mutex> lock(conn->write_mutex);
    ++conn->outstanding;
  }
  Task task;
  task.req = std::move(req);
  task.conn = conn;
  task.t0 = std::chrono::steady_clock::now();
  task.breaker_key = breaker_key;
  task.probe = decision.probe;
  if (task.req.deadline_ms > 0) {
    task.token = std::make_shared<cancel::Token>();
    task.token->set_deadline_ms(task.req.deadline_ms);
  }
  queue_->push(std::move(task));
}

// ---------------------------------------------------------------------------
// request execution

void Server::execute(Task task) {
  enum class Outcome { kOk, kDeadline, kFailed, kInternal };
  Outcome outcome = Outcome::kOk;
  const bool predict = task.req.verb == ServeRequest::Verb::kPredict;
  // kOk fills `ok` and `payload`; every other outcome is a whole `response`.
  json::Emitter ok =
      serve_ok_envelope(predict ? "predict" : "report", task.req.id);
  std::string payload;
  std::string response;
  if (task.token != nullptr && task.token->expired()) {
    // Already-expired queued work is shed without executing: the client has
    // (or should have) given up, so burning a worker on it only delays
    // requests that can still meet their deadlines.
    outcome = Outcome::kDeadline;
    counters_->deadline.fetch_add(1, std::memory_order_relaxed);
    response = serve_error_response(kCodeDeadline, task.req.id,
                                    "deadline expired before execution");
  } else {
    // Install the request's cancellation token for this worker thread; the
    // Runner and predict path checkpoint it at phase boundaries.
    cancel::Scope scope(task.token);
    try {
      if (predict) {
        counters_->predict.fetch_add(1, std::memory_order_relaxed);
        payload = execute_predict(task.req, ok);
      } else {
        counters_->report.fetch_add(1, std::memory_order_relaxed);
        payload = execute_report(task.req, ok);
      }
    } catch (const Error& e) {
      if (cancel::is_cancelled(e.what())) {
        // Deadline hit mid-execution: the Runner released its coalescing
        // claim on the way out, so waiters on the same key are not harmed.
        outcome = Outcome::kDeadline;
        counters_->deadline.fetch_add(1, std::memory_order_relaxed);
        response = serve_error_response(kCodeDeadline, task.req.id, e.what());
      } else {
        // Domain failures (fault injection included) are data for the
        // client: typed FAILED, tagged with the fault taxonomy's class.
        outcome = Outcome::kFailed;
        counters_->failed.fetch_add(1, std::memory_order_relaxed);
        const fault::ErrorClass c = fault::classify(e.what());
        response = serve_error_response(
            kCodeFailed, task.req.id,
            strfmt("%s [class=%s]", e.what(), fault::error_class_name(c)));
      }
    } catch (const std::exception& e) {
      outcome = Outcome::kInternal;
      counters_->internal.fetch_add(1, std::memory_order_relaxed);
      response = serve_error_response(kCodeInternal, task.req.id, e.what());
    }
  }

  // Tell the breaker how the config class behaved. Deadline sheds carry no
  // signal about the config (a slow-but-healthy config must not trip the
  // circuit) — except a shed probe, which must re-open the circuit so the
  // probe slot is not leaked.
  const auto breaker_now = std::chrono::steady_clock::now();
  switch (outcome) {
    case Outcome::kOk:
      breaker_.record_success(task.breaker_key, task.probe, breaker_now);
      break;
    case Outcome::kFailed:
    case Outcome::kInternal:
      breaker_.record_failure(task.breaker_key, task.probe, breaker_now);
      break;
    case Outcome::kDeadline:
      if (task.probe) {
        breaker_.record_failure(task.breaker_key, true, breaker_now);
      }
      break;
  }

  const double micros =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - task.t0)
          .count();
  record_latency(micros);
  // Error responses carry no payload and stay schema-minimal.
  if (outcome == Outcome::kOk) {
    ok.raw("latency_us", strfmt("%.0f", micros));
    ok.raw("payload", payload);
    response = std::move(ok).finish();
  }
  write_response(task.conn, response);

  {
    std::lock_guard<std::mutex> lock(task.conn->write_mutex);
    if (--task.conn->outstanding == 0) task.conn->idle.notify_all();
  }
  std::size_t left;
  {
    std::lock_guard<std::mutex> lock(pending_mutex_);
    left = --pending_;
  }
  if (left == 0) pending_cv_.notify_all();
}

std::string Server::execute_predict(const ServeRequest& req,
                                    json::Emitter& reply) {
  const char* tier_name = nullptr;
  ExperimentResult res;
  if (journal_ != nullptr && journal_->lookup(req.config, &res)) {
    // Journal fast path: the result was fsync()ed before a previous ack, so
    // a restarted server answers it without re-running anything. Doubles
    // round-trip bit-exactly, so the payload is byte-identical.
    journal_hits_.fetch_add(1, std::memory_order_relaxed);
    counters_->tier_journal.fetch_add(1, std::memory_order_relaxed);
    tier_name = "journal";
  } else {
    RunTier tier = RunTier::kNative;
    res = runner_.run(req.config, 0, &tier);
    if (journal_ != nullptr && !journal_->record(req.config, res)) {
      // Not fatal — the simulator is deterministic, so a crash just costs a
      // re-run — but the durability promise is weakened; say so.
      FS_LOG(kWarn) << "serve: journal append failed for "
                    << req.config.label();
    }
    switch (tier) {
      case RunTier::kMemo:
        counters_->tier_memo.fetch_add(1, std::memory_order_relaxed);
        break;
      case RunTier::kDisk:
        counters_->tier_disk.fetch_add(1, std::memory_order_relaxed);
        break;
      case RunTier::kNative:
        counters_->tier_native.fetch_add(1, std::memory_order_relaxed);
        break;
    }
    tier_name = run_tier_name(tier);
  }
  reply.str("tier", tier_name);
  reply.boolean("verified", res.verified);
  // Payload contract: the raw prediction JSON, byte-identical to the line
  // `fibersim run --json` prints for the same config.
  return trace::to_json(res.prediction);
}

std::string Server::breaker_key_of(const ServeRequest& req) {
  if (req.verb == ServeRequest::Verb::kReport) {
    return "report/" + req.report_id;
  }
  return strfmt("predict/%s/%s/%dx%d", req.config.app.c_str(),
                apps::dataset_name(req.config.dataset), req.config.ranks,
                req.config.threads);
}

std::string Server::execute_report(const ServeRequest& req,
                                   json::Emitter& reply) {
  std::ostringstream text;
  write_report(ExperimentRegistry::instance().get(req.report_id), req.report,
               runner_, text);
  reply.str("format", report_format_name(req.report.format));
  // Payload contract: a JSON string holding exactly the bytes `fibersim
  // report <id>` would print.
  json::Emitter payload;
  payload.str(text.str());
  return std::move(payload).finish();
}

bool Server::write_response(const std::shared_ptr<Conn>& conn,
                            const std::string& line) {
  std::lock_guard<std::mutex> lock(conn->write_mutex);
  if (conn->closed || !send_all(conn->fd, line + "\n")) {
    // The client disconnected before its answer; normal server weather.
    counters_->dropped_responses.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  counters_->responses.fetch_add(1, std::memory_order_relaxed);
  return true;
}

// ---------------------------------------------------------------------------
// stats

void Server::record_latency(double micros) {
  std::lock_guard<std::mutex> lock(latency_mutex_);
  if (latency_us_.size() < kMaxLatencySamples) {
    latency_us_.push_back(micros);
  } else {
    latency_us_[latency_next_] = micros;
    latency_next_ = (latency_next_ + 1) % kMaxLatencySamples;
  }
  ++latency_count_;
}

ServeStats Server::stats_snapshot() const {
  const Counters& c = *counters_;
  ServeStats s;
  s.connections = c.connections.load(std::memory_order_relaxed);
  s.requests = c.requests.load(std::memory_order_relaxed);
  s.responses = c.responses.load(std::memory_order_relaxed);
  s.ping = c.ping.load(std::memory_order_relaxed);
  s.stats = c.stats.load(std::memory_order_relaxed);
  s.predict = c.predict.load(std::memory_order_relaxed);
  s.report = c.report.load(std::memory_order_relaxed);
  s.bad_request = c.bad_request.load(std::memory_order_relaxed);
  s.busy = c.busy.load(std::memory_order_relaxed);
  s.shutdown = c.shutdown.load(std::memory_order_relaxed);
  s.failed = c.failed.load(std::memory_order_relaxed);
  s.internal = c.internal.load(std::memory_order_relaxed);
  s.deadline = c.deadline.load(std::memory_order_relaxed);
  s.circuit_open = c.circuit_open.load(std::memory_order_relaxed);
  s.dropped_responses = c.dropped_responses.load(std::memory_order_relaxed);
  s.tier_memo = c.tier_memo.load(std::memory_order_relaxed);
  s.tier_disk = c.tier_disk.load(std::memory_order_relaxed);
  s.tier_native = c.tier_native.load(std::memory_order_relaxed);
  s.tier_journal = c.tier_journal.load(std::memory_order_relaxed);
  const CircuitStats cs = breaker_.stats();
  s.breaker_trips = cs.trips;
  s.breaker_half_opens = cs.half_opens;
  s.breaker_open_now = cs.open_now;
  std::vector<double> latencies;
  {
    std::lock_guard<std::mutex> lock(latency_mutex_);
    s.latency_samples = latency_count_;
    latencies = latency_us_;
  }
  if (!latencies.empty()) {
    s.latency_p50_us = percentile(latencies, 0.50);
    s.latency_p99_us = percentile(std::move(latencies), 0.99);
  }
  return s;
}

std::string Server::stats_json() const {
  const ServeStats s = stats_snapshot();
  json::Emitter w;
  w.object(kCompact);
  w.u64("connections", s.connections);
  w.u64("requests", s.requests);
  w.u64("responses", s.responses);
  counters(w, "verbs", {{"ping", s.ping}, {"stats", s.stats},
                        {"predict", s.predict}, {"report", s.report}});
  counters(w, "errors",
           {{"bad_request", s.bad_request}, {"busy", s.busy},
            {"shutdown", s.shutdown}, {"failed", s.failed},
            {"internal", s.internal}, {"deadline", s.deadline},
            {"circuit_open", s.circuit_open},
            {"dropped_responses", s.dropped_responses}});
  counters(w, "tiers", {{"memo", s.tier_memo}, {"disk", s.tier_disk},
                        {"native", s.tier_native},
                        {"journal", s.tier_journal}});
  counters(w, "breaker", {{"trips", s.breaker_trips},
                          {"half_opens", s.breaker_half_opens},
                          {"open_now", s.breaker_open_now}});
  if (journal_ != nullptr) {
    counters(w, "journal",
             {{"loaded", journal_->loaded()},
              {"hits", journal_hits_.load(std::memory_order_relaxed)},
              {"recovered_tail_bytes", journal_->recovered_tail_bytes()}});
  } else {
    w.null("journal");
  }
  w.object("latency_us", kCompact);
  w.u64("samples", s.latency_samples);
  w.raw("p50", strfmt("%.1f", s.latency_p50_us));
  w.raw("p99", strfmt("%.1f", s.latency_p99_us));
  w.close();
  counters(w, "runner", {{"native_runs", runner_.native_runs()},
                         {"disk_hits", runner_.disk_hits()},
                         {"disk_writes", runner_.disk_writes()},
                         {"codegen_lookups", runner_.codegen_lookups()},
                         {"codegen_hits", runner_.codegen_hits()},
                         {"exec_lookups", runner_.exec_lookups()},
                         {"exec_hits", runner_.exec_hits()}});
  counters(w, "collapse",
           {{"classes", runner_.collapse_classes()},
            {"native_ranks", runner_.collapse_native_ranks()},
            {"replicated_ranks", runner_.collapse_replicated_ranks()}});
  const std::shared_ptr<trace::TraceStore>& store = runner_.trace_store();
  if (store != nullptr) {
    const trace::TraceStore::Stats ts = store->stats();
    counters(w, "store", {{"loads", ts.loads}, {"hits", ts.hits},
                          {"writes", ts.writes}, {"evictions", ts.evictions}});
  } else {
    w.null("store");
  }
  return std::move(w).finish();
}

// ---------------------------------------------------------------------------
// client

namespace {

int connect_unix(const std::string& socket_path) {
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    throw Error(strfmt("serve client: socket path exceeds %zu bytes: %s",
                       sizeof(addr.sun_path) - 1, socket_path.c_str()));
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size());
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    throw Error(strfmt("serve client: cannot create socket: %s",
                       std::strerror(errno)));
  }
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    const std::string reason = std::strerror(errno);
    ::close(fd);
    throw Error(strfmt("serve client: cannot connect to %s: %s",
                       socket_path.c_str(), reason.c_str()));
  }
  return fd;
}

}  // namespace

ServeClient::ServeClient(const std::string& socket_path)
    : fd_(connect_unix(socket_path)) {}

ServeClient::~ServeClient() {
  if (fd_ >= 0) ::close(fd_);
}

void ServeClient::send_line(const std::string& line) {
  if (fd_ < 0 || !send_all(fd_, line + "\n")) {
    throw Error("serve client: connection broken during send");
  }
}

std::optional<std::string> ServeClient::read_line() {
  while (true) {
    const std::size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      return line;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw Error(strfmt("serve client: recv failed: %s",
                         std::strerror(errno)));
    }
    if (n == 0) {
      if (buffer_.empty()) return std::nullopt;
      std::string line = std::move(buffer_);  // unterminated trailing line
      buffer_.clear();
      return line;
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

std::string ServeClient::request(const std::string& line) {
  send_line(line);
  std::optional<std::string> response = read_line();
  if (!response) {
    throw Error("serve client: server closed the connection");
  }
  return *std::move(response);
}

void ServeClient::shutdown_write() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

void ServeClient::abort() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

// ---------------------------------------------------------------------------
// retry

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Typed responses that mean "try again later" — the server is healthy but
/// shedding (BUSY), draining before a supervisor restart (SHUTDOWN), or
/// protecting a config class (CIRCUIT_OPEN). Everything else is terminal.
bool retryable_response(const std::string& response) {
  return response.find("\"code\":\"BUSY\"") != std::string::npos ||
         response.find("\"code\":\"SHUTDOWN\"") != std::string::npos ||
         response.find("\"code\":\"CIRCUIT_OPEN\"") != std::string::npos;
}

}  // namespace

std::string request_with_retry(const std::string& socket_path,
                               const std::string& line,
                               const RetryPolicy& policy) {
  FS_REQUIRE(policy.attempts >= 1, "retry policy needs attempts >= 1");
  FS_REQUIRE(policy.backoff_ms >= 1, "retry policy needs backoff_ms >= 1");
  std::string last_shed;
  std::int64_t backoff = policy.backoff_ms;
  for (int attempt = 0; attempt < policy.attempts; ++attempt) {
    if (attempt > 0) {
      // Deterministic jitter in [backoff/2, backoff]: spreads a thundering
      // herd without making bench runs irreproducible.
      const std::uint64_t h =
          splitmix64(policy.seed ^ (static_cast<std::uint64_t>(attempt)
                                    << 32));
      const std::int64_t half = backoff / 2;
      const std::int64_t sleep_ms =
          half + static_cast<std::int64_t>(
                     h % static_cast<std::uint64_t>(half + 1));
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
      backoff = backoff * 2 < policy.max_backoff_ms ? backoff * 2
                                                    : policy.max_backoff_ms;
    }
    try {
      // Fresh connection per attempt: a SHUTDOWN answer or a supervisor
      // restart invalidates the old one.
      ServeClient client(socket_path);
      std::string response = client.request(line);
      if (!retryable_response(response)) return response;
      last_shed = std::move(response);
    } catch (const Error&) {
      // Connect/transport failure — the restart window. Retry; rethrow only
      // if every attempt failed this way (no typed response to hand back).
      if (attempt + 1 == policy.attempts && last_shed.empty()) throw;
    }
  }
  return last_shed;  // attempts exhausted: the last typed shed response
}

}  // namespace fibersim::core
