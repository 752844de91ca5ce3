// fibersim::cancel — cooperative per-request cancellation and deadlines.
//
// A Token is one request's cancellation state: an explicit cancel() (server
// shutdown, client gone) or an absolute steady-clock deadline. Work honours
// it cooperatively: the code that executes a request installs the token
// with a Scope and long-running code calls checkpoint() at phase boundaries
// — the Runner before claiming/running a native execution, the predict path
// between phases. checkpoint() throws fibersim::Error prefixed with
// kCancelMarker, so unwind paths (the serve worker, the coalescing claim)
// can tell a cancelled request from a genuine failure and answer with a
// typed DEADLINE instead of FAILED.
//
// The current token follows the execution context, not the OS thread. A
// context on the rt fiber pool starts with the token of the code that forked
// it (rt::fork_join), and every context switch saves and restores it, so a
// sweep task or predict phase checks its request's token wherever it runs,
// and a Scope opened inside a context is seen by that context alone. Outside
// the pool the current token is the thread's.
//
// Cost when no token is installed: one thread_local load per checkpoint —
// the sweep/predict hot paths pay nothing measurable.
//
// Tokens are shared_ptr-shared between the connection that may cancel and
// the worker that executes; every method is thread-safe. The deadline is
// stored as a steady-clock tick count in one atomic so expired() is
// lock-free.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace fibersim::cancel {

/// Prefix of every cancellation error message (see is_cancelled()).
inline constexpr const char* kCancelMarker = "cancelled:";

class Token {
 public:
  using Clock = std::chrono::steady_clock;

  /// Arm an absolute deadline; expired() flips once now >= deadline.
  void set_deadline(Clock::time_point deadline) {
    deadline_ns_.store(deadline.time_since_epoch().count(),
                       std::memory_order_release);
  }
  /// Deadline `ms` milliseconds from now.
  void set_deadline_ms(std::int64_t ms) {
    set_deadline(Clock::now() + std::chrono::milliseconds(ms));
  }

  /// Explicit cancellation (idempotent; the first reason wins).
  void cancel(std::string_view reason);

  bool has_deadline() const {
    return deadline_ns_.load(std::memory_order_acquire) != kNoDeadline;
  }
  /// True once cancelled or past the deadline. Lock-free.
  bool expired() const;
  /// Why: "deadline exceeded" or the cancel() reason ("" while live).
  std::string reason() const;

 private:
  static constexpr std::int64_t kNoDeadline =
      std::numeric_limits<std::int64_t>::min();

  std::atomic<std::int64_t> deadline_ns_{kNoDeadline};
  std::atomic<bool> cancelled_{false};
  mutable std::mutex reason_mutex_;
  std::string reason_;
};

/// Install `token` as the caller's current token for the Scope's lifetime
/// (nestable; the previous token is restored). A null token is a no-op
/// scope.
class Scope {
 public:
  explicit Scope(std::shared_ptr<Token> token);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  std::shared_ptr<Token> token_;  // keeps the installed token alive
  Token* previous_;
};

/// The caller's current token (null outside any Scope).
Token* current();

/// The calling thread's current-token slot, for the fiber pool to save and
/// restore on a context switch. Not inlined, and opaque to the optimiser: a
/// context that parks may resume on another thread.
Token** current_slot();

/// Throw fibersim::Error("cancelled: <reason>") iff the current token is
/// expired; no-op otherwise (and free when no token is installed).
void checkpoint();

/// True iff `what` came from checkpoint()/a cancelled token (marker prefix).
bool is_cancelled(std::string_view what);

}  // namespace fibersim::cancel
