#include "core/sweep_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "common/string_util.hpp"
#include "core/journal.hpp"
#include "fault/fault.hpp"
#include "rt/fiber.hpp"

namespace fibersim::core {

SweepPool::SweepPool(int jobs) : jobs_(jobs > 0 ? jobs : default_jobs()) {
  FS_REQUIRE(jobs_ <= 4096, "job count unreasonably large");
}

int SweepPool::default_jobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

bool SweepOutcome::completed(std::size_t i) const {
  return failure(i) == nullptr;
}

const TaskFailure* SweepOutcome::failure(std::size_t i) const {
  for (const TaskFailure& f : failures) {
    if (f.index == i) return &f;
  }
  return nullptr;
}

namespace {

/// Runs the sweep watchdog on its own thread: while active, mailbox pops
/// register their waits, and any wait older than `watchdog_s` is doomed with
/// a snapshot of everything blocked at that moment — the waiter unwinds with
/// that diagnostic instead of hanging the sweep. The watchdog itself never
/// touches a mailbox (WaitRegistry only), so it cannot deadlock with them.
class Watchdog {
 public:
  explicit Watchdog(double watchdog_s) : timeout_s_(watchdog_s) {
    if (timeout_s_ <= 0.0) return;
    fault::WaitRegistry::instance().watch(true);
    thread_ = std::thread([this] { loop(); });
  }

  ~Watchdog() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
    fault::WaitRegistry::instance().watch(false);
  }

 private:
  void loop() {
    auto& registry = fault::WaitRegistry::instance();
    std::unique_lock<std::mutex> lock(mutex_);
    const auto beat = std::chrono::duration<double>(
        std::min(0.25, std::max(0.01, timeout_s_ / 4.0)));
    while (!cv_.wait_for(lock, beat, [this] { return stop_; })) {
      const std::string blocked = registry.describe();
      const int doomed = registry.doom_older_than(
          timeout_s_,
          strfmt("no progress for %.1fs; blocked: %s", timeout_s_,
                 blocked.c_str()));
      if (doomed > 0) {
        FS_LOG(kWarn) << "sweep watchdog fired (" << doomed
                      << " blocked waits): " << blocked;
      }
    }
  }

  double timeout_s_;
  std::thread thread_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

std::string error_text(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown exception";
  }
}

}  // namespace

std::vector<std::exception_ptr> SweepPool::fan_out(
    std::size_t n, const std::function<void(std::size_t)>& task) const {
  // Slot i belongs exclusively to the context that claimed index i; the
  // join is the synchronisation point.
  std::vector<std::exception_ptr> errors(n);
  if (n == 0) return errors;
  std::atomic<std::size_t> next{0};
  const std::size_t tasks = std::min(static_cast<std::size_t>(jobs_), n);
  rt::fork_join(static_cast<int>(tasks), [&](int) {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        task(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  });
  return errors;
}

SweepOutcome SweepPool::run_resilient(
    Runner& runner, const std::vector<ExperimentConfig>& configs,
    const SweepControl& control) const {
  FS_REQUIRE(control.max_retries >= 0, "max_retries must be >= 0");
  FS_REQUIRE(control.backoff_s >= 0.0, "backoff_s must be >= 0");
  const std::size_t n = configs.size();

  SweepOutcome outcome;
  outcome.results.resize(n);
  // Slot i of `attempts` belongs exclusively to the task that claimed
  // index i, as in fan_out().
  std::vector<int> attempts(n, 0);

  Watchdog watchdog(control.watchdog_s);

  const std::vector<std::exception_ptr> errors = fan_out(n, [&](std::size_t i) {
    const ExperimentConfig& config = configs[i];
    if (control.journal != nullptr &&
        control.journal->lookup(config, &outcome.results[i])) {
      return;
    }
    for (int attempt = 0;; ++attempt) {
      attempts[i] = attempt + 1;
      try {
        outcome.results[i] = runner.run(config, attempt);
        if (control.journal != nullptr) {
          control.journal->record(config, outcome.results[i]);
        }
        return;
      } catch (...) {
        // A cancelled attempt is not retried: the retry would fail at the
        // same checkpoint.
        if (attempt >= control.max_retries ||
            cancel::is_cancelled(error_text(std::current_exception()))) {
          throw;
        }
        // Exponential backoff: wall-clock courtesy only; the retry
        // *sequence* (and with a fault plan, the fault pattern per attempt)
        // is deterministic regardless of these sleeps.
        rt::sleep_for(std::chrono::duration<double>(
            control.backoff_s * static_cast<double>(1 << std::min(attempt, 20))));
      }
    }
  });

  for (std::size_t i = 0; i < n; ++i) {
    if (!errors[i]) continue;
    TaskFailure failure;
    failure.index = i;
    failure.attempts = attempts[i];
    failure.message = error_text(errors[i]);
    failure.reason = fault::error_class_name(fault::classify(failure.message));
    failure.error = errors[i];
    outcome.failures.push_back(std::move(failure));
  }

  // Rethrow deterministically: the failure of the lowest config index wins,
  // independent of which task hit it first.
  if (!control.keep_going && !outcome.failures.empty()) {
    std::rethrow_exception(outcome.failures.front().error);
  }
  return outcome;
}

std::vector<ExperimentResult> SweepPool::run(
    Runner& runner, const std::vector<ExperimentConfig>& configs) const {
  SweepControl control;  // no retries, fail-fast, no watchdog, no journal
  return run_resilient(runner, configs, control).results;
}

}  // namespace fibersim::core
