// SweepPool — parallel execution of independent experiment configs.
//
// The paper's evaluation is sweeps (every MPI x OMP split, stride policy,
// allocation policy, processor...). Each point is independent, the model is
// analytic and seeded, and the Runner coalesces duplicate native runs — so a
// sweep can run its points concurrently without perturbing a single reported
// number. Its tasks are contexts on the rt fiber pool, the same workers that
// run every native rank; each starts with the caller's cancel token. The
// pool guarantees deterministic output: results[i] always corresponds to
// configs[i], whatever order the tasks finish in, and a sweep run with N
// tasks in flight is byte-identical to the same sweep run serially.
//
// Resilience (run_resilient): each task gets bounded retries with
// exponential backoff — with an active fault plan the Runner passes the
// attempt number into the deterministic fault salt, so transient-only plans
// converge to the fault-free result. An optional wall-clock watchdog dooms
// mailbox waits that stop making progress, dumping which ranks were blocked
// on which (source, tag) instead of hanging the sweep. keep_going collects
// failures per slot and returns the partial sweep; otherwise the failure of
// the lowest config index is rethrown after every task has finished. An
// optional SweepJournal short-circuits already-completed configs and records
// fresh completions for kill+resume.
#pragma once

#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "core/runner.hpp"

namespace fibersim::core {

class SweepJournal;

/// Retry / watchdog / failure policy of one resilient sweep.
struct SweepControl {
  /// Retries per task beyond the first attempt (0 = single attempt).
  int max_retries = 0;
  /// First retry delay; doubles per retry. Wall-clock only — results never
  /// depend on it.
  double backoff_s = 0.01;
  /// Doom mailbox waits blocked longer than this (0 disables the watchdog).
  double watchdog_s = 0.0;
  /// Collect failures per slot instead of rethrowing the first one.
  bool keep_going = false;
  /// Skip configs already journaled; record fresh completions. May be null.
  SweepJournal* journal = nullptr;
};

/// One failed sweep slot (after retries were exhausted).
struct TaskFailure {
  std::size_t index = 0;     ///< config index in the sweep
  int attempts = 0;          ///< attempts consumed (1 + retries)
  std::string reason;        ///< fault::error_class_name of the final error
  std::string message;       ///< final attempt's error text
  std::exception_ptr error;  ///< final attempt's exception
};

/// Results of a resilient sweep: failed slots hold default-constructed
/// results and are listed (by ascending index) in `failures`.
struct SweepOutcome {
  std::vector<ExperimentResult> results;
  std::vector<TaskFailure> failures;
  bool ok() const { return failures.empty(); }
  /// True iff slot i completed.
  bool completed(std::size_t i) const;
  /// The failure record for slot i, or null if it completed.
  const TaskFailure* failure(std::size_t i) const;
};

class SweepPool {
 public:
  /// A pool that runs up to `jobs` experiments concurrently. `jobs` <= 0
  /// selects default_jobs(). A pool of 1 runs one task at a time.
  explicit SweepPool(int jobs);

  /// The hardware concurrency of the host (at least 1).
  static int default_jobs();

  int jobs() const { return jobs_; }

  /// Evaluate every config through `runner` and return the results in input
  /// order. A throwing task fails only its own slot — every other task still
  /// completes — and the failure of the lowest config index is rethrown
  /// after the join.
  std::vector<ExperimentResult> run(Runner& runner,
                                    const std::vector<ExperimentConfig>& configs) const;

  /// As run(), with retry/watchdog/keep-going/journal behaviour per
  /// `control`. Always runs every task to completion or failure; throws
  /// (lowest failed index) only when !control.keep_going.
  SweepOutcome run_resilient(Runner& runner,
                             const std::vector<ExperimentConfig>& configs,
                             const SweepControl& control) const;

  /// The pool's one fan-out loop: task(i) for every i in [0, n), run by
  /// min(jobs(), n) fiber-pool contexts (rt::fork_join) that each claim the
  /// next unclaimed index. Starts no thread. A throwing task fails only its
  /// own index; the result holds each index's exception (null where the
  /// task completed), so a caller can rethrow the lowest failed index
  /// whatever order the tasks ran in.
  std::vector<std::exception_ptr> fan_out(
      std::size_t n, const std::function<void(std::size_t)>& task) const;

 private:
  int jobs_;
};

}  // namespace fibersim::core
