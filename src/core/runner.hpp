// Runner — executes experiments and produces predictions.
//
// Execution and prediction are deliberately decoupled (DESIGN.md): the
// miniapp runs natively exactly once per (app, dataset, ranks, threads,
// iterations, seed) — the trace does not depend on placement, compiler
// options, or target processor — and the cached trace is then re-evaluated
// cheaply for every placement/compiler/processor variation a sweep asks for.
//
// The execution cache has two tiers: tier 1 is this Runner's in-memory map;
// tier 2 (optional, set_trace_store) is a persistent trace::TraceStore
// shared across processes — a warm process replays every native run from
// disk (native_runs() == 0, one disk_hit per key) with byte-identical
// results, because the store round-trips traces bit-exactly.
//
// Runner is thread-safe: run() may be called concurrently (the SweepPool
// does exactly that). Concurrent calls with the same execution key coalesce
// onto a single native run via a per-entry state machine; every other caller
// waits on the entry's rt::WaitList — a context parks, leaving its worker
// free — until that run finishes, then reads the completed entry. A native
// run that *throws* releases the entry instead of wedging it — the next
// caller (racing waiters included) claims the slot and retries, and the
// per-entry attempt counter feeds the fault-injection salt so each retry
// draws an independent fault pattern.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "machine/power_model.hpp"
#include "rt/fiber.hpp"
#include "trace/predict.hpp"
#include "trace/trace_store.hpp"

namespace fibersim::core {

struct ExperimentResult {
  ExperimentConfig config;
  trace::JobPrediction prediction;
  /// Every rank's verification must have passed.
  bool verified = false;
  double check_value = 0.0;
  std::string check_description;
  machine::PowerEstimate power;

  double seconds() const { return prediction.total_s; }
  double gflops() const { return prediction.gflops(); }
};

/// One placement predicted under several compile presets
/// (Runner::run_presets): element k of each vector belongs to preset k.
struct PresetResults {
  std::vector<trace::JobPrediction> predictions;
  std::vector<machine::PowerEstimate> power;
  /// Every rank's verification must have passed.
  bool verified = false;
  double check_value = 0.0;
  std::string check_description;
};

/// Which cache tier satisfied a run()'s execution: the in-memory tier-1
/// entry (including coalescing onto another caller's in-flight native run),
/// the persistent tier-2 store, or a fresh native execution. The serve
/// daemon reports these per request.
enum class RunTier { kMemo = 0, kDisk, kNative };

const char* run_tier_name(RunTier tier);

class Runner {
 public:
  /// Run (or reuse the cached execution of) an experiment. Thread-safe.
  /// `attempt` is the caller's retry attempt for this config (the SweepPool
  /// passes its per-task attempt); it only matters under an active fault
  /// plan, where it drives deterministic prediction-failure injection.
  /// `tier` (optional) receives which cache tier satisfied the execution.
  ExperimentResult run(const ExperimentConfig& config, int attempt = 0,
                       RunTier* tier = nullptr);

  /// `config`'s placement predicted under each of `presets` (config.compile
  /// itself is not predicted unless it is one of them): one execution
  /// lookup, one binding and one communication replay per phase for all of
  /// them, each prediction bit-identical to run() with config.compile set
  /// to that preset. run() is the one-preset call. A fault plan's
  /// prediction failure names `config` and fails the whole call.
  PresetResults run_presets(const ExperimentConfig& config,
                            std::span<const cg::CompileOptions> presets,
                            int attempt = 0, RunTier* tier = nullptr);

  /// The full per-rank trace of `config`'s execution (cached or run as in
  /// run()), expanded on demand from the one form the cache holds. Costs
  /// ranks x phases records; `run --dump-trace` and tests use it.
  trace::JobTrace expanded_trace(const ExperimentConfig& config);

  /// The key `config`'s execution is cached and persisted under: two configs
  /// share one execution iff their keys are equal.
  static trace::StoreKey execution_key(const ExperimentConfig& config);

  /// Number of native executions performed so far (tests use this to assert
  /// the caching contract).
  std::size_t native_runs() const {
    return native_runs_.load(std::memory_order_relaxed);
  }

  /// Attach the persistent tier-2 trace store (see trace::TraceStore): cold
  /// native runs publish to it, later runs — this process or any other —
  /// load instead of re-executing. Call before the first run(); the store
  /// may be shared between Runners and processes. While a fault plan is
  /// installed the store is bypassed entirely (never load a clean trace into
  /// a faulty world, never publish a faulted trace into a clean one).
  void set_trace_store(std::shared_ptr<trace::TraceStore> store);
  const std::shared_ptr<trace::TraceStore>& trace_store() const {
    return store_;
  }

  /// Executions served from / published to the persistent store by this
  /// Runner (beside native_runs(): a warm sweep has native_runs() == 0 and
  /// one disk_hit per unique key).
  std::size_t disk_hits() const {
    return disk_hits_.load(std::memory_order_relaxed);
  }
  std::size_t disk_writes() const {
    return disk_writes_.load(std::memory_order_relaxed);
  }

  /// Collapsed-simulation counters (the serve daemon's `stats` verb reports
  /// them beside the tier counters). `collapse_classes` sums the symmetry
  /// classes of every collapsed execution admitted (native or disk);
  /// `collapse_native_ranks` counts the representative ranks actually
  /// executed natively; `collapse_replicated_ranks` counts the ranks whose
  /// traces were replicated analytically instead of executed.
  std::size_t collapse_classes() const {
    return collapse_classes_.load(std::memory_order_relaxed);
  }
  std::size_t collapse_native_ranks() const {
    return collapse_native_ranks_.load(std::memory_order_relaxed);
  }
  std::size_t collapse_replicated_ranks() const {
    return collapse_replicated_.load(std::memory_order_relaxed);
  }

  /// Stage-1 memo counters, deterministic for a given run() call sequence
  /// (see machine::EvalCache). A miss is one codegen transform plus one work
  /// evaluation, so the codegen_* and exec_* families read the same memo.
  std::size_t codegen_evals() const { return stage1_memo_.evals(); }
  std::size_t codegen_lookups() const { return stage1_memo_.lookups(); }
  std::size_t codegen_hits() const { return stage1_memo_.hits(); }
  std::size_t exec_evals() const { return stage1_memo_.evals(); }
  std::size_t exec_lookups() const { return stage1_memo_.lookups(); }
  std::size_t exec_hits() const { return stage1_memo_.hits(); }

 private:
  struct Execution {
    /// Exactly what the tier-2 store persists: the trace canonicalized at
    /// cache admission (rank/phase agreement validated once, ranks grouped
    /// into value-identical equivalence classes) plus the verification
    /// fields. Every prediction against a full execution reads
    /// `stored.canonical`. For a collapsed execution it holds the canonical
    /// form of the *representative* traces, not the virtual job; predictions
    /// then read `collapsed` instead.
    trace::StoredExecution stored;
    /// Collapsed form (is_collapsed only): the virtual job reconstructed
    /// from one representative per symmetry class.
    trace::CollapsedTrace collapsed;
    bool is_collapsed = false;
  };
  /// Cache slot. One caller at a time runs natively (`running`); waiters
  /// park on `waiters`. Once `done`, the execution is immutable and readable
  /// without any lock. A failed run flips `running` back off with `done`
  /// still false, so whoever wakes first retries; `attempts` counts started
  /// native runs (it salts fault injection and is observable in tests).
  struct Entry {
    std::mutex mutex;
    rt::WaitList waiters;
    bool running = false;
    bool done = false;
    int attempts = 0;
    Execution exec;
  };
  /// Returns a completed execution; `tier` receives how it was satisfied.
  /// The shared_ptr keeps the entry alive independent of the cache map, so
  /// callers never hold a reference that another thread could invalidate or
  /// observe mid-construction.
  std::shared_ptr<const Execution> execute(const ExperimentConfig& config,
                                           RunTier* tier);

  /// One native run attempt (no caching); throws on failure.
  Execution run_native(const ExperimentConfig& config, int attempt);

  /// Count one admitted collapsed execution of `classes` classes.
  void count_collapsed(const ExperimentConfig& config, int classes);

  /// Collapsed native run: executes one representative per symmetry class
  /// and assembles the virtual job. Throws fibersim::Error when the app
  /// declares no symmetry or a trace cannot be factored on the grid; the
  /// caller falls back to a full run.
  Execution run_native_collapsed(const ExperimentConfig& config);

  /// Reconstruct the collapsed form of a disk-loaded execution (the store
  /// persists representative slots); throws on spec drift.
  void rehydrate_collapsed(const ExperimentConfig& config, Execution& exec);

  std::mutex cache_mutex_;
  std::map<trace::StoreKey, std::shared_ptr<Entry>> cache_;
  /// Tier-2 persistent store; written before the first run(), read under
  /// cache_mutex_ thereafter. May be null (tier 1 only).
  std::shared_ptr<trace::TraceStore> store_;
  std::atomic<std::size_t> native_runs_{0};
  std::atomic<std::size_t> disk_hits_{0};
  std::atomic<std::size_t> disk_writes_{0};
  std::atomic<std::size_t> collapse_classes_{0};
  std::atomic<std::size_t> collapse_native_ranks_{0};
  std::atomic<std::size_t> collapse_replicated_{0};

  // Shared stage-1 memo for the class-replay prediction paths (thread-safe).
  machine::EvalCache stage1_memo_;
};

}  // namespace fibersim::core
