// predict — turn a recorded job trace into a predicted execution time on a
// target processor under a compile configuration and a placement.
//
// This is where the deterministic-prediction contract of DESIGN.md is
// enforced: the inputs are counted work and logged traffic; the outputs are
// model seconds, never host wall-clock.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "cg/compile_options.hpp"
#include "machine/comm_model.hpp"
#include "machine/eval_cache.hpp"
#include "machine/exec_model.hpp"
#include "machine/processor.hpp"
#include "topo/binding.hpp"
#include "trace/canonical.hpp"
#include "trace/collapsed.hpp"
#include "trace/recorder.hpp"

namespace fibersim::trace {

struct PhasePrediction {
  std::string name;
  machine::PhaseTime time;  ///< compute/memory/barrier of the phase
  double comm_s = 0.0;      ///< slowest rank's communication in the phase
  double total_s = 0.0;     ///< time.total_s + comm_s
  bool timed = true;        ///< false for setup/init phases
};

/// Headline aggregates cover only `timed` phases (the kernel section the
/// Fiber miniapps report); setup_s keeps the excluded init/setup time.
struct JobPrediction {
  std::vector<PhasePrediction> phases;
  double total_s = 0.0;
  double compute_s = 0.0;
  double memory_s = 0.0;
  double comm_s = 0.0;
  double barrier_s = 0.0;
  double flops = 0.0;
  double dram_bytes = 0.0;
  double setup_s = 0.0;  ///< predicted time of the untimed phases

  double gflops() const { return total_s > 0.0 ? flops * 1e-9 / total_s : 0.0; }
  /// Job-level memory-bandwidth pressure: fraction of the predicted wall
  /// time spent on the most-loaded memory channel (see
  /// machine::PhaseTime::bw_pressure). Computed, never serialised — the
  /// JSON payload shape is part of the serve parity contract.
  double bw_pressure() const { return total_s > 0.0 ? memory_s / total_s : 0.0; }
};

/// Optional shared stage-1 memo for the class-replay prediction paths. A
/// null pointer evaluates every class directly (still only once per
/// equivalence class per phase). The memo is thread-safe; one is typically
/// owned by a core::Runner and shared by every sweep point.
struct PredictMemo {
  machine::EvalCache* stage1 = nullptr;
};

/// Predict the execution time of a recorded job from its canonical form.
///
/// Requirements: `trace.ranks()` must match `binding.ranks()`
/// (CanonicalTrace::build checked that every rank recorded the same phase
/// sequence). Phase work is distributed over the rank's threads (evenly for
/// parallel phases, on the master for serial ones), placed according to
/// `binding`, transformed by `opts`, and evaluated on `cfg`.
///
/// The per-phase cost is O(equivalence classes) stage-1 evaluations (shared
/// further across calls through `memo`) plus O(ranks x threads) cheap
/// placement accumulation, bit-identical to the naive predictor of
/// tests/oracle_predict.hpp on the expanded trace. Shares one class-replay
/// engine with the CollapsedTrace overload below; only the rank -> class
/// lookup and the per-rank send listing differ between the two.
JobPrediction predict_job(const machine::ProcessorConfig& cfg,
                          const cg::CompileOptions& opts,
                          const topo::Binding& binding,
                          const CanonicalTrace& trace,
                          const PredictMemo& memo = {});

/// Predict from a collapsed trace without materialising the expansion:
/// bit-identical to the canonical path on the JobTrace that CollapsedTrace::
/// expand() would yield, but native execution and stage-1 evaluation cost
/// O(symmetry classes) while placement replay stays O(ranks x threads) —
/// the path that makes 10^5-10^6-rank weak-scaling sweeps feasible. Runs the
/// same class-replay engine as the CanonicalTrace overload, with each
/// member's sends read through CollapsedTrace::send_view().
JobPrediction predict_job(const machine::ProcessorConfig& cfg,
                          const cg::CompileOptions& opts,
                          const topo::Binding& binding,
                          const CollapsedTrace& trace,
                          const PredictMemo& memo = {});

/// Predict one placement under every compile preset of `presets`: element k
/// is bit-identical to predict_job(cfg, presets[k], binding, trace, memo).
/// Compile options change only a class's work, never its traffic, so the
/// communication half of each phase (collective terms, link contention and
/// the point-to-point stream) runs once for all presets; each preset then
/// runs its own stage-1 lookups and its own placement accumulation. The two
/// predict_job overloads above are the one-preset calls of this engine.
std::vector<JobPrediction> predict_presets(
    const machine::ProcessorConfig& cfg,
    std::span<const cg::CompileOptions> presets, const topo::Binding& binding,
    const CanonicalTrace& trace, const PredictMemo& memo = {});
std::vector<JobPrediction> predict_presets(
    const machine::ProcessorConfig& cfg,
    std::span<const cg::CompileOptions> presets, const topo::Binding& binding,
    const CollapsedTrace& trace, const PredictMemo& memo = {});

// The two cost steps the engine shares with the reference predictor in
// tests/oracle_predict.hpp, written once so that the tests check the
// engine's order of operations rather than a copy of its formulas.

/// One cost term per collective kind of `comm` (per_call x calls, in map
/// order) in a `ranks`-way job spanning `span`. Collective cost depends only
/// on the log and the job-wide geometry, so a whole equivalence class shares
/// one term vector.
std::vector<double> collective_terms(const machine::CommCostModel& model,
                                     int ranks, topo::Distance span,
                                     const mp::CommLog& comm);

/// Fold one evaluated phase into the job aggregates: timed phases into the
/// headline sums, untimed ones into setup_s.
void accumulate_phase(JobPrediction& out, PhasePrediction&& phase);

}  // namespace fibersim::trace
