// core::Tuner — successive-halving + evolutionary search over the full
// configuration cross-product.
//
// The search space is (MPI x OMP divisor pairs) x (thread-bind stride) x
// (rank allocation) x (compile presets: T3 ladder x compiler profile x
// unroll x fission) x (processor). Predicting every point at the target
// budget is wasteful, so the tuner races every candidate at a small budget
// (one iteration on the small dataset), keeps the best fraction per rung,
// and re-races the survivors at progressively larger budgets until the
// target budget decides the winner; an optional seeded evolutionary stage
// then mutates the elites at full budget. Candidate proposals are deduped
// exactly against everything already evaluated at the same budget, and the
// per-prediction work is deduped further down by the Runner's cache tiers
// (tier-1 execution memo / TraceStore, the stage-1 memo) — the
// combination is what keeps huge-space searches tractable.
//
// Determinism contract: for fixed TunerOptions (seed included) the outcome
// — best config, Pareto front, every tuner-level counter — is byte-identical
// for any jobs count. Evaluations fan out through core::SweepPool
// (slot-ordered results); every reduction (rung ranking, argmin, Pareto,
// dedupe) runs in deterministic candidate order with ties broken by
// enumeration index; the evolutionary stage draws from Xoshiro256 streams
// keyed only by (seed, generation).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common/report_artifact.hpp"
#include "common/rng.hpp"
#include "core/runner.hpp"
#include "core/sweep.hpp"

namespace fibersim::core {

/// One point of the search space.
struct TuneCandidate {
  int ranks = 1;
  int threads = 1;
  topo::RankAllocPolicy alloc = topo::RankAllocPolicy::kBlock;
  topo::ThreadBindPolicy bind = topo::ThreadBindPolicy::compact();
  cg::CompileOptions compile;
  std::size_t processor = 0;  ///< index into the tuner's processor list

  friend bool operator==(const TuneCandidate&, const TuneCandidate&) = default;
};

/// One successive-halving budget: which dataset, how many iterations.
struct TuneBudget {
  apps::Dataset dataset = apps::Dataset::kSmall;
  int iterations = 1;

  friend bool operator==(const TuneBudget&, const TuneBudget&) = default;
};

struct TunerOptions {
  std::string app = "ffvc";
  apps::Dataset dataset = apps::Dataset::kSmall;  ///< target dataset
  int iterations = 3;                             ///< target budget
  std::uint64_t seed = 42;
  int jobs = 1;
  bool collapse = false;  ///< run every native execution rank-collapsed
  /// Processors to search over; empty selects machine::comparison_set().
  std::vector<machine::ProcessorConfig> processors;
  /// Compile presets to search; empty selects cg::search_presets().
  std::vector<cg::CompileOptions> presets;
  /// Search every MPI x OMP divisor pair (default); false restricts the
  /// placement axis to core::representative_combos — the cheap demo space.
  bool full_mpi_omp = true;

  // Successive halving.
  int eta = 4;            ///< keep ceil(n/eta) candidates per rung
  int min_survivors = 8;  ///< never cut below this before the final rung
  /// Unbounded budget: every rung keeps every candidate, so the final rung
  /// is an exhaustive enumeration at the target budget and the recommended
  /// config is the exhaustive argmin by construction (the property the
  /// tests pin).
  bool unbounded = false;

  // Evolutionary refinement at the target budget (0 generations = off).
  int generations = 0;
  int population = 12;

  void validate() const;
};

/// One evaluated candidate (always at a specific budget).
struct TuneEvaluation {
  TuneCandidate candidate;
  double seconds = 0.0;
  double gflops = 0.0;
  double bw_pressure = 0.0;  ///< trace::JobPrediction::bw_pressure
};

/// Per-rung schedule statistics.
struct TuneRung {
  TuneBudget budget;
  std::size_t candidates = 0;
  std::size_t survivors = 0;
};

struct TuneOutcome {
  std::size_t space_size = 0;   ///< full cross-product cardinality
  std::size_t evaluations = 0;  ///< distinct (candidate, budget) predictions
  std::size_t deduped = 0;      ///< proposals skipped: already evaluated
  std::vector<TuneRung> rungs;
  TuneEvaluation best;      ///< argmin over everything seen at target budget
  TuneEvaluation baseline;  ///< "as-is" compile at the default placement
  /// Non-dominated set over (seconds, bw_pressure) of every target-budget
  /// evaluation, sorted by seconds ascending.
  std::vector<TuneEvaluation> pareto;
  // Cache-tier deltas observed on the Runner across this run().
  std::size_t native_runs = 0;
  std::size_t codegen_evals = 0;
  std::size_t exec_evals = 0;
};

class Tuner {
 public:
  /// The runner provides the execution/prediction cache tiers; a fresh or a
  /// pre-warmed runner both work (warm tiers only make the search faster).
  Tuner(Runner& runner, TunerOptions opts);

  /// The full candidate space, in deterministic enumeration order.
  std::vector<TuneCandidate> space() const;

  /// The budget ladder, cheapest first; the last entry is the target.
  std::vector<TuneBudget> budgets() const;

  const std::vector<machine::ProcessorConfig>& processors() const {
    return processors_;
  }

  /// Translate one candidate to a runnable config at the given budget.
  ExperimentConfig make_config(const TuneCandidate& candidate,
                               const TuneBudget& budget) const;

  TuneOutcome run();

 private:
  using EvalKey = std::tuple<int /*dataset*/, int /*iterations*/, int, int,
                             int /*alloc*/, int /*bind kind*/, int /*stride*/,
                             std::uint64_t /*compile fp*/, std::size_t>;
  static EvalKey key_of(const TuneCandidate& c, const TuneBudget& b);

  /// Evaluate candidates at one budget, reusing every (candidate, budget)
  /// pair already computed; results come back in candidate order.
  std::vector<TuneEvaluation> evaluate(
      const std::vector<TuneCandidate>& candidates, const TuneBudget& budget);

  TuneCandidate mutate(const TuneCandidate& parent, Xoshiro256& rng) const;

  Runner& runner_;
  TunerOptions opts_;
  std::vector<machine::ProcessorConfig> processors_;
  std::vector<cg::CompileOptions> presets_;
  std::map<EvalKey, TuneEvaluation> memo_;
  /// Every distinct target-budget evaluation, in evaluation order (feeds
  /// the final argmin and the Pareto front deterministically).
  std::vector<TuneEvaluation> target_evals_;
  std::size_t evaluations_ = 0;
  std::size_t deduped_ = 0;
};

/// Render a tune outcome through the ReportArtifact pipeline. Everything in
/// the artifact is model-level and collapse-invariant; cache-tier counters
/// stay in TuneOutcome for the bench.
ReportArtifact tune_artifact(const TuneOutcome& outcome,
                             const TunerOptions& opts);

}  // namespace fibersim::core
