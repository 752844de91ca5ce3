// core::Tuner — memoized exhaustive search over the full configuration
// cross-product.
//
// The search space is (processor) x (MPI x OMP divisor pairs) x
// (thread-bind stride) x (rank allocation) x (compile presets: T3 ladder x
// compiler profile x unroll x fission), enumerated in that order, so the
// placements of one (processor, ranks x threads) — an execution group — are
// consecutive, and so are the presets of one placement. The tuner evaluates
// the space one execution group at a time: Runner::run_presets costs all
// placements and presets of a group against one execution lookup and, per
// phase, one stage-1 evaluation of each class under each preset, because
// neither the thread binding nor the rank allocation changes a class's
// work; each placement then runs one binding and one communication replay
// per phase for all presets, because compile options change only a class's
// work, never its traffic. Each candidate's prediction is bit-identical to
// a Runner::run of it alone. The Runner's cache tiers (tier-1 execution
// memo / TraceStore, the stage-1 memo) keep the rest cheap: the whole space
// shares a few dozen native executions and a few thousand stage-1
// evaluations. The as-is baseline is answered from the space when it lies
// inside it and predicted on its own otherwise. Per candidate the tuner
// keeps only the three numbers it ranks.
//
// Determinism contract: for fixed TunerOptions the outcome — best config,
// Pareto front, every tuner-level counter — is byte-identical for any jobs
// count. Group tasks fan out through SweepPool::fan_out (scores land in
// enumeration slots; the lowest failed task is rethrown). Each task reduces
// its own slots to their argmin and Pareto front, ordered by seconds, then
// BW pressure, then enumeration index; the caller merges those in the same
// order, which gives the argmin and front of the whole space.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/report_artifact.hpp"
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

/// A prediction budget: which dataset, how many iterations.
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
  /// Ignored: the search is always exhaustive. It exists only because
  /// fsbench/driver.cpp assigns it.
  bool unbounded = false;

  void validate() const;
};

/// One candidate evaluated at the target budget.
struct TuneEvaluation {
  TuneCandidate candidate;
  double seconds = 0.0;
  double gflops = 0.0;
  double bw_pressure = 0.0;  ///< trace::JobPrediction::bw_pressure
};

struct TuneOutcome {
  std::size_t space_size = 0;   ///< full cross-product cardinality
  std::size_t evaluations = 0;  ///< distinct predictions (space + baseline)
  std::size_t deduped = 0;      ///< 1 when the baseline lies in the space
  TuneEvaluation best;          ///< argmin over every evaluation
  TuneEvaluation baseline;  ///< "as-is" compile at the default placement
  /// Non-dominated set over (seconds, bw_pressure) of every evaluation,
  /// sorted by seconds ascending.
  std::vector<TuneEvaluation> pareto;
};

class Tuner {
 public:
  /// The runner provides the execution/prediction cache tiers; a fresh or a
  /// pre-warmed runner both work (warm tiers only make the search faster).
  Tuner(Runner& runner, TunerOptions opts);

  /// The full candidate space, in deterministic enumeration order.
  std::vector<TuneCandidate> space() const;

  /// Translate one candidate to a runnable config at the given budget.
  ExperimentConfig make_config(const TuneCandidate& candidate,
                               const TuneBudget& budget) const;

  /// Predict every candidate once at the target budget and reduce.
  TuneOutcome run() const;

 private:
  /// One candidate per placement, in enumeration order, each carrying the
  /// first preset: space() is placements() x presets, preset innermost.
  /// Consecutive placements of one (processor, ranks, threads) form an
  /// execution group, the unit of run()'s tasks.
  std::vector<TuneCandidate> placements() const;

  Runner& runner_;
  TunerOptions opts_;
  std::vector<machine::ProcessorConfig> processors_;
  std::vector<cg::CompileOptions> presets_;
};

/// Render a tune outcome through the ReportArtifact pipeline. Everything in
/// the artifact is model-level and collapse-invariant.
ReportArtifact tune_artifact(const TuneOutcome& outcome,
                             const TunerOptions& opts);

}  // namespace fibersim::core
