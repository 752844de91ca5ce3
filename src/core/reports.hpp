// Report generators — one function per experiment id in DESIGN.md.
//
// Each returns a TextTable (or an ASCII figure string) with exactly the rows
// the corresponding bench binary prints; tests call these directly to assert
// the reproduction contract (who wins, by how much, where the crossover is).
#pragma once

#include <string>
#include <vector>

#include "common/table.hpp"
#include "core/runner.hpp"
#include "core/sweep_pool.hpp"

namespace fibersim::core {

/// Shared knobs for the report sweeps.
struct ReportContext {
  Runner* runner = nullptr;
  std::vector<std::string> app_names;  ///< empty: the whole suite
  apps::Dataset dataset = apps::Dataset::kSmall;
  int iterations = 3;
  std::uint64_t seed = 42;
  /// Override the MPI x OMP split used by the placement reports (F2/F3);
  /// 0 keeps each report's default.
  int override_ranks = 0;
  int override_threads = 0;
  /// Sweep tasks in flight (see core::SweepPool). 1 = one at a time; any
  /// value produces byte-identical report output.
  int jobs = 1;
  /// Run every sweep point with rank collapse (ExperimentConfig::collapse):
  /// one representative rank per symmetry class executes natively. The
  /// byte-identity contract makes the rendered report identical either way;
  /// CI diffs the two to enforce it.
  bool collapse = false;
  /// Include the supplementary sections some experiments print beyond their
  /// primary table (F2's 2x24 stride panel, F4's second dataset). The bench
  /// front end sets this; the CLI renders the primary sections only.
  bool supplements = false;

  /// Retry, watchdog, keep-going and journal policy of every sweep of this
  /// context. With keep_going, the sweep-grid reports (T2/F1/F2/F3) render
  /// slots whose task failed after retries as FAILED(<class>) instead of
  /// aborting; best-of reports still require every point and rethrow the
  /// first failure.
  SweepControl sweep;

  std::vector<std::string> apps_or_default() const;
  void validate() const;
};

/// Evaluate every config through ctx.runner, fanning out over ctx.jobs
/// workers; results come back in input order regardless of the job count.
/// Throws the lowest-index failure (after retries) even under keep_going —
/// callers that can degrade use run_experiments_resilient instead.
std::vector<ExperimentResult> run_experiments(
    const ReportContext& ctx, const std::vector<ExperimentConfig>& configs);

/// As run_experiments, but under ctx.sweep.keep_going failed slots are
/// returned in SweepOutcome::failures instead of thrown, so reports can
/// render partial sweeps.
SweepOutcome run_experiments_resilient(
    const ReportContext& ctx, const std::vector<ExperimentConfig>& configs);

/// T1 — machine configuration table (no execution needed).
TextTable machines_table();

/// T2 — predicted time per miniapp across every MPI x OMP split on A64FX.
TextTable mpi_omp_table(const ReportContext& ctx);

/// F1 — the same sweep normalised to each app's best configuration.
TextTable mpi_omp_relative_table(const ReportContext& ctx);

/// F2 — thread-stride sweep at one rank per CMG (4 x 12 on A64FX).
TextTable thread_stride_table(const ReportContext& ctx);

/// F3 — process-allocation sweep at 8 x 6; also reports the max relative
/// spread, the quantity behind the paper's "little impact" claim.
struct AllocReport {
  TextTable table;
  double max_spread = 0.0;  ///< worst (max-min)/min over the suite
};
AllocReport proc_alloc_report(const ReportContext& ctx);

/// T3 — compiler-tuning ladder on the "as-is" small datasets (NGSA, mVMC,
/// NICAM) against Skylake.
TextTable compiler_tuning_table(const ReportContext& ctx);

/// F4 — cross-processor comparison, best configuration per machine.
TextTable processor_compare_table(const ReportContext& ctx);

/// F5 — ASCII roofline of every miniapp on the A64FX.
std::string roofline_figure(const ReportContext& ctx);

/// T4 — per-phase time breakdown of each miniapp at its best configuration.
TextTable phase_breakdown_table(const ReportContext& ctx);

/// A1 — sensitivity of the stride conclusion to the inter-CMG bandwidth.
TextTable cmg_penalty_ablation(const ReportContext& ctx);

/// A2 — barrier-cost model across team sizes and spans (pure model, no run).
TextTable barrier_cost_table();

/// A3 — A64FX power modes (normal / boost / eco): time, power, energy.
TextTable power_mode_table(const ReportContext& ctx);

/// A4 — SVE vector-length sweep at fixed core resources (the research
/// group's "vector-length agnostic" SVE study applied to the suite):
/// 128..2048-bit SIMD on an otherwise unchanged A64FX.
TextTable vector_length_table(const ReportContext& ctx);

/// A5 — Fujitsu-compiler loop fission on/off (their stated mitigation for
/// the A64FX's shallow out-of-order resources).
TextTable loop_fission_table(const ReportContext& ctx);

/// E1 — multi-node strong scaling on the Tofu-D-class fabric model:
/// 4 ranks x 12 threads per node over the given node counts.
TextTable multinode_scaling_table(const ReportContext& ctx,
                                  const std::vector<int>& node_counts);

/// E2 — multi-node weak scaling: the problem grows with the node count
/// (RunContext::weak_scale = nodes), so perfect scaling keeps time flat.
TextTable weak_scaling_table(const ReportContext& ctx,
                             const std::vector<int>& node_counts);

}  // namespace fibersim::core
