#include "core/tuner.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/error.hpp"
#include "common/string_util.hpp"
#include "core/experiment_registry.hpp"
#include "core/reports.hpp"
#include "core/sweep_pool.hpp"

namespace fibersim::core {

void TunerOptions::validate() const {
  FS_REQUIRE(!app.empty(), "tuner needs an app");
  FS_REQUIRE(iterations >= 1, "tuner iterations must be >= 1");
  FS_REQUIRE(jobs >= 1, "tuner jobs must be >= 1");
  for (const cg::CompileOptions& preset : presets) preset.validate();
  for (const machine::ProcessorConfig& proc : processors) proc.validate();
}

Tuner::Tuner(Runner& runner, TunerOptions opts)
    : runner_(runner), opts_(std::move(opts)) {
  opts_.validate();
  processors_ =
      opts_.processors.empty() ? machine::comparison_set() : opts_.processors;
  presets_ = opts_.presets.empty() ? cg::search_presets() : opts_.presets;
}

std::vector<TuneCandidate> Tuner::space() const {
  std::vector<TuneCandidate> out;
  for (std::size_t p = 0; p < processors_.size(); ++p) {
    const machine::ProcessorConfig& proc = processors_[p];
    const auto combos = opts_.full_mpi_omp
                            ? mpi_omp_combinations(proc.cores())
                            : representative_combos(proc);
    const auto strides = stride_policies(proc.shape);
    const auto allocs = alloc_policies();
    for (const auto& [ranks, threads] : combos) {
      for (const topo::ThreadBindPolicy& bind : strides) {
        for (const topo::RankAllocPolicy alloc : allocs) {
          for (const cg::CompileOptions& compile : presets_) {
            out.push_back({ranks, threads, alloc, bind, compile, p});
          }
        }
      }
    }
  }
  return out;
}

ExperimentConfig Tuner::make_config(const TuneCandidate& candidate,
                                    const TuneBudget& budget) const {
  ExperimentConfig cfg;
  cfg.app = opts_.app;
  cfg.dataset = budget.dataset;
  cfg.ranks = candidate.ranks;
  cfg.threads = candidate.threads;
  cfg.nodes = 1;
  cfg.alloc = candidate.alloc;
  cfg.bind = candidate.bind;
  cfg.compile = candidate.compile;
  cfg.processor = processors_.at(candidate.processor);
  cfg.seed = opts_.seed;
  cfg.iterations = budget.iterations;
  cfg.collapse = opts_.collapse;
  cfg.validate();
  return cfg;
}

TuneOutcome Tuner::run() const {
  const std::vector<TuneCandidate> candidates = space();
  FS_REQUIRE(!candidates.empty(), "tuner search space is empty");
  const TuneBudget target{opts_.dataset, opts_.iterations};

  // The baseline the paper starts from: "as-is" compile at one rank per
  // NUMA domain, default placement, on the first processor. It is
  // predicted on its own only when the space does not already hold it.
  const machine::ProcessorConfig& proc = processors_.front();
  TuneCandidate base;
  base.ranks = proc.shape.numa_per_node();
  base.threads = proc.cores() / base.ranks;
  base.compile = cg::CompileOptions::as_is();
  const std::size_t base_slot = static_cast<std::size_t>(
      std::find(candidates.begin(), candidates.end(), base) -
      candidates.begin());

  std::vector<ExperimentConfig> configs;
  configs.reserve(candidates.size() + 1);
  for (const TuneCandidate& candidate : candidates) {
    configs.push_back(make_config(candidate, target));
  }
  if (base_slot == candidates.size()) {
    configs.push_back(make_config(base, target));
  }
  const std::vector<ExperimentResult> results =
      SweepPool(opts_.jobs).run(runner_, configs);

  // Every evaluation in enumeration order, the out-of-space baseline last.
  std::vector<TuneEvaluation> evals(results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    evals[i].candidate = i < candidates.size() ? candidates[i] : base;
    evals[i].seconds = results[i].seconds();
    evals[i].gflops = results[i].gflops();
    evals[i].bw_pressure = results[i].prediction.bw_pressure();
  }

  TuneOutcome outcome;
  outcome.space_size = candidates.size();
  outcome.evaluations = evals.size();
  outcome.deduped = base_slot < candidates.size() ? 1 : 0;
  outcome.baseline = evals[base_slot];

  // Argmin and the Pareto front over (predicted time, memory-BW pressure).
  // The stable sort keeps enumeration order on exact ties, so both are
  // deterministic regardless of jobs.
  std::vector<std::size_t> by_time(evals.size());
  std::iota(by_time.begin(), by_time.end(), std::size_t{0});
  std::stable_sort(by_time.begin(), by_time.end(),
                   [&](std::size_t a, std::size_t b) {
                     const TuneEvaluation& ea = evals[a];
                     const TuneEvaluation& eb = evals[b];
                     if (ea.seconds != eb.seconds) {
                       return ea.seconds < eb.seconds;
                     }
                     return ea.bw_pressure < eb.bw_pressure;
                   });
  outcome.best = evals[by_time.front()];
  double best_bw = std::numeric_limits<double>::infinity();
  for (const std::size_t i : by_time) {
    if (evals[i].bw_pressure < best_bw) {
      outcome.pareto.push_back(evals[i]);
      best_bw = evals[i].bw_pressure;
    }
  }
  return outcome;
}

namespace {

std::string candidate_label(const TuneEvaluation& eval,
                            const std::vector<machine::ProcessorConfig>& procs) {
  const TuneCandidate& c = eval.candidate;
  return strfmt("%s %dx%d %s/%s %s", procs.at(c.processor).name.c_str(),
                c.ranks, c.threads, c.bind.name().c_str(),
                rank_alloc_name(c.alloc), c.compile.name().c_str());
}

}  // namespace

ReportArtifact tune_artifact(const TuneOutcome& outcome,
                             const TunerOptions& opts) {
  // Everything rendered here is model-level (seconds, GFLOPS, BW pressure,
  // tuner counters) — deterministic for any jobs count and invariant under
  // rank collapse, so the registry's byte-identity CI legs hold.
  ReportArtifact artifact;

  const auto procs = opts.processors.empty() ? machine::comparison_set()
                                             : opts.processors;
  TextTable best({"quantity", "value"});
  best.add_row({"best config", candidate_label(outcome.best, procs)});
  best.add_row({"predicted time", strfmt("%.6f ms", outcome.best.seconds * 1e3)});
  best.add_row({"performance", strfmt("%.2f GFLOPS", outcome.best.gflops)});
  best.add_row({"BW pressure", strfmt("%.3f", outcome.best.bw_pressure)});
  best.add_row({"as-is baseline", candidate_label(outcome.baseline, procs)});
  best.add_row(
      {"baseline time", strfmt("%.6f ms", outcome.baseline.seconds * 1e3)});
  auto& best_section = artifact.add_table(
      strfmt("autotune %s (%s, %d iterations, seed %llu)", opts.app.c_str(),
             apps::dataset_name(opts.dataset), opts.iterations,
             static_cast<unsigned long long>(opts.seed)),
      std::move(best));
  const std::string coverage = strfmt(
      "space %zu configs, %zu evaluations (%zu deduped)", outcome.space_size,
      outcome.evaluations, outcome.deduped);
  best_section.notes.push_back(coverage);
  best_section.cli_notes.push_back(coverage);
  const bool beats = outcome.best.seconds < outcome.baseline.seconds;
  const std::string verdict = strfmt(
      "best beats as-is baseline: %s (%.2fx)", beats ? "yes" : "no",
      outcome.best.seconds > 0.0
          ? outcome.baseline.seconds / outcome.best.seconds
          : 0.0);
  best_section.notes.push_back(verdict);
  best_section.cli_notes.push_back(verdict);

  TextTable pareto({"config", "time ms", "GFLOPS", "BW pressure"});
  for (const TuneEvaluation& eval : outcome.pareto) {
    pareto.add_row({candidate_label(eval, procs),
                    strfmt("%.6f", eval.seconds * 1e3),
                    strfmt("%.2f", eval.gflops),
                    strfmt("%.3f", eval.bw_pressure)});
  }
  artifact.add_table("Pareto front (time vs memory-BW pressure)",
                     std::move(pareto));

  artifact.metrics.push_back({"space", static_cast<double>(outcome.space_size), ""});
  artifact.metrics.push_back(
      {"evaluations", static_cast<double>(outcome.evaluations), ""});
  artifact.metrics.push_back(
      {"deduped", static_cast<double>(outcome.deduped), ""});
  artifact.metrics.push_back({"best_seconds", outcome.best.seconds, "s"});
  artifact.metrics.push_back(
      {"baseline_seconds", outcome.baseline.seconds, "s"});
  artifact.metrics.push_back(
      {"best_bw_pressure", outcome.best.bw_pressure, ""});
  artifact.metrics.push_back(
      {"pareto_size", static_cast<double>(outcome.pareto.size()), ""});
  return artifact;
}

void register_tune_experiments(ExperimentRegistry& registry) {
  Experiment tn1;
  tn1.id = "TN1";
  tn1.title = "exhaustive autotune demo (first app, trimmed space)";
  tn1.paper_ref = "extension (autotuner)";
  tn1.default_dataset = apps::Dataset::kSmall;
  tn1.build = [](const ReportContext& ctx) {
    ctx.validate();
    TunerOptions opts;
    opts.app = ctx.apps_or_default().front();
    opts.dataset = ctx.dataset;
    opts.iterations = ctx.iterations;
    opts.seed = ctx.seed;
    opts.jobs = ctx.jobs;
    opts.collapse = ctx.collapse;
    // Trimmed demo space: one processor, representative splits only.
    opts.processors = {machine::a64fx()};
    opts.full_mpi_omp = false;
    Tuner tuner(*ctx.runner, opts);
    return tune_artifact(tuner.run(), opts);
  };
  registry.add(std::move(tn1));
}

}  // namespace fibersim::core
