#include "core/tuner.hpp"

#include <algorithm>
#include <exception>
#include <limits>
#include <span>

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

std::vector<TuneCandidate> Tuner::placements() const {
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
          out.push_back({ranks, threads, alloc, bind, presets_.front(), p});
        }
      }
    }
  }
  return out;
}

std::vector<TuneCandidate> Tuner::space() const {
  std::vector<TuneCandidate> out;
  for (TuneCandidate candidate : placements()) {
    for (const cg::CompileOptions& compile : presets_) {
      candidate.compile = compile;
      out.push_back(candidate);
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
  const std::vector<TuneCandidate> places = placements();
  FS_REQUIRE(!places.empty(), "tuner search space is empty");
  const TuneBudget target{opts_.dataset, opts_.iterations};
  const std::size_t n_presets = presets_.size();
  const std::size_t space_size = places.size() * n_presets;

  // The baseline the paper starts from: "as-is" compile at one rank per
  // NUMA domain, default placement, on the first processor. It is
  // predicted on its own only when the space does not already hold it.
  const machine::ProcessorConfig& proc = processors_.front();
  TuneCandidate base;
  base.ranks = proc.shape.numa_per_node();
  base.threads = proc.cores() / base.ranks;
  base.compile = cg::CompileOptions::as_is();
  TuneCandidate base_placement = base;
  base_placement.compile = presets_.front();
  const std::size_t base_place = static_cast<std::size_t>(
      std::find(places.begin(), places.end(), base_placement) -
      places.begin());
  const std::size_t base_preset = static_cast<std::size_t>(
      std::find(presets_.begin(), presets_.end(), base.compile) -
      presets_.begin());
  const bool base_in_space =
      base_place < places.size() && base_preset < n_presets;
  const std::size_t base_slot =
      base_in_space ? base_place * n_presets + base_preset : space_size;

  // Task t scores placements [first[t], first[t + 1]): one execution group
  // — a run of consecutive placements sharing (processor, ranks, threads)
  // — or, last, the out-of-space baseline as a one-preset task.
  std::vector<std::size_t> first;
  for (std::size_t i = 0; i < places.size(); ++i) {
    if (i == 0 || places[i].processor != places[i - 1].processor ||
        places[i].ranks != places[i - 1].ranks ||
        places[i].threads != places[i - 1].threads) {
      first.push_back(i);
    }
  }
  const std::size_t groups = first.size();
  first.push_back(places.size());
  const std::size_t tasks = groups + (base_in_space ? 0 : 1);

  struct Score {
    double seconds = 0.0;
    double gflops = 0.0;
    double bw_pressure = 0.0;
  };
  std::vector<Score> scores(space_size + (base_in_space ? 0 : 1));
  // The argmin and the Pareto front over (predicted time, memory-BW
  // pressure) of a set of slots, both in the order (seconds, BW pressure,
  // slot): exact ties keep enumeration order, so both are deterministic
  // regardless of jobs.
  struct Reduced {
    std::size_t best = 0;
    std::vector<std::size_t> front;
  };
  const auto reduce = [&](std::vector<std::size_t> slots) {
    std::sort(slots.begin(), slots.end(), [&](std::size_t a, std::size_t b) {
      const Score& sa = scores[a];
      const Score& sb = scores[b];
      if (sa.seconds != sb.seconds) return sa.seconds < sb.seconds;
      if (sa.bw_pressure != sb.bw_pressure) {
        return sa.bw_pressure < sb.bw_pressure;
      }
      return a < b;
    });
    Reduced out;
    out.best = slots.front();
    double best_bw = std::numeric_limits<double>::infinity();
    for (const std::size_t slot : slots) {
      if (scores[slot].bw_pressure < best_bw) {
        out.front.push_back(slot);
        best_bw = scores[slot].bw_pressure;
      }
    }
    return out;
  };

  // Each task scores its slots and reduces them: the pool, not the caller,
  // does the sorting.
  std::vector<Reduced> reduced(tasks);
  const auto score = [&](std::size_t t, const ExperimentConfig& config,
                         std::span<const Placement> group,
                         std::span<const cg::CompileOptions> presets,
                         std::size_t first_slot) {
    const PresetResults placed =
        runner_.run_presets(config, group, presets);
    std::vector<std::size_t> slots(placed.predictions.size());
    for (std::size_t i = 0; i < slots.size(); ++i) {
      const trace::JobPrediction& prediction = placed.predictions[i];
      slots[i] = first_slot + i;
      scores[slots[i]] = {prediction.total_s, prediction.gflops(),
                          prediction.bw_pressure()};
    }
    reduced[t] = reduce(std::move(slots));
  };
  const std::vector<std::exception_ptr> errors =
      SweepPool(opts_.jobs).fan_out(tasks, [&](std::size_t t) {
        if (t == groups) {
          const Placement placement{base.alloc, base.bind};
          score(t, make_config(base, target), {&placement, 1},
                {&base.compile, 1}, space_size);
          return;
        }
        std::vector<Placement> group;
        for (std::size_t i = first[t]; i < first[t + 1]; ++i) {
          group.push_back({places[i].alloc, places[i].bind});
        }
        score(t, make_config(places[first[t]], target), group, presets_,
              first[t] * n_presets);
      });
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }

  // Slot `slot` of the space is placement slot / n_presets under preset
  // slot % n_presets.
  const auto evaluation = [&](std::size_t slot) {
    TuneEvaluation eval;
    eval.candidate = base;
    if (slot < space_size) {
      eval.candidate = places[slot / n_presets];
      eval.candidate.compile = presets_[slot % n_presets];
    }
    eval.seconds = scores[slot].seconds;
    eval.gflops = scores[slot].gflops;
    eval.bw_pressure = scores[slot].bw_pressure;
    return eval;
  };

  TuneOutcome outcome;
  outcome.space_size = space_size;
  outcome.evaluations = scores.size();
  outcome.deduped = base_in_space ? 1 : 0;
  outcome.baseline = evaluation(base_slot);

  // Merge the tasks' reductions in slot order. The global argmin is some
  // task's argmin, and the global front is the front of the union of the
  // task fronts: a point a task drops is dominated within its task, so it
  // is dominated globally, and every global front point survives its task.
  std::vector<std::size_t> merged;
  for (const Reduced& task : reduced) {
    merged.push_back(task.best);
    merged.insert(merged.end(), task.front.begin(), task.front.end());
  }
  const Reduced global = reduce(std::move(merged));
  outcome.best = evaluation(global.best);
  for (const std::size_t slot : global.front) {
    outcome.pareto.push_back(evaluation(slot));
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
