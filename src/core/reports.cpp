#include "core/reports.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/string_util.hpp"
#include "core/experiment_registry.hpp"
#include "core/sweep.hpp"
#include "core/sweep_pool.hpp"

namespace fibersim::core {

std::vector<std::string> ReportContext::apps_or_default() const {
  return app_names.empty() ? apps::registry_names() : app_names;
}

void ReportContext::validate() const {
  FS_REQUIRE(runner != nullptr, "ReportContext needs a runner");
  FS_REQUIRE(iterations >= 1, "ReportContext needs >= 1 iteration");
  FS_REQUIRE(jobs >= 1, "ReportContext needs >= 1 job");
  FS_REQUIRE(sweep.max_retries >= 0, "ReportContext needs >= 0 retries");
}

SweepOutcome run_experiments_resilient(
    const ReportContext& ctx, const std::vector<ExperimentConfig>& configs) {
  ctx.validate();
  if (!ctx.collapse) {
    return SweepPool(ctx.jobs).run_resilient(*ctx.runner, configs, ctx.sweep);
  }
  // Every report sweep funnels through here, so flipping the flag at this
  // one choke point collapses every registered experiment uniformly.
  std::vector<ExperimentConfig> collapsed = configs;
  for (ExperimentConfig& cfg : collapsed) cfg.collapse = true;
  return SweepPool(ctx.jobs).run_resilient(*ctx.runner, collapsed, ctx.sweep);
}

std::vector<ExperimentResult> run_experiments(
    const ReportContext& ctx, const std::vector<ExperimentConfig>& configs) {
  SweepOutcome outcome = run_experiments_resilient(ctx, configs);
  // Callers of this overload index results unconditionally, so a partial
  // sweep must not leak through even when the context says keep_going.
  if (!outcome.ok()) std::rethrow_exception(outcome.failures.front().error);
  return std::move(outcome.results);
}

namespace {

std::string fmt_ms(double seconds) { return strfmt("%.3f", seconds * 1e3); }

/// Degraded-cell rendering: a slot whose task failed (after retries) shows
/// its failure class, deterministically — never a half-baked number.
std::string failed_cell(const TaskFailure& failure) {
  return strfmt("FAILED(%s)", failure.reason.c_str());
}

ExperimentConfig base_config(const ReportContext& ctx, const std::string& app) {
  ExperimentConfig cfg;
  cfg.app = app;
  cfg.dataset = ctx.dataset;
  cfg.iterations = ctx.iterations;
  cfg.seed = ctx.seed;
  return cfg;
}

}  // namespace

TextTable machines_table() {
  TextTable table({"processor", "cores", "numa", "SIMD", "freq GHz",
                   "peak GF", "mem GB/s", "balance f/B"});
  for (const machine::ProcessorConfig& cfg : machine::extended_comparison_set()) {
    table.add_row({cfg.name, strfmt("%d", cfg.cores()),
                   strfmt("%d", cfg.shape.numa_per_node()), cfg.vec.name,
                   strfmt("%.1f", cfg.freq_hz * 1e-9),
                   strfmt("%.0f", cfg.peak_flops_node() * 1e-9),
                   strfmt("%.0f", cfg.node_mem_bw() * 1e-9),
                   strfmt("%.2f", cfg.balance())});
  }
  return table;
}

TextTable mpi_omp_table(const ReportContext& ctx) {
  ctx.validate();
  const auto combos = mpi_omp_combinations(machine::a64fx().cores());
  std::vector<std::string> header{"app"};
  for (const auto& [p, t] : combos) header.push_back(strfmt("%dx%d", p, t));
  TextTable table(std::move(header));

  const auto apps_list = ctx.apps_or_default();
  std::vector<ExperimentConfig> configs;
  for (const std::string& app : apps_list) {
    for (const auto& [p, t] : combos) {
      ExperimentConfig cfg = base_config(ctx, app);
      cfg.ranks = p;
      cfg.threads = t;
      configs.push_back(std::move(cfg));
    }
  }
  const SweepOutcome run = run_experiments_resilient(ctx, configs);

  std::size_t i = 0;
  for (const std::string& app : apps_list) {
    std::vector<std::string> row{app};
    for (std::size_t c = 0; c < combos.size(); ++c, ++i) {
      if (const TaskFailure* failure = run.failure(i)) {
        row.push_back(failed_cell(*failure));
        continue;
      }
      const ExperimentResult& res = run.results[i];
      row.push_back(fmt_ms(res.seconds()) + (res.verified ? "" : "!"));
    }
    table.add_row(std::move(row));
  }
  return table;
}

TextTable mpi_omp_relative_table(const ReportContext& ctx) {
  ctx.validate();
  const auto combos = mpi_omp_combinations(machine::a64fx().cores());
  std::vector<std::string> header{"app"};
  for (const auto& [p, t] : combos) header.push_back(strfmt("%dx%d", p, t));
  header.push_back("best");
  TextTable table(std::move(header));

  const auto apps_list = ctx.apps_or_default();
  std::vector<ExperimentConfig> configs;
  for (const std::string& app : apps_list) {
    for (const auto& [p, t] : combos) {
      ExperimentConfig cfg = base_config(ctx, app);
      cfg.ranks = p;
      cfg.threads = t;
      configs.push_back(std::move(cfg));
    }
  }
  const SweepOutcome run = run_experiments_resilient(ctx, configs);

  std::size_t i = 0;
  for (const std::string& app : apps_list) {
    const std::size_t row_base = i;
    double best = 0.0;
    std::size_t best_idx = combos.size();  // past-the-end = no point completed
    for (std::size_t c = 0; c < combos.size(); ++c, ++i) {
      if (!run.completed(i)) continue;
      const double t = run.results[i].seconds();
      if (best_idx == combos.size() || t < best) {
        best = t;
        best_idx = c;
      }
    }
    std::vector<std::string> row{app};
    for (std::size_t c = 0; c < combos.size(); ++c) {
      if (const TaskFailure* failure = run.failure(row_base + c)) {
        row.push_back(failed_cell(*failure));
      } else {
        row.push_back(strfmt("%.2f", run.results[row_base + c].seconds() / best));
      }
    }
    row.push_back(best_idx < combos.size()
                      ? strfmt("%dx%d", combos[best_idx].first,
                               combos[best_idx].second)
                      : std::string("-"));
    table.add_row(std::move(row));
  }
  return table;
}

TextTable thread_stride_table(const ReportContext& ctx) {
  ctx.validate();
  const machine::ProcessorConfig a64fx = machine::a64fx();
  const auto policies = stride_policies(a64fx.shape);
  std::vector<std::string> header{"app"};
  for (const auto& p : policies) header.push_back(p.name());
  header.push_back("worst/best");
  TextTable table(std::move(header));

  // Default: one rank per CMG — the threads' span is exactly what the
  // stride policy controls. Overridable to study the interaction with the
  // MPI x OMP split.
  const int ranks = ctx.override_ranks > 0 ? ctx.override_ranks
                                           : a64fx.shape.numa_per_node();
  const int threads =
      ctx.override_threads > 0 ? ctx.override_threads : a64fx.cores() / ranks;
  const auto apps_list = ctx.apps_or_default();
  std::vector<ExperimentConfig> configs;
  for (const std::string& app : apps_list) {
    for (const auto& policy : policies) {
      ExperimentConfig cfg = base_config(ctx, app);
      cfg.ranks = ranks;
      cfg.threads = threads;
      cfg.bind = policy;
      configs.push_back(std::move(cfg));
    }
  }
  const SweepOutcome run = run_experiments_resilient(ctx, configs);

  std::size_t i = 0;
  for (const std::string& app : apps_list) {
    std::vector<double> times;  // completed slots only
    std::vector<std::string> row{app};
    for (std::size_t c = 0; c < policies.size(); ++c, ++i) {
      if (const TaskFailure* failure = run.failure(i)) {
        row.push_back(failed_cell(*failure));
        continue;
      }
      const double t = run.results[i].seconds();
      times.push_back(t);
      row.push_back(fmt_ms(t));
    }
    if (times.empty()) {
      row.push_back("-");
    } else {
      const auto [lo, hi] = std::minmax_element(times.begin(), times.end());
      row.push_back(strfmt("%.2f", *hi / *lo));
    }
    table.add_row(std::move(row));
  }
  return table;
}

AllocReport proc_alloc_report(const ReportContext& ctx) {
  ctx.validate();
  const auto policies = alloc_policies();
  std::vector<std::string> header{"app"};
  for (const auto p : policies)
    header.emplace_back(topo::rank_alloc_name(p));
  header.push_back("spread");
  AllocReport report{TextTable(std::move(header)), 0.0};

  const auto apps_list = ctx.apps_or_default();
  std::vector<ExperimentConfig> configs;
  for (const std::string& app : apps_list) {
    for (const auto policy : policies) {
      ExperimentConfig cfg = base_config(ctx, app);
      cfg.ranks = ctx.override_ranks > 0 ? ctx.override_ranks : 8;
      cfg.threads = ctx.override_threads > 0 ? ctx.override_threads : 6;
      cfg.alloc = policy;
      configs.push_back(std::move(cfg));
    }
  }
  const SweepOutcome run = run_experiments_resilient(ctx, configs);

  std::size_t i = 0;
  for (const std::string& app : apps_list) {
    std::vector<double> times;  // completed slots only
    std::vector<std::string> row{app};
    for (std::size_t c = 0; c < policies.size(); ++c, ++i) {
      if (const TaskFailure* failure = run.failure(i)) {
        row.push_back(failed_cell(*failure));
        continue;
      }
      const double t = run.results[i].seconds();
      times.push_back(t);
      row.push_back(fmt_ms(t));
    }
    if (times.empty()) {
      row.push_back("-");
    } else {
      const auto [lo, hi] = std::minmax_element(times.begin(), times.end());
      const double spread = (*hi - *lo) / *lo;
      report.max_spread = std::max(report.max_spread, spread);
      row.push_back(strfmt("%.1f%%", spread * 100.0));
    }
    report.table.add_row(std::move(row));
  }
  return report;
}

namespace {

std::string dataset_suffix(const ReportContext& ctx) {
  return std::string(" (") + apps::dataset_name(ctx.dataset) + " dataset)";
}

}  // namespace

void register_sweep_experiments(ExperimentRegistry& registry) {
  registry.add({"T1", "machine configurations", "Table 1",
                apps::Dataset::kSmall, [](const ReportContext&) {
                  ReportArtifact artifact;
                  artifact.add_table("T1: machine configurations",
                                     machines_table());
                  return artifact;
                }});
  registry.add({"T2", "time per MPI x OMP split on A64FX", "Table 2",
                apps::Dataset::kLarge, [](const ReportContext& ctx) {
                  ReportArtifact artifact;
                  artifact.add_table(
                      "T2: time [ms] vs MPI x OMP on A64FX" +
                          dataset_suffix(ctx),
                      mpi_omp_table(ctx));
                  return artifact;
                }});
  registry.add({"F1", "MPI x OMP sweep relative to each app's best", "Fig. 1",
                apps::Dataset::kLarge, [](const ReportContext& ctx) {
                  ReportArtifact artifact;
                  TextTable table = mpi_omp_relative_table(ctx);
                  const ChartSpec chart{true, "x best", 1,
                                        table.columns() - 2};
                  artifact
                      .add_table("F1: relative time vs MPI x OMP on A64FX" +
                                     dataset_suffix(ctx),
                                 std::move(table))
                      .chart = chart;
                  return artifact;
                }});
  registry.add({"F2", "time vs OpenMP thread stride", "Fig. 2",
                apps::Dataset::kLarge, [](const ReportContext& ctx) {
                  ReportArtifact artifact;
                  TextTable table = thread_stride_table(ctx);
                  const ChartSpec chart{true, "ms", 1, table.columns() - 2};
                  artifact
                      .add_table("F2: time [ms] vs thread stride, 4x12 on "
                                 "A64FX" +
                                     dataset_suffix(ctx),
                                 std::move(table))
                      .chart = chart;
                  if (ctx.supplements) {
                    // 2x24: even the compact baseline spans CMGs there, so
                    // the residual stride effect isolates the shared-traffic
                    // concentration term.
                    ReportContext wide = ctx;
                    wide.override_ranks = 2;
                    wide.override_threads = 24;
                    artifact.add_table(
                        "F2b: time [ms] vs thread stride, 2x24 on A64FX" +
                            dataset_suffix(ctx),
                        thread_stride_table(wide));
                  }
                  return artifact;
                }});
  registry.add({"F3", "time vs MPI process-allocation policy", "Fig. 3",
                apps::Dataset::kLarge, [](const ReportContext& ctx) {
                  AllocReport report = proc_alloc_report(ctx);
                  const std::string spread =
                      strfmt("%.1f%%", report.max_spread * 100.0);
                  ReportArtifact artifact;
                  ReportSection& section = artifact.add_table(
                      "F3: time [ms] vs process allocation, 8x6 on A64FX" +
                          dataset_suffix(ctx),
                      std::move(report.table));
                  section.notes.push_back(
                      "max relative spread over the suite: " + spread);
                  section.cli_notes.push_back("max spread: " + spread);
                  artifact.metrics.push_back(
                      {"max_spread", report.max_spread, "fraction"});
                  return artifact;
                }});
}

}  // namespace fibersim::core
