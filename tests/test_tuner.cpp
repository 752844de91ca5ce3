// core::Tuner property tests.
//
// The load-bearing contracts:
//   * for every miniapp the recommended config, the Pareto front and the
//     baseline equal the argmin, the non-dominated set and the as-is point
//     of an independent brute-force sweep over the same space at the target
//     budget — on a trimmed space, and on the default three-processor space
//     for one app;
//   * an injected prediction failure surfaces as the first candidate's;
//   * seeded determinism: the rendered tune report is byte-identical for
//     --jobs 1 and --jobs 4, per the contract in tuner.hpp;
//   * the Pareto front is a genuine non-dominated set containing the best;
//   * the as-is baseline is answered from the space when it lies there and
//     predicted once more only when it does not;
//   * the cache tiers make the full 14580-point space cheap: at least 50x
//     fewer native runs and stage-1 evaluations than naive enumeration;
//   * stage 1 is looked up once per execution group (processor, ranks,
//     threads), not once per placement, and evaluates what one run per
//     candidate would.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/report_emit.hpp"
#include "common/string_util.hpp"
#include "core/sweep_pool.hpp"
#include "core/tuner.hpp"
#include "fault/fault.hpp"
#include "miniapps/miniapp.hpp"

namespace fibersim::core {
namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// A trimmed but still multi-axis space: one processor, representative
// MPI x OMP combos, the T3 ladder presets. Small enough that exhaustive
// enumeration stays cheap inside a unit test.
TunerOptions trimmed_options(const std::string& app) {
  TunerOptions opts;
  opts.app = app;
  opts.dataset = apps::Dataset::kSmall;
  opts.iterations = 2;
  opts.seed = 7;
  opts.processors = {machine::a64fx()};
  opts.presets = cg::tuning_ladder();
  opts.full_mpi_omp = false;
  return opts;
}

/// Tunes `opts` and checks the outcome against an independent brute-force
/// sweep on a fresh runner, one Runner::run per candidate through
/// SweepPool::run: best, Pareto front and baseline, bit for bit.
void expect_matches_brute_force(const TunerOptions& opts) {
  const std::string& app = opts.app;
  Runner tuner_runner;
  const TuneOutcome outcome = Tuner(tuner_runner, opts).run();

  // Brute force on a fresh runner: every candidate at the target budget.
  Runner brute_runner;
  Tuner enumerator(brute_runner, opts);
  const std::vector<TuneCandidate> space = enumerator.space();
  ASSERT_FALSE(space.empty()) << app;
  EXPECT_EQ(outcome.space_size, space.size()) << app;
  // The space holds the as-is baseline, so it is never predicted twice.
  EXPECT_EQ(outcome.evaluations, space.size()) << app;
  EXPECT_EQ(outcome.deduped, 1u) << app;
  const TuneBudget target{opts.dataset, opts.iterations};
  std::vector<ExperimentConfig> configs;
  configs.reserve(space.size());
  for (const TuneCandidate& candidate : space) {
    configs.push_back(enumerator.make_config(candidate, target));
  }
  const std::vector<ExperimentResult> results =
      SweepPool(2).run(brute_runner, configs);
  ASSERT_EQ(results.size(), space.size()) << app;
  const auto seconds = [&](std::size_t i) { return results[i].seconds(); };
  const auto bw = [&](std::size_t i) {
    return results[i].prediction.bw_pressure();
  };
  // Same tie-break as the tuner's argmin: seconds, then BW pressure, then
  // enumeration order.
  std::size_t best = 0;
  for (std::size_t i = 1; i < results.size(); ++i) {
    if (seconds(i) < seconds(best) ||
        (seconds(i) == seconds(best) && bw(i) < bw(best))) {
      best = i;
    }
  }

  EXPECT_TRUE(same_bits(outcome.best.seconds, seconds(best)))
      << app << ": tuner " << outcome.best.seconds << " vs exhaustive "
      << seconds(best);
  EXPECT_TRUE(same_bits(outcome.best.gflops, results[best].gflops())) << app;
  EXPECT_EQ(outcome.best.candidate, space[best]) << app;

  // The baseline: as-is compile at one rank per NUMA domain, default
  // placement, on the first processor.
  TuneCandidate base;
  base.ranks = configs.front().processor.shape.numa_per_node();
  base.threads = configs.front().processor.cores() / base.ranks;
  base.compile = cg::CompileOptions::as_is();
  const std::size_t base_slot = static_cast<std::size_t>(
      std::find(space.begin(), space.end(), base) - space.begin());
  ASSERT_LT(base_slot, space.size()) << app;
  EXPECT_EQ(outcome.baseline.candidate, base) << app;
  EXPECT_TRUE(same_bits(outcome.baseline.seconds, seconds(base_slot))) << app;
  EXPECT_TRUE(same_bits(outcome.baseline.gflops, results[base_slot].gflops()))
      << app;
  EXPECT_TRUE(same_bits(outcome.baseline.bw_pressure, bw(base_slot))) << app;
  EXPECT_GT(outcome.baseline.seconds, 0.0) << app;
  EXPECT_LE(outcome.best.seconds, outcome.baseline.seconds) << app;

  // The non-dominated set over (seconds, BW pressure); of exact
  // duplicates the first in enumeration order stands for all.
  std::vector<std::size_t> front;
  for (std::size_t i = 0; i < results.size(); ++i) {
    bool dominated = false;
    for (std::size_t j = 0; j < results.size() && !dominated; ++j) {
      const bool no_worse = seconds(j) <= seconds(i) && bw(j) <= bw(i);
      const bool better = seconds(j) < seconds(i) || bw(j) < bw(i);
      dominated = no_worse && (better || j < i);
    }
    if (!dominated) front.push_back(i);
  }
  std::sort(front.begin(), front.end(), [&](std::size_t a, std::size_t b) {
    return seconds(a) < seconds(b);
  });
  ASSERT_EQ(outcome.pareto.size(), front.size()) << app;
  for (std::size_t k = 0; k < front.size(); ++k) {
    EXPECT_EQ(outcome.pareto[k].candidate, space[front[k]]) << app;
    EXPECT_TRUE(same_bits(outcome.pareto[k].seconds, seconds(front[k])))
        << app;
    EXPECT_TRUE(same_bits(outcome.pareto[k].bw_pressure, bw(front[k])))
        << app;
  }
}

TEST(Tuner, ArgminEqualsBruteForceForEveryApp) {
  for (const std::string& app : apps::registry_names()) {
    expect_matches_brute_force(trimmed_options(app));
  }
}

// The default space: every comparison processor and every MPI x OMP pair,
// so placement tasks cross processor boundaries, which the trimmed space
// never does.
TEST(Tuner, DefaultFullSpaceEqualsBruteForce) {
  TunerOptions opts;
  opts.app = "ffvc";
  opts.iterations = 2;
  opts.jobs = 2;
  ASSERT_GT(machine::comparison_set().size(), 1u);
  expect_matches_brute_force(opts);
}

// An injected prediction failure fails every task; the tuner reports the
// lowest: the first candidate of the space, attempt 0.
TEST(Tuner, PredictionFailureNamesTheFirstCandidate) {
  const TunerOptions opts = trimmed_options("ffvc");
  for (const int jobs : {1, 4}) {
    TunerOptions run_opts = opts;
    run_opts.jobs = jobs;
    Runner runner;
    const Tuner tuner(runner, run_opts);
    const std::string expected = strfmt(
        "%s: prediction failure (attempt 0 of %s)", fault::kInjectedMarker,
        tuner
            .make_config(tuner.space().front(),
                         TuneBudget{opts.dataset, opts.iterations})
            .label()
            .c_str());
    fault::ScopedPlan scoped(fault::Plan::parse("predict.fail=1"));
    try {
      (void)tuner.run();
      FAIL() << "expected an injected prediction failure";
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()), expected) << "jobs " << jobs;
    }
    EXPECT_EQ(runner.native_runs(), 0u);
  }
}

std::string render(const TuneOutcome& outcome, const TunerOptions& opts,
                   ReportFormat format) {
  std::ostringstream os;
  EmitOptions emit;
  emit.format = format;
  emit_report(tune_artifact(outcome, opts), emit, os);
  return os.str();
}

TEST(Tuner, SeededRunsAreByteIdenticalAcrossJobsCounts) {
  const TunerOptions opts = trimmed_options("ffvc");

  TunerOptions serial = opts;
  serial.jobs = 1;
  Runner serial_runner;
  const TuneOutcome a = Tuner(serial_runner, serial).run();

  TunerOptions threaded = opts;
  threaded.jobs = 4;
  Runner threaded_runner;
  const TuneOutcome b = Tuner(threaded_runner, threaded).run();

  // Render both under the same options label so only results can differ.
  EXPECT_EQ(render(a, opts, ReportFormat::kText),
            render(b, opts, ReportFormat::kText));
  EXPECT_EQ(render(a, opts, ReportFormat::kJson),
            render(b, opts, ReportFormat::kJson));
  EXPECT_TRUE(same_bits(a.best.seconds, b.best.seconds));
  EXPECT_TRUE(same_bits(a.baseline.seconds, b.baseline.seconds));
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.deduped, b.deduped);
  EXPECT_EQ(a.pareto.size(), b.pareto.size());
}

TEST(Tuner, ParetoFrontIsNonDominatedAndContainsBest) {
  TunerOptions opts = trimmed_options("ffvc");
  Runner runner;
  const TuneOutcome outcome = Tuner(runner, opts).run();

  ASSERT_FALSE(outcome.pareto.empty());
  // Sorted by seconds ascending; bw pressure strictly improving along it.
  for (std::size_t i = 1; i < outcome.pareto.size(); ++i) {
    EXPECT_LE(outcome.pareto[i - 1].seconds, outcome.pareto[i].seconds);
    EXPECT_GT(outcome.pareto[i - 1].bw_pressure,
              outcome.pareto[i].bw_pressure);
  }
  // The fastest point on the front is the recommended best.
  EXPECT_TRUE(same_bits(outcome.pareto.front().seconds, outcome.best.seconds));
  // Nothing on the front is dominated by the best (it IS the seconds-min).
  for (const TuneEvaluation& eval : outcome.pareto) {
    EXPECT_GE(eval.seconds, outcome.best.seconds);
  }
}

TEST(Tuner, BaselineOutsideTheSpaceIsPredictedOnce) {
  TunerOptions opts = trimmed_options("ffvc");
  opts.presets = {cg::CompileOptions::simd_enhanced()};
  Runner runner;
  Tuner tuner(runner, opts);
  const TuneOutcome outcome = tuner.run();
  EXPECT_EQ(outcome.evaluations, tuner.space().size() + 1);
  EXPECT_EQ(outcome.deduped, 0u);
  EXPECT_EQ(outcome.baseline.candidate.compile, cg::CompileOptions::as_is());
  EXPECT_LE(outcome.best.seconds, outcome.baseline.seconds);
}

// The full space with the CLI defaults, costed against naive enumeration:
// one native run per config, and one codegen transform per rank x phase,
// the phases counted from rank 0's trace of each distinct execution.
TEST(Tuner, FullSpaceCutsNativeRunsAndStageOneEvalsFiftyfold) {
  TunerOptions opts;
  opts.app = "ffvc";
  opts.jobs = 2;
  Runner runner;
  Tuner tuner(runner, opts);
  const TuneOutcome outcome = tuner.run();
  ASSERT_EQ(outcome.space_size, 14580u);
  const std::size_t native_runs = runner.native_runs();
  const std::size_t stage1_evals = runner.exec_evals();

  const TuneBudget target{opts.dataset, opts.iterations};
  std::size_t naive_codegen = 0;
  std::map<trace::StoreKey, std::size_t> phases_of;
  for (const TuneCandidate& candidate : tuner.space()) {
    const ExperimentConfig config = tuner.make_config(candidate, target);
    const auto [it, fresh] =
        phases_of.try_emplace(Runner::execution_key(config));
    if (fresh) it->second = runner.expanded_trace(config).front().size();
    naive_codegen += static_cast<std::size_t>(config.ranks) * it->second;
  }

  EXPECT_GT(native_runs, 0u);
  EXPECT_LE(native_runs * 50, outcome.space_size) << native_runs;
  EXPECT_LE(stage1_evals * 50, naive_codegen)
      << stage1_evals << " vs naive " << naive_codegen;
}

// Stage 1 reads neither the binding nor the allocation, so the tuner looks
// each class up once per preset for a whole execution group: the lookups
// are, summed over groups, the classes of every phase times the presets.
// The memo still evaluates exactly what one Runner::run per candidate does.
TEST(Tuner, StageOneLookupsOncePerExecutionGroup) {
  const TunerOptions opts = trimmed_options("ffvc");
  Runner runner;
  Tuner tuner(runner, opts);
  const TuneOutcome outcome = tuner.run();
  ASSERT_EQ(outcome.deduped, 1u);  // no separate baseline predict
  const std::size_t lookups = runner.exec_lookups();
  const std::size_t evals = runner.exec_evals();

  const TuneBudget target{opts.dataset, opts.iterations};
  const std::vector<TuneCandidate> space = tuner.space();
  std::size_t expected = 0;
  std::vector<ExperimentConfig> configs;
  for (std::size_t i = 0; i < space.size(); ++i) {
    configs.push_back(tuner.make_config(space[i], target));
    const bool new_group = i == 0 ||
                           space[i].processor != space[i - 1].processor ||
                           space[i].ranks != space[i - 1].ranks ||
                           space[i].threads != space[i - 1].threads;
    if (!new_group) continue;
    const trace::CanonicalTrace canonical =
        trace::CanonicalTrace::build(runner.expanded_trace(configs.back()));
    expected += canonical.class_count() * opts.presets.size();
  }
  EXPECT_EQ(lookups, expected);

  Runner brute_runner;
  (void)SweepPool(2).run(brute_runner, configs);
  EXPECT_EQ(evals, brute_runner.exec_evals());
}

}  // namespace
}  // namespace fibersim::core
