// Tests for canonical trace compaction and prediction memoization: the
// memoized path must be bit-identical to the naive predictor for every
// miniapp, dataset and sweep axis; eval counters must scale with distinct
// work, not with sweep size; the caches must behave deterministically under
// SweepPool concurrency.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "cg/codegen_cache.hpp"
#include "common/error.hpp"
#include "core/runner.hpp"
#include "core/sweep.hpp"
#include "core/sweep_pool.hpp"
#include "machine/eval_cache.hpp"
#include "native_trace.hpp"
#include "trace/canonical.hpp"
#include "trace/predict.hpp"

namespace fibersim {
namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// Bitwise comparison of two predictions, down to per-phase components.
void expect_identical(const trace::JobPrediction& a,
                      const trace::JobPrediction& b) {
  EXPECT_TRUE(same_bits(a.total_s, b.total_s));
  EXPECT_TRUE(same_bits(a.compute_s, b.compute_s));
  EXPECT_TRUE(same_bits(a.memory_s, b.memory_s));
  EXPECT_TRUE(same_bits(a.comm_s, b.comm_s));
  EXPECT_TRUE(same_bits(a.barrier_s, b.barrier_s));
  EXPECT_TRUE(same_bits(a.flops, b.flops));
  EXPECT_TRUE(same_bits(a.dram_bytes, b.dram_bytes));
  EXPECT_TRUE(same_bits(a.setup_s, b.setup_s));
  ASSERT_EQ(a.phases.size(), b.phases.size());
  for (std::size_t p = 0; p < a.phases.size(); ++p) {
    EXPECT_EQ(a.phases[p].name, b.phases[p].name);
    EXPECT_EQ(a.phases[p].timed, b.phases[p].timed);
    EXPECT_TRUE(same_bits(a.phases[p].comm_s, b.phases[p].comm_s));
    EXPECT_TRUE(same_bits(a.phases[p].total_s, b.phases[p].total_s));
    EXPECT_TRUE(same_bits(a.phases[p].time.total_s, b.phases[p].time.total_s));
    EXPECT_TRUE(
        same_bits(a.phases[p].time.compute_s, b.phases[p].time.compute_s));
    EXPECT_TRUE(
        same_bits(a.phases[p].time.memory_s, b.phases[p].time.memory_s));
    EXPECT_TRUE(
        same_bits(a.phases[p].time.barrier_s, b.phases[p].time.barrier_s));
    EXPECT_TRUE(same_bits(a.phases[p].time.flops, b.phases[p].time.flops));
  }
}

TEST(PredictMemo, BitIdenticalForEveryMiniappAndDataset) {
  const std::vector<machine::ProcessorConfig> processors = {
      machine::a64fx(), machine::skylake8168_dual()};
  const std::vector<cg::CompileOptions> options = {
      cg::CompileOptions::as_is(), cg::CompileOptions::simd_sched()};
  const std::vector<topo::RankAllocPolicy> allocs = {
      topo::RankAllocPolicy::kBlock, topo::RankAllocPolicy::kScatter};
  const std::vector<topo::ThreadBindPolicy> binds = {
      topo::ThreadBindPolicy::compact(), topo::ThreadBindPolicy::scatter()};
  const int ranks = 2;
  const int threads = 4;

  for (const std::string& app : apps::registry_names()) {
    for (const apps::Dataset dataset :
         {apps::Dataset::kSmall, apps::Dataset::kLarge}) {
      const trace::JobTrace raw =
          record_native(app, ranks, threads, dataset).trace;
      const trace::CanonicalTrace canonical = trace::CanonicalTrace::build(raw);

      cg::CodegenCache codegen;
      machine::EvalCache evals;
      const trace::PredictMemo memo{&codegen, &evals};
      for (const machine::ProcessorConfig& proc : processors) {
        const topo::Topology topology(proc.shape, 1);
        for (const cg::CompileOptions& opts : options) {
          for (const topo::RankAllocPolicy alloc : allocs) {
            for (const topo::ThreadBindPolicy& bind : binds) {
              const topo::Binding binding =
                  topo::Binding::make(topology, ranks, threads, alloc, bind);
              // A fresh naive prediction on the raw trace is the reference.
              const trace::JobPrediction naive =
                  trace::predict_job(proc, opts, binding, raw);
              const trace::JobPrediction memoized =
                  trace::predict_job(proc, opts, binding, canonical, memo);
              // The memo-free canonical path must agree too.
              const trace::JobPrediction plain =
                  trace::predict_job(proc, opts, binding, canonical);
              SCOPED_TRACE(app + "/" + apps::dataset_name(dataset));
              expect_identical(naive, memoized);
              expect_identical(naive, plain);
            }
          }
        }
      }
    }
  }
}

TEST(CanonicalTrace, GroupsRanksAndValidatesOnce) {
  const trace::JobTrace raw = record_native("ffvc", 4, 2).trace;
  const trace::CanonicalTrace canonical = trace::CanonicalTrace::build(raw);
  EXPECT_EQ(canonical.ranks(), 4);
  EXPECT_EQ(canonical.phase_count(), raw.front().size());
  EXPECT_GT(canonical.class_count(), 0u);
  EXPECT_LE(canonical.class_count(), raw.front().size() * raw.size());
  for (const trace::CanonicalTrace::Phase& ph : canonical.phases()) {
    std::size_t members = 0;
    for (const trace::CanonicalTrace::Class& cls : ph.classes) {
      EXPECT_FALSE(cls.ranks.empty());
      for (const int r : cls.ranks) {
        EXPECT_EQ(ph.class_of[static_cast<std::size_t>(r)],
                  static_cast<int>(&cls - ph.classes.data()));
        EXPECT_TRUE(
            trace::records_equal(cls.record, raw[static_cast<std::size_t>(r)]
                                                [&ph - canonical.phases().data()]));
      }
      members += cls.ranks.size();
    }
    EXPECT_EQ(members, raw.size());
  }

  // The agreement contract is enforced at build time, with the same error
  // the naive predictor raises per call.
  trace::JobTrace disagreeing = raw;
  disagreeing[1][0].name = "bogus";
  EXPECT_THROW(trace::CanonicalTrace::build(disagreeing), Error);
  trace::JobTrace ragged = raw;
  ragged[2].pop_back();
  EXPECT_THROW(trace::CanonicalTrace::build(ragged), Error);
  EXPECT_THROW(trace::CanonicalTrace::build(trace::JobTrace{}), Error);
}

TEST(PredictMemo, CodegenEvalsIndependentOfBindingCount) {
  const int ranks = 4;
  const int threads = 4;
  const trace::JobTrace raw = record_native("ffvc", ranks, threads).trace;
  const trace::CanonicalTrace canonical = trace::CanonicalTrace::build(raw);
  const machine::ProcessorConfig proc = machine::a64fx();
  const cg::CompileOptions opts = cg::CompileOptions::simd_sched();

  // 20 distinct placements of the same ranks x threads job: stride/alloc
  // variations on one node plus the same grid spread over two nodes.
  std::vector<topo::Binding> bindings;
  for (const int nodes : {1, 2}) {
    const topo::Topology topology(proc.shape, nodes);
    for (const topo::RankAllocPolicy alloc : core::alloc_policies()) {
      for (const topo::ThreadBindPolicy& bind :
           core::stride_policies(proc.shape)) {
        bindings.push_back(
            topo::Binding::make(topology, ranks, threads, alloc, bind));
        if (bindings.size() >= 20) break;
      }
      if (bindings.size() >= 20) break;
    }
  }
  ASSERT_GE(bindings.size(), 10u);

  cg::CodegenCache codegen;
  machine::EvalCache evals;
  const trace::PredictMemo memo{&codegen, &evals};
  (void)trace::predict_job(proc, opts, bindings.front(), canonical, memo);
  const std::size_t codegen_after_one = codegen.evals();
  const std::size_t exec_after_one = evals.evals();
  EXPECT_GT(codegen_after_one, 0u);

  for (const topo::Binding& binding : bindings) {
    (void)trace::predict_job(proc, opts, binding, canonical, memo);
  }
  // Codegen depends only on (options, work): binding count must not move it.
  EXPECT_EQ(codegen.evals(), codegen_after_one);
  // Exec-model work depends only on (processor, per-thread work); every
  // binding shares the same thread count, so no new evaluations either.
  EXPECT_EQ(evals.evals(), exec_after_one);
  // Lookup/hit accounting stays exact.
  EXPECT_EQ(codegen.hits() + codegen.evals(), codegen.lookups());
  EXPECT_EQ(evals.hits() + evals.evals(), evals.lookups());
  EXPECT_GT(codegen.hits(), 0u);
  EXPECT_GT(evals.hits(), 0u);
}

TEST(PredictMemo, DistinctProcessorsNeverShareExecEvaluations) {
  const trace::JobTrace raw = record_native("ffvc", 2, 2).trace;
  const trace::CanonicalTrace canonical = trace::CanonicalTrace::build(raw);
  const cg::CompileOptions opts = cg::CompileOptions::as_is();

  cg::CodegenCache codegen;
  machine::EvalCache evals;
  const trace::PredictMemo memo{&codegen, &evals};

  const machine::ProcessorConfig a = machine::a64fx();
  machine::ProcessorConfig b = machine::a64fx();
  b.freq_hz *= 2.0;  // same shape, different machine
  const topo::Topology topology(a.shape, 1);
  const topo::Binding binding =
      topo::Binding::make(topology, 2, 2, topo::RankAllocPolicy::kBlock,
                          topo::ThreadBindPolicy::compact());

  (void)trace::predict_job(a, opts, binding, canonical, memo);
  const std::size_t after_a = evals.evals();
  const std::size_t codegen_after_a = codegen.evals();
  (void)trace::predict_job(b, opts, binding, canonical, memo);
  // Same work, different processor: the exec cache must re-evaluate.
  EXPECT_EQ(evals.evals(), 2 * after_a);
  EXPECT_EQ(evals.processors(), 2u);
  // Codegen is processor-independent: the second machine adds no evals.
  EXPECT_EQ(codegen.evals(), codegen_after_a);

  // Re-running either machine is all hits everywhere.
  const std::size_t exec_evals_before = evals.evals();
  (void)trace::predict_job(a, opts, binding, canonical, memo);
  (void)trace::predict_job(b, opts, binding, canonical, memo);
  EXPECT_EQ(evals.evals(), exec_evals_before);
}

TEST(Runner, ExposesDeterministicMemoCounters) {
  core::Runner runner;
  core::ExperimentConfig cfg;
  cfg.app = "ffvc";
  cfg.dataset = apps::Dataset::kSmall;
  cfg.ranks = 2;
  cfg.threads = 2;
  cfg.iterations = 1;

  (void)runner.run(cfg);
  const std::size_t codegen_evals = runner.codegen_evals();
  const std::size_t exec_evals = runner.exec_evals();
  EXPECT_GT(codegen_evals, 0u);
  EXPECT_GT(exec_evals, 0u);

  // Re-evaluating the same point is pure cache traffic.
  (void)runner.run(cfg);
  EXPECT_EQ(runner.codegen_evals(), codegen_evals);
  EXPECT_EQ(runner.exec_evals(), exec_evals);
  EXPECT_GT(runner.codegen_hits(), 0u);
  EXPECT_GT(runner.exec_hits(), 0u);
  EXPECT_EQ(runner.codegen_hits() + runner.codegen_evals(),
            runner.codegen_lookups());
  EXPECT_EQ(runner.exec_hits() + runner.exec_evals(), runner.exec_lookups());

  // A new compile configuration re-runs codegen but not the native app.
  cfg.compile = cg::CompileOptions::as_is();
  (void)runner.run(cfg);
  EXPECT_GT(runner.codegen_evals(), codegen_evals);
  EXPECT_EQ(runner.native_runs(), 1u);
}

// SweepPool-driven concurrency over the shared Runner caches: results and
// counters must match a serial sweep exactly. Runs under `ctest -L sanitize`
// (TSan when configured with -DFIBERSIM_SANITIZE=thread).
TEST(PredictMemo, ConcurrentSweepSharesCachesDeterministically) {
  std::vector<core::ExperimentConfig> configs;
  for (const machine::ProcessorConfig& proc : machine::comparison_set()) {
    for (const cg::CompileOptions& opts :
         {cg::CompileOptions::as_is(), cg::CompileOptions::simd_sched()}) {
      for (const topo::RankAllocPolicy alloc :
           {topo::RankAllocPolicy::kBlock, topo::RankAllocPolicy::kScatter}) {
        core::ExperimentConfig cfg;
        cfg.app = "ffvc";
        cfg.dataset = apps::Dataset::kSmall;
        cfg.ranks = 2;
        cfg.threads = 4;
        cfg.iterations = 1;
        cfg.processor = proc;
        cfg.compile = opts;
        cfg.alloc = alloc;
        configs.push_back(cfg);
      }
    }
  }

  core::Runner serial_runner;
  const auto serial = core::SweepPool(1).run(serial_runner, configs);
  core::Runner parallel_runner;
  const auto parallel = core::SweepPool(8).run(parallel_runner, configs);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    expect_identical(serial[i].prediction, parallel[i].prediction);
  }
  // The distinct-work counters are deterministic: independent of the worker
  // interleaving, only of the set of configs evaluated.
  EXPECT_EQ(serial_runner.codegen_evals(), parallel_runner.codegen_evals());
  EXPECT_EQ(serial_runner.exec_evals(), parallel_runner.exec_evals());
  EXPECT_EQ(serial_runner.codegen_lookups(),
            parallel_runner.codegen_lookups());
  EXPECT_EQ(serial_runner.exec_lookups(), parallel_runner.exec_lookups());
  EXPECT_GT(parallel_runner.codegen_hits(), 0u);
  EXPECT_GT(parallel_runner.exec_hits(), 0u);
}

}  // namespace
}  // namespace fibersim
