// Tests for canonical trace compaction and prediction memoization: the
// memoized path must be bit-identical to the naive predictor for every
// miniapp, dataset and sweep axis; eval counters must scale with distinct
// work, not with sweep size; the stage-1 memo must key on every input that
// can change an answer and behave deterministically under concurrency.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <latch>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "cg/codegen_model.hpp"
#include "common/error.hpp"
#include "core/runner.hpp"
#include "core/sweep.hpp"
#include "core/sweep_pool.hpp"
#include "machine/eval_cache.hpp"
#include "native_trace.hpp"
#include "oracle_predict.hpp"
#include "trace/canonical.hpp"
#include "trace/collapsed.hpp"
#include "trace/predict.hpp"

namespace fibersim {
namespace {

using oracle::expect_identical;
using oracle::same_bits;

/// Predicts `raw` at every processor x options x alloc x bind point three
/// ways — naive on the raw trace, canonical through one shared stage-1 memo,
/// and canonical without a memo — and expects the three bit for bit equal.
void expect_memo_matches_naive(
    const trace::JobTrace& raw, int threads,
    const std::vector<machine::ProcessorConfig>& processors,
    const std::vector<cg::CompileOptions>& options,
    const std::vector<topo::RankAllocPolicy>& allocs,
    const std::vector<topo::ThreadBindPolicy>& binds) {
  const int ranks = static_cast<int>(raw.size());
  const trace::CanonicalTrace canonical = trace::CanonicalTrace::build(raw);
  machine::EvalCache stage1;
  const trace::PredictMemo memo{&stage1};
  for (const machine::ProcessorConfig& proc : processors) {
    const topo::Topology topology(proc.shape, 1);
    for (const cg::CompileOptions& opts : options) {
      for (const topo::RankAllocPolicy alloc : allocs) {
        for (const topo::ThreadBindPolicy& bind : binds) {
          const topo::Binding binding =
              topo::Binding::make(topology, ranks, threads, alloc, bind);
          // A fresh naive prediction on the raw trace is the reference.
          const trace::JobPrediction naive =
              oracle::predict_job(proc, opts, binding, raw);
          expect_identical(
              naive, trace::predict_job(proc, opts, binding, canonical, memo));
          expect_identical(naive,
                           trace::predict_job(proc, opts, binding, canonical));
        }
      }
    }
  }
}

TEST(PredictMemo, BitIdenticalForEveryMiniappAndDataset) {
  const std::vector<topo::ThreadBindPolicy> binds = {
      topo::ThreadBindPolicy::compact(), topo::ThreadBindPolicy::scatter()};
  for (const std::string& app : apps::registry_names()) {
    for (const apps::Dataset dataset :
         {apps::Dataset::kSmall, apps::Dataset::kLarge}) {
      SCOPED_TRACE(app + "/" + apps::dataset_name(dataset));
      expect_memo_matches_naive(
          record_native(app, 2, 4, dataset).trace, 4,
          {machine::a64fx(), machine::skylake8168_dual()},
          {cg::CompileOptions::as_is(), cg::CompileOptions::simd_sched()},
          {topo::RankAllocPolicy::kBlock, topo::RankAllocPolicy::kScatter},
          binds);
    }
  }
  // A T2/F1-shaped sweep on one wider job: every comparison processor,
  // compile preset and rank allocation shares the single trace.
  SCOPED_TRACE("ffvc/small 4x12 sweep");
  expect_memo_matches_naive(
      record_native("ffvc", 4, 12).trace, 12, machine::comparison_set(),
      {cg::CompileOptions::as_is(), cg::CompileOptions::simd_enhanced(),
       cg::CompileOptions::simd_sched()},
      core::alloc_policies(), binds);
}

// The multi-preset engine against one single-preset predict per preset:
// every app under all 36 search presets, from a canonical and a collapsed
// trace, on 1, 4 and 16 nodes (remote sends, shared torus links), packed on
// an A64FX with block ranks and scattered on a dual Skylake with cyclic
// ranks. The engine runs each phase's comm half once for all presets; each
// preset's prediction must still be bit-identical to its own predict_job.
TEST(PredictPresets, EachPresetEqualsItsOwnPredictJob) {
  constexpr int kRanks = 16;
  constexpr int kThreads = 2;
  const std::vector<cg::CompileOptions> presets = cg::search_presets();
  ASSERT_EQ(presets.size(), 36u);
  struct Placement {
    machine::ProcessorConfig cfg;
    topo::RankAllocPolicy alloc;
    topo::ThreadBindPolicy bind;
  };
  const std::vector<Placement> placements = {
      {machine::a64fx(), topo::RankAllocPolicy::kBlock,
       topo::ThreadBindPolicy::compact()},
      {machine::skylake8168_dual(), topo::RankAllocPolicy::kCyclic,
       topo::ThreadBindPolicy::scatter()}};

  for (const std::string& app : apps::registry_names()) {
    const trace::CanonicalTrace canonical = trace::CanonicalTrace::build(
        record_native(app, kRanks, kThreads).trace);
    const trace::CollapsedTrace collapsed =
        record_collapsed(app, kRanks, kThreads);
    for (const Placement& placement : placements) {
      for (const int nodes : {1, 4, kRanks}) {
        const topo::Topology topology(placement.cfg.shape, nodes);
        const topo::Binding binding =
            topo::Binding::make(topology, kRanks, kThreads, placement.alloc,
                                placement.bind);
        machine::EvalCache stage1;
        const trace::PredictMemo memo{&stage1};
        const auto check = [&](const auto& trace, const char* form) {
          SCOPED_TRACE(app + " " + form + " on " + placement.cfg.name + ", " +
                       std::to_string(nodes) + " node(s)");
          const std::vector<trace::JobPrediction> multi =
              trace::predict_presets(placement.cfg, presets, binding, trace,
                                     memo);
          ASSERT_EQ(multi.size(), presets.size());
          for (std::size_t k = 0; k < presets.size(); ++k) {
            SCOPED_TRACE(presets[k].name());
            expect_identical(multi[k],
                             trace::predict_job(placement.cfg, presets[k],
                                                binding, trace));
          }
        };
        check(canonical, "canonical");
        check(collapsed, "collapsed");
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

TEST(PredictMemo, Stage1EvalsIndependentOfBindingCount) {
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

  machine::EvalCache stage1;
  const trace::PredictMemo memo{&stage1};
  (void)trace::predict_job(proc, opts, bindings.front(), canonical, memo);
  const std::size_t after_one = stage1.evals();
  EXPECT_GT(after_one, 0u);

  for (const topo::Binding& binding : bindings) {
    (void)trace::predict_job(proc, opts, binding, canonical, memo);
  }
  // Stage 1 depends only on (processor, options, thread share, class work);
  // every binding shares the thread count, so the binding count must not
  // move it.
  EXPECT_EQ(stage1.evals(), after_one);
  // One lookup per class per phase per predict; hit accounting stays exact.
  EXPECT_EQ(stage1.lookups(), (bindings.size() + 1) * canonical.class_count());
  EXPECT_EQ(stage1.hits() + stage1.evals(), stage1.lookups());
  EXPECT_GT(stage1.hits(), 0u);
}

TEST(PredictMemo, DistinctProcessorsNeverShareExecEvaluations) {
  const trace::JobTrace raw = record_native("ffvc", 2, 2).trace;
  const trace::CanonicalTrace canonical = trace::CanonicalTrace::build(raw);
  const cg::CompileOptions opts = cg::CompileOptions::as_is();

  machine::EvalCache stage1;
  const trace::PredictMemo memo{&stage1};

  const machine::ProcessorConfig a = machine::a64fx();
  machine::ProcessorConfig b = machine::a64fx();
  b.freq_hz *= 2.0;  // same shape, different machine
  const topo::Topology topology(a.shape, 1);
  const topo::Binding binding =
      topo::Binding::make(topology, 2, 2, topo::RankAllocPolicy::kBlock,
                          topo::ThreadBindPolicy::compact());

  (void)trace::predict_job(a, opts, binding, canonical, memo);
  const std::size_t after_a = stage1.evals();
  EXPECT_GT(after_a, 0u);
  (void)trace::predict_job(b, opts, binding, canonical, memo);
  // Same work and options, different processor: the second machine
  // re-evaluates every entry the first one made, and shares none.
  EXPECT_EQ(stage1.evals(), 2 * after_a);
  EXPECT_EQ(stage1.processors(), 2u);

  // Re-running either machine is all hits.
  (void)trace::predict_job(a, opts, binding, canonical, memo);
  (void)trace::predict_job(b, opts, binding, canonical, memo);
  EXPECT_EQ(stage1.evals(), 2 * after_a);
  EXPECT_EQ(stage1.hits() + stage1.evals(), stage1.lookups());
}

// ---- the stage-1 memo on its own -------------------------------------------

/// Every input of one stage-1 evaluation.
struct Stage1Input {
  machine::ProcessorConfig proc;
  cg::CompileOptions opts;
  int share = 1;
  isa::WorkEstimate work;
};

/// The reference: codegen, the thread share, then a fresh work evaluation.
machine::WorkEval fresh_eval(const Stage1Input& in) {
  const isa::WorkEstimate generated = cg::apply(in.opts, in.work);
  const machine::ExecModel exec(in.proc);
  return exec.evaluate_work(
      in.share > 1 ? generated.scaled(1.0 / static_cast<double>(in.share))
                   : generated);
}

bool same_eval(const machine::WorkEval& a, const machine::WorkEval& b) {
  return same_bits(a.flops, b.flops) && same_bits(a.dram_bytes, b.dram_bytes) &&
         same_bits(a.local_bytes, b.local_bytes) &&
         same_bits(a.home_bytes, b.home_bytes) &&
         same_bits(a.compute_s, b.compute_s) &&
         same_bits(a.chain_s, b.chain_s);
}

/// One lookup of `in`, keyed on `work_h` (isa::work_hash unless a test
/// forces a collision).
machine::WorkEval memo_eval(machine::EvalCache& memo, const Stage1Input& in,
                            std::uint64_t work_h) {
  memo.count_lookups(1);
  const std::uint64_t context = machine::EvalCache::with_share(
      memo.context_token(in.proc, in.opts), in.share);
  return memo.work_eval(machine::ExecModel(in.proc), context, in.work, work_h);
}

isa::WorkEstimate sample_work() {
  isa::WorkEstimate w;
  w.flops = 4.0e6;
  w.load_bytes = 3.2e7;
  w.store_bytes = 8.0e6;
  w.int_ops = 1.0e6;
  w.branches = 5.0e5;
  w.iterations = 1.0e6;
  w.vectorizable_fraction = 0.8;
  w.fma_fraction = 0.5;
  w.dep_chain_ops = 0.0;
  w.gather_fraction = 0.1;
  w.branch_miss_rate = 0.02;
  w.shared_access_fraction = 0.25;
  w.working_set_bytes = 4.0e7;
  w.dram_traffic_bytes = -1.0;
  w.inner_trip_count = 64.0;
  return w;
}

Stage1Input sample_input() {
  return Stage1Input{machine::a64fx(), cg::CompileOptions::simd_sched(), 2,
                     sample_work()};
}

TEST(Stage1Memo, InputsDifferingInOneFieldNeverShareAnEntry) {
  std::vector<Stage1Input> inputs = {sample_input()};
  // One WorkEstimate field at a time, moved by one ulp.
  for (double isa::WorkEstimate::*field :
       {&isa::WorkEstimate::flops, &isa::WorkEstimate::load_bytes,
        &isa::WorkEstimate::store_bytes, &isa::WorkEstimate::int_ops,
        &isa::WorkEstimate::branches, &isa::WorkEstimate::iterations,
        &isa::WorkEstimate::vectorizable_fraction,
        &isa::WorkEstimate::fma_fraction, &isa::WorkEstimate::dep_chain_ops,
        &isa::WorkEstimate::gather_fraction,
        &isa::WorkEstimate::branch_miss_rate,
        &isa::WorkEstimate::shared_access_fraction,
        &isa::WorkEstimate::working_set_bytes,
        &isa::WorkEstimate::dram_traffic_bytes,
        &isa::WorkEstimate::inner_trip_count}) {
    Stage1Input in = sample_input();
    in.work.*field = std::nextafter(in.work.*field,
                                    std::numeric_limits<double>::infinity());
    inputs.push_back(in);
  }
  // +0.0 vs -0.0: equal as doubles, distinct as inputs.
  inputs.push_back(sample_input());
  inputs.back().work.dep_chain_ops = -0.0;
  // The compiler profile alone.
  inputs.push_back(sample_input());
  inputs.back().opts.compiler = cg::CompilerProfile::kGnu;
  // The thread share alone.
  inputs.push_back(sample_input());
  inputs.back().share = 1;
  inputs.push_back(sample_input());
  inputs.back().share = 4;
  // One processor field alone.
  inputs.push_back(sample_input());
  inputs.back().proc.freq_hz =
      std::nextafter(inputs.back().proc.freq_hz, 0.0);

  machine::EvalCache memo;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    SCOPED_TRACE(i);
    const Stage1Input& in = inputs[i];
    EXPECT_TRUE(same_eval(memo_eval(memo, in, isa::work_hash(in.work)),
                          fresh_eval(in)));
    EXPECT_EQ(memo.evals(), i + 1);  // a new entry, never a shared one
  }
  EXPECT_EQ(memo.processors(), 2u);

  // A second pass hits every entry and still returns each input's own bits.
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    SCOPED_TRACE(i);
    const Stage1Input& in = inputs[i];
    EXPECT_TRUE(same_eval(memo_eval(memo, in, isa::work_hash(in.work)),
                          fresh_eval(in)));
  }
  EXPECT_EQ(memo.evals(), inputs.size());
  EXPECT_EQ(memo.hits(), inputs.size());
  EXPECT_EQ(memo.lookups(), 2 * inputs.size());
}

TEST(Stage1Memo, EqualHashesNeverAliasDifferentWork) {
  const Stage1Input a = sample_input();
  Stage1Input b = sample_input();
  b.work.flops *= 2.0;
  const std::uint64_t forced = 42;  // the same hash for different work

  machine::EvalCache memo;
  EXPECT_TRUE(same_eval(memo_eval(memo, a, forced), fresh_eval(a)));
  EXPECT_TRUE(same_eval(memo_eval(memo, b, forced), fresh_eval(b)));
  EXPECT_EQ(memo.evals(), 2u);
  EXPECT_FALSE(same_eval(fresh_eval(a), fresh_eval(b)));
  // Both now sit in one chain; each lookup still finds its own entry.
  EXPECT_TRUE(same_eval(memo_eval(memo, a, forced), fresh_eval(a)));
  EXPECT_TRUE(same_eval(memo_eval(memo, b, forced), fresh_eval(b)));
  EXPECT_EQ(memo.evals(), 2u);
}

// Runs under `ctest -L sanitize`: lock-free hits racing with striped inserts.
TEST(Stage1Memo, RacingThreadsEvaluateEachInputOnce) {
  std::vector<Stage1Input> inputs;
  for (const double scale : {1.0, 2.0, 3.0, 5.0}) {
    for (const int share : {1, 4}) {
      for (const cg::CompileOptions& opts :
           {cg::CompileOptions::as_is(), cg::CompileOptions::simd_sched()}) {
        Stage1Input in = sample_input();
        in.work = in.work.scaled(scale);
        in.share = share;
        in.opts = opts;
        inputs.push_back(in);
      }
    }
  }
  std::vector<std::uint64_t> hashes;
  for (const Stage1Input& in : inputs) {
    hashes.push_back(isa::work_hash(in.work));
  }

  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kRounds = 3;
  machine::EvalCache memo;
  std::vector<std::vector<machine::WorkEval>> results(
      kThreads, std::vector<machine::WorkEval>(inputs.size()));
  std::latch start(static_cast<std::ptrdiff_t>(kThreads));
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      start.arrive_and_wait();
      for (std::size_t round = 0; round < kRounds; ++round) {
        for (std::size_t k = 0; k < inputs.size(); ++k) {
          // Each thread walks the inputs from its own offset.
          const std::size_t i = (k + t) % inputs.size();
          results[t][i] = memo_eval(memo, inputs[i], hashes[i]);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();

  EXPECT_EQ(memo.evals(), inputs.size());
  EXPECT_EQ(memo.lookups(), kThreads * kRounds * inputs.size());
  EXPECT_EQ(memo.hits() + memo.evals(), memo.lookups());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const machine::WorkEval reference = fresh_eval(inputs[i]);
    for (std::size_t t = 0; t < kThreads; ++t) {
      EXPECT_TRUE(same_eval(results[t][i], reference)) << t << "/" << i;
    }
  }
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
