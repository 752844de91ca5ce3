// Tests for fibersim::fault and the resilient sweep machinery: plan parsing,
// deterministic fault decisions, Runner retry (no wedged cache entries),
// per-slot sweep failure isolation, watchdog recovery of blocked mailboxes,
// journal kill+resume, and the byte-identity contract — transient faults plus
// retries converge to the fault-free report bytes.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "core/journal.hpp"
#include "core/reports.hpp"
#include "core/runner.hpp"
#include "core/sweep_pool.hpp"
#include "fault/fault.hpp"

namespace fibersim {
namespace {

using core::ExperimentConfig;
using core::ExperimentResult;
using core::ReportContext;
using core::Runner;
using core::SweepControl;
using core::SweepJournal;
using core::SweepOutcome;
using core::SweepPool;

ExperimentConfig small_ffvc(int ranks, int threads) {
  ExperimentConfig cfg;
  cfg.app = "ffvc";
  cfg.dataset = apps::Dataset::kSmall;
  cfg.ranks = ranks;
  cfg.threads = threads;
  cfg.iterations = 1;
  return cfg;
}

std::vector<ExperimentConfig> small_sweep() {
  std::vector<ExperimentConfig> configs;
  for (const auto& [p, t] :
       std::vector<std::pair<int, int>>{{2, 1}, {4, 1}, {2, 2}, {4, 2}}) {
    configs.push_back(small_ffvc(p, t));
  }
  return configs;
}

// ----- plan parsing -------------------------------------------------------

TEST(FaultPlan, DefaultsAreBenign) {
  const fault::Plan plan;
  EXPECT_EQ(plan.seed, 1u);
  EXPECT_EQ(plan.transient, 0);
  EXPECT_FALSE(plan.any_mp());
  EXPECT_EQ(plan.run_fail, 0);
  EXPECT_EQ(plan.predict_fail, 0);
}

TEST(FaultPlan, ParsesEveryKey) {
  const fault::Plan plan = fault::Plan::parse(
      "seed=7;transient=2;mp.drop=0.25;mp.delay=0.5;mp.dup=0.125;"
      "mp.rankdeath=0.01;mp.delay_ms=3;mp.timeout_ms=250;rt.throw=0.0625;"
      "run.fail=1;predict.fail=2");
  EXPECT_EQ(plan.seed, 7u);
  EXPECT_EQ(plan.transient, 2);
  EXPECT_DOUBLE_EQ(plan.mp_drop, 0.25);
  EXPECT_DOUBLE_EQ(plan.mp_delay, 0.5);
  EXPECT_DOUBLE_EQ(plan.mp_dup, 0.125);
  EXPECT_DOUBLE_EQ(plan.mp_rank_death, 0.01);
  EXPECT_DOUBLE_EQ(plan.mp_delay_ms, 3.0);
  EXPECT_DOUBLE_EQ(plan.mp_timeout_ms, 250.0);
  EXPECT_DOUBLE_EQ(plan.rt_throw, 0.0625);
  EXPECT_EQ(plan.run_fail, 1);
  EXPECT_EQ(plan.predict_fail, 2);
  EXPECT_TRUE(plan.any_mp());
}

TEST(FaultPlan, CommaSeparatorAndSpecRoundTrip) {
  const fault::Plan plan = fault::Plan::parse("seed=3,mp.drop=0.5,run.fail=2");
  EXPECT_EQ(plan.seed, 3u);
  EXPECT_DOUBLE_EQ(plan.mp_drop, 0.5);
  const fault::Plan again = fault::Plan::parse(plan.spec());
  EXPECT_EQ(again.spec(), plan.spec());
  EXPECT_EQ(again.seed, plan.seed);
  EXPECT_DOUBLE_EQ(again.mp_drop, plan.mp_drop);
  EXPECT_EQ(again.run_fail, plan.run_fail);
}

TEST(FaultPlan, RejectsUnknownKeysAndBadValues) {
  EXPECT_THROW(fault::Plan::parse("bogus=1"), Error);
  EXPECT_THROW(fault::Plan::parse("mp.drop=1.5"), Error);
  EXPECT_THROW(fault::Plan::parse("mp.drop=-0.1"), Error);
  EXPECT_THROW(fault::Plan::parse("transient=-1"), Error);
  EXPECT_THROW(fault::Plan::parse("mp.drop"), Error);
}

TEST(FaultPlan, InstallTogglesEnabled) {
  EXPECT_FALSE(fault::enabled());
  {
    fault::ScopedPlan scoped(fault::Plan::parse("mp.drop=0.5"));
    EXPECT_TRUE(fault::enabled());
    ASSERT_NE(fault::active(), nullptr);
    EXPECT_DOUBLE_EQ(fault::active()->mp_drop, 0.5);
  }
  EXPECT_FALSE(fault::enabled());
  EXPECT_EQ(fault::active(), nullptr);
}

// ----- error classification -----------------------------------------------

TEST(FaultClassify, MarkersMapToClasses) {
  using fault::ErrorClass;
  EXPECT_EQ(fault::classify("fault: injected rank death"),
            ErrorClass::kInjected);
  EXPECT_EQ(fault::classify("fault: recv timeout: rank 1"),
            ErrorClass::kTimeout);
  EXPECT_EQ(fault::classify("fault: watchdog: no progress"),
            ErrorClass::kWatchdog);
  EXPECT_EQ(fault::classify("mp job aborted (rank 2)"), ErrorClass::kPoison);
  EXPECT_EQ(fault::classify("something else entirely"), ErrorClass::kOther);
  EXPECT_STREQ(fault::error_class_name(ErrorClass::kInjected), "injected");
  EXPECT_STREQ(fault::error_class_name(ErrorClass::kPoison), "poisoned");
}

// ----- session determinism ------------------------------------------------

TEST(FaultSession, DecisionsArePureFunctionsOfSiteIdentity) {
  auto plan = std::make_shared<fault::Plan>();
  plan->mp_drop = 0.3;
  plan->mp_dup = 0.2;
  plan->mp_rank_death = 0.4;
  plan->rt_throw = 0.5;
  const fault::Session a(plan, 0xabcdef, 1);
  const fault::Session b(plan, 0xabcdef, 1);
  ASSERT_TRUE(a.armed());
  for (int src = 0; src < 4; ++src) {
    for (int dst = 0; dst < 4; ++dst) {
      for (std::uint64_t seq = 0; seq < 16; ++seq) {
        EXPECT_EQ(a.on_send(src, dst, 5, seq), b.on_send(src, dst, 5, seq));
      }
    }
    for (std::uint64_t op = 0; op < 32; ++op) {
      EXPECT_EQ(a.should_kill_rank(src, op), b.should_kill_rank(src, op));
      EXPECT_EQ(a.should_throw_worker(7, src, op),
                b.should_throw_worker(7, src, op));
    }
  }
}

TEST(FaultSession, AttemptsDrawIndependentPatterns) {
  auto plan = std::make_shared<fault::Plan>();
  plan->mp_drop = 0.5;
  const fault::Session a0(plan, 42, 0);
  const fault::Session a1(plan, 42, 1);
  int differing = 0;
  for (std::uint64_t seq = 0; seq < 64; ++seq) {
    if (a0.on_send(0, 1, 0, seq) != a1.on_send(0, 1, 0, seq)) ++differing;
  }
  EXPECT_GT(differing, 0) << "retry attempts must not replay the same faults";
}

TEST(FaultSession, TransientWindowDisarmsLaterAttempts) {
  auto plan = std::make_shared<fault::Plan>();
  plan->transient = 2;
  plan->mp_drop = 1.0;
  plan->mp_rank_death = 1.0;
  plan->rt_throw = 1.0;
  EXPECT_TRUE(fault::Session(plan, 9, 0).armed());
  EXPECT_TRUE(fault::Session(plan, 9, 1).armed());
  const fault::Session late(plan, 9, 2);
  EXPECT_FALSE(late.armed());
  EXPECT_EQ(late.on_send(0, 1, 0, 0), fault::SendAction::kDeliver);
  EXPECT_FALSE(late.should_kill_rank(0, 0));
  EXPECT_FALSE(late.should_throw_worker(0, 0, 0));
  EXPECT_FALSE(late.should_fail_native_run());
}

TEST(FaultSession, RunFailIsCountBased) {
  auto plan = std::make_shared<fault::Plan>();
  plan->run_fail = 2;
  EXPECT_TRUE(fault::Session(plan, 1, 0).should_fail_native_run());
  EXPECT_TRUE(fault::Session(plan, 1, 1).should_fail_native_run());
  EXPECT_FALSE(fault::Session(plan, 1, 2).should_fail_native_run());
}

// ----- wait registry ------------------------------------------------------

TEST(WaitRegistry, SnapshotDescribeAndDoom) {
  auto& registry = fault::WaitRegistry::instance();
  registry.watch(true);
  const std::uint64_t id = registry.add(3, 1, 0, 42);
  const auto rows = registry.snapshot();
  ASSERT_GE(rows.size(), 1u);
  bool found = false;
  for (const auto& row : rows) {
    if (row.job == 3 && row.rank == 1 && row.source == 0 && row.tag == 42) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
  EXPECT_NE(registry.describe().find("rank 1"), std::string::npos);

  std::string reason;
  EXPECT_FALSE(registry.doomed(id, &reason));
  EXPECT_EQ(registry.doom_older_than(0.0, "test doom"), 1);
  EXPECT_TRUE(registry.doomed(id, &reason));
  EXPECT_EQ(reason, "test doom");
  registry.remove(id);
  EXPECT_FALSE(registry.doomed(id, &reason));
  registry.watch(false);
}

// ----- runner retry (satellite: once_flag replacement) --------------------

TEST(RunnerRetry, FailedNativeRunDoesNotWedgeTheCacheEntry) {
  fault::ScopedPlan scoped(fault::Plan::parse("run.fail=1"));
  Runner runner;
  const ExperimentConfig cfg = small_ffvc(2, 1);
  EXPECT_THROW(runner.run(cfg), Error);
  EXPECT_EQ(runner.native_runs(), 0u);
  // The same entry must be retryable, not poisoned like a std::once_flag
  // would leave it: the second call claims attempt 1, which succeeds.
  const ExperimentResult res = runner.run(cfg);
  EXPECT_TRUE(res.verified);
  EXPECT_EQ(runner.native_runs(), 1u);
}

TEST(RunnerRetry, RacingFirstCallFailureThenSuccessfulRetry) {
  fault::ScopedPlan scoped(fault::Plan::parse("run.fail=1"));
  Runner runner;
  const ExperimentConfig cfg = small_ffvc(2, 1);
  constexpr int kThreads = 8;
  std::atomic<int> injected{0};
  std::atomic<int> succeeded{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      try {
        const ExperimentResult res = runner.run(cfg);
        if (res.verified) succeeded.fetch_add(1);
      } catch (const Error& e) {
        if (fault::classify(e.what()) == fault::ErrorClass::kInjected) {
          injected.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  // Exactly one caller claims attempt 0 (which fails); every other caller
  // waits and is served by the successful attempt-1 retry.
  EXPECT_EQ(injected.load(), 1);
  EXPECT_EQ(succeeded.load(), kThreads - 1);
  EXPECT_EQ(runner.native_runs(), 1u);
}

TEST(RunnerRetry, PredictFailureFiresBeforeTheNativeRun) {
  fault::ScopedPlan scoped(fault::Plan::parse("predict.fail=1"));
  Runner runner;
  const ExperimentConfig cfg = small_ffvc(2, 1);
  try {
    (void)runner.run(cfg, 0);
    FAIL() << "expected injected prediction failure";
  } catch (const Error& e) {
    EXPECT_EQ(fault::classify(e.what()), fault::ErrorClass::kInjected);
  }
  EXPECT_EQ(runner.native_runs(), 0u);  // no execution slot burned
  const ExperimentResult res = runner.run(cfg, 1);
  EXPECT_TRUE(res.verified);
  EXPECT_EQ(runner.native_runs(), 1u);
}

// ----- sweep pool hardening (satellite: per-slot failure isolation) -------

TEST(SweepHardening, ThrowingTaskFailsOnlyItsSlot) {
  Runner runner;
  std::vector<ExperimentConfig> configs = small_sweep();
  configs[1].app = "no-such-app";
  try {
    (void)SweepPool(2).run(runner, configs);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("no-such-app"), std::string::npos);
  }
  // Every other slot still executed before the error propagated.
  EXPECT_EQ(runner.native_runs(), configs.size() - 1);
}

TEST(SweepHardening, LowestIndexErrorWinsWithMultipleFailures) {
  Runner runner;
  std::vector<ExperimentConfig> configs = small_sweep();
  configs[1].app = "bad-one";
  configs[3].app = "bad-two";
  try {
    (void)SweepPool(4).run(runner, configs);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("bad-one"), std::string::npos);
  }
}

TEST(SweepHardening, KeepGoingCollectsFailuresPerSlot) {
  Runner runner;
  std::vector<ExperimentConfig> configs = small_sweep();
  configs[2].app = "no-such-app";
  SweepControl control;
  control.keep_going = true;
  const SweepOutcome outcome =
      SweepPool(2).run_resilient(runner, configs, control);
  ASSERT_EQ(outcome.failures.size(), 1u);
  EXPECT_EQ(outcome.failures[0].index, 2u);
  EXPECT_EQ(outcome.failures[0].attempts, 1);
  EXPECT_EQ(outcome.failures[0].reason, "error");
  EXPECT_FALSE(outcome.completed(2));
  for (std::size_t i : {0u, 1u, 3u}) {
    ASSERT_TRUE(outcome.completed(i)) << "slot " << i;
    EXPECT_TRUE(outcome.results[i].verified);
    EXPECT_GT(outcome.results[i].seconds(), 0.0);
  }
}

TEST(SweepHardening, RetriesConvergeOnTransientFailures) {
  fault::ScopedPlan scoped(fault::Plan::parse("run.fail=1"));
  Runner runner;
  SweepControl control;
  control.max_retries = 2;
  control.backoff_s = 0.0;
  const auto configs = small_sweep();
  const SweepOutcome outcome =
      SweepPool(2).run_resilient(runner, configs, control);
  EXPECT_TRUE(outcome.ok());
  EXPECT_EQ(runner.native_runs(), configs.size());
  for (const auto& res : outcome.results) EXPECT_TRUE(res.verified);
}

TEST(SweepHardening, FailureTraceIsIdenticalAcrossJobCounts) {
  fault::ScopedPlan scoped(fault::Plan::parse("run.fail=5"));
  const auto describe = [](int jobs) {
    Runner runner;
    SweepControl control;
    control.max_retries = 1;
    control.backoff_s = 0.0;
    control.keep_going = true;
    const SweepOutcome outcome =
        SweepPool(jobs).run_resilient(runner, small_sweep(), control);
    std::ostringstream os;
    for (const auto& f : outcome.failures) {
      os << f.index << ":" << f.attempts << ":" << f.reason << ":"
         << f.message << "\n";
    }
    return os.str();
  };
  const std::string serial = describe(1);
  EXPECT_NE(serial.find(":injected:"), std::string::npos);
  EXPECT_EQ(serial, describe(4));
  EXPECT_EQ(serial, describe(7));
}

// ----- byte-identity contract ---------------------------------------------

std::string render_t2(int jobs, int retries) {
  Runner runner;
  ReportContext ctx;
  ctx.runner = &runner;
  ctx.app_names = {"ffvc"};
  ctx.dataset = apps::Dataset::kSmall;
  ctx.iterations = 1;
  ctx.jobs = jobs;
  ctx.sweep.max_retries = retries;
  ctx.sweep.backoff_s = 0.0;
  std::ostringstream os;
  core::mpi_omp_table(ctx).print(os);
  return os.str();
}

TEST(ByteIdentity, TransientRunFailuresPlusRetriesMatchFaultFree) {
  const std::string clean = render_t2(1, 0);
  ASSERT_FALSE(clean.empty());
  fault::ScopedPlan scoped(fault::Plan::parse("run.fail=1;predict.fail=1"));
  EXPECT_EQ(render_t2(1, 2), clean);
  EXPECT_EQ(render_t2(4, 2), clean);
}

TEST(ByteIdentity, TransientMessageDropsPlusRetriesMatchFaultFree) {
  Runner clean_runner;
  const auto configs = small_sweep();
  const auto clean = SweepPool(1).run(clean_runner, configs);

  fault::ScopedPlan scoped(fault::Plan::parse(
      "seed=11;transient=1;mp.drop=0.05;mp.timeout_ms=150"));
  for (int jobs : {1, 4}) {
    Runner runner;
    SweepControl control;
    control.max_retries = 2;
    control.backoff_s = 0.0;
    const SweepOutcome outcome =
        SweepPool(jobs).run_resilient(runner, configs, control);
    ASSERT_TRUE(outcome.ok()) << "jobs=" << jobs;
    for (std::size_t i = 0; i < configs.size(); ++i) {
      EXPECT_EQ(outcome.results[i].seconds(), clean[i].seconds());
      EXPECT_EQ(outcome.results[i].check_value, clean[i].check_value);
      EXPECT_EQ(outcome.results[i].verified, clean[i].verified);
    }
  }
}

TEST(ByteIdentity, DelayFaultsPerturbNothing) {
  Runner clean_runner;
  const auto configs = small_sweep();
  const auto clean = SweepPool(1).run(clean_runner, configs);

  fault::ScopedPlan scoped(
      fault::Plan::parse("mp.delay=0.25;mp.delay_ms=0.5"));
  Runner runner;
  const auto delayed = SweepPool(2).run(runner, configs);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(delayed[i].seconds(), clean[i].seconds());
    EXPECT_EQ(delayed[i].check_value, clean[i].check_value);
  }
}

// ----- degraded reports ---------------------------------------------------

TEST(DegradedReports, PermanentFaultsRenderFailedCells) {
  fault::ScopedPlan scoped(fault::Plan::parse("run.fail=1000000"));
  Runner runner;
  ReportContext ctx;
  ctx.runner = &runner;
  ctx.app_names = {"ffvc"};
  ctx.dataset = apps::Dataset::kSmall;
  ctx.iterations = 1;
  ctx.jobs = 2;
  ctx.sweep.max_retries = 1;
  ctx.sweep.backoff_s = 0.0;
  ctx.sweep.keep_going = true;
  std::ostringstream os;
  core::mpi_omp_table(ctx).print(os);
  EXPECT_NE(os.str().find("FAILED(injected)"), std::string::npos);

  // The relative table cannot pick a best point when nothing completed.
  std::ostringstream rel;
  core::mpi_omp_relative_table(ctx).print(rel);
  EXPECT_NE(rel.str().find("FAILED(injected)"), std::string::npos);
  EXPECT_EQ(rel.str().find("nan"), std::string::npos);
}

TEST(DegradedReports, KeepGoingStillThrowsForBestOfReports) {
  fault::ScopedPlan scoped(fault::Plan::parse("run.fail=1000000"));
  Runner runner;
  ReportContext ctx;
  ctx.runner = &runner;
  ctx.app_names = {"ffvc"};
  ctx.dataset = apps::Dataset::kSmall;
  ctx.iterations = 1;
  ctx.jobs = 1;
  ctx.sweep.keep_going = true;
  EXPECT_THROW(core::phase_breakdown_table(ctx), Error);
}

// ----- watchdog -----------------------------------------------------------

TEST(Watchdog, DoomsBlockedMailboxWaitsInsteadOfHanging) {
  // Drop everything, disable the per-recv timeout: without the watchdog this
  // sweep would block forever in Mailbox::pop.
  fault::ScopedPlan scoped(
      fault::Plan::parse("mp.drop=1.0;mp.timeout_ms=0"));
  Runner runner;
  SweepControl control;
  control.watchdog_s = 0.2;
  control.keep_going = true;
  const std::vector<ExperimentConfig> configs{small_ffvc(2, 1)};
  const SweepOutcome outcome =
      SweepPool(1).run_resilient(runner, configs, control);
  ASSERT_EQ(outcome.failures.size(), 1u);
  EXPECT_EQ(outcome.failures[0].reason, "watchdog");
  // The diagnostic names the blocked (rank, source, tag) triple.
  EXPECT_NE(outcome.failures[0].message.find("blocked"), std::string::npos);
  EXPECT_NE(outcome.failures[0].message.find("rank"), std::string::npos);
}

// ----- journal ------------------------------------------------------------

std::string temp_journal_path(const char* name) {
  return ::testing::TempDir() + "fibersim_" + name + ".jsonl";
}

TEST(Journal, FingerprintTracksEveryRelevantField) {
  const ExperimentConfig base = small_ffvc(2, 2);
  const std::uint64_t key = SweepJournal::fingerprint(base);
  EXPECT_EQ(key, SweepJournal::fingerprint(base));

  ExperimentConfig seed = base;
  seed.seed = 43;
  EXPECT_NE(SweepJournal::fingerprint(seed), key);

  // Ablations mutate processor *values* without renaming — the fingerprint
  // must still distinguish them (A1 changes inter-NUMA bandwidth in place).
  ExperimentConfig mutated = base;
  mutated.processor.inter_numa_bw *= 0.5;
  EXPECT_NE(SweepJournal::fingerprint(mutated), key);

  // The power-mode fields change boost/eco answers, so they key too.
  ExperimentConfig boost = base;
  boost.processor.boost_freq_hz += 1e8;
  EXPECT_NE(SweepJournal::fingerprint(boost), key);
  ExperimentConfig eco_pipes = base;
  eco_pipes.processor.eco_fp_pipes += 1;
  EXPECT_NE(SweepJournal::fingerprint(eco_pipes), key);
  ExperimentConfig eco_power = base;
  eco_power.processor.eco_core_power_scale *= 0.5;
  EXPECT_NE(SweepJournal::fingerprint(eco_power), key);
}

TEST(Journal, RecordLookupRoundTripsBitExactly) {
  const std::string path = temp_journal_path("roundtrip");
  std::remove(path.c_str());
  Runner runner;
  const ExperimentConfig cfg = small_ffvc(2, 2);
  const ExperimentResult res = runner.run(cfg);
  {
    SweepJournal journal(path);
    EXPECT_EQ(journal.loaded(), 0u);
    journal.record(cfg, res);
  }
  SweepJournal reopened(path);
  EXPECT_EQ(reopened.loaded(), 1u);
  ExperimentResult back;
  ASSERT_TRUE(reopened.lookup(cfg, &back));
  EXPECT_EQ(reopened.hits(), 1u);
  EXPECT_EQ(back.prediction.total_s, res.prediction.total_s);
  EXPECT_EQ(back.prediction.compute_s, res.prediction.compute_s);
  EXPECT_EQ(back.prediction.comm_s, res.prediction.comm_s);
  EXPECT_EQ(back.prediction.flops, res.prediction.flops);
  EXPECT_EQ(back.power.watts, res.power.watts);
  EXPECT_EQ(back.power.joules, res.power.joules);
  EXPECT_EQ(back.check_value, res.check_value);
  EXPECT_EQ(back.check_description, res.check_description);
  EXPECT_EQ(back.verified, res.verified);
  ASSERT_EQ(back.prediction.phases.size(), res.prediction.phases.size());
  for (std::size_t i = 0; i < back.prediction.phases.size(); ++i) {
    EXPECT_EQ(back.prediction.phases[i].name, res.prediction.phases[i].name);
    EXPECT_EQ(back.prediction.phases[i].total_s,
              res.prediction.phases[i].total_s);
    EXPECT_EQ(back.prediction.phases[i].time.limiter,
              res.prediction.phases[i].time.limiter);
  }
  ExperimentConfig other = cfg;
  other.seed = 99;
  EXPECT_FALSE(reopened.lookup(other, &back));
}

TEST(Journal, ResumeSkipsEveryCompletedConfig) {
  const std::string path = temp_journal_path("resume");
  std::remove(path.c_str());
  const auto configs = small_sweep();

  Runner first_runner;
  SweepControl control;
  SweepJournal first(path);
  control.journal = &first;
  const SweepOutcome fresh =
      SweepPool(2).run_resilient(first_runner, configs, control);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(first_runner.native_runs(), configs.size());

  // "Kill + resume": a new process (fresh runner + journal object, same
  // file) must replay nothing and reproduce the identical numbers.
  Runner second_runner;
  SweepJournal second(path);
  EXPECT_EQ(second.loaded(), configs.size());
  control.journal = &second;
  const SweepOutcome resumed =
      SweepPool(2).run_resilient(second_runner, configs, control);
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ(second_runner.native_runs(), 0u);
  EXPECT_EQ(second.hits(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(resumed.results[i].seconds(), fresh.results[i].seconds());
    EXPECT_EQ(resumed.results[i].check_value, fresh.results[i].check_value);
    EXPECT_EQ(resumed.results[i].power.watts, fresh.results[i].power.watts);
  }
}

TEST(Journal, TornFinalLineIsSkippedOnLoad) {
  const std::string path = temp_journal_path("torn");
  std::remove(path.c_str());
  Runner runner;
  const ExperimentConfig cfg = small_ffvc(2, 1);
  const ExperimentResult res = runner.run(cfg);
  {
    SweepJournal journal(path);
    journal.record(cfg, res);
  }
  {
    // Simulate a kill -9 mid-append: a torn, unparseable final line.
    std::ofstream torn(path, std::ios::app);
    torn << "{\"v\":1,\"key\":\"00ff";  // no newline, truncated
  }
  SweepJournal reopened(path);
  EXPECT_EQ(reopened.loaded(), 1u);
  ExperimentResult back;
  EXPECT_TRUE(reopened.lookup(cfg, &back));
  EXPECT_EQ(back.prediction.total_s, res.prediction.total_s);
}

TEST(Journal, EveryLineIsValidJsonWhateverBytesTheStringsCarry) {
  const std::string path = temp_journal_path("escape");
  std::remove(path.c_str());
  Runner runner;
  ExperimentConfig cfg = small_ffvc(2, 1);
  ExperimentResult res = runner.run(cfg);
  // The label carries the processor name; neither string may leak a raw
  // control byte or an unescaped quote into the line.
  cfg.processor.name = "A64FX \x01\"quoted\"";
  res.check_description += " \x01\"\\";
  {
    SweepJournal journal(path);
    ASSERT_TRUE(journal.record(cfg, res));
  }
  std::ifstream in(path, std::ios::binary);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    std::string err;
    EXPECT_TRUE(json::parse(line, &err).has_value()) << err << "\n" << line;
  }
  EXPECT_EQ(lines, 1u);

  SweepJournal reopened(path);
  EXPECT_EQ(reopened.loaded(), 1u);
  ExperimentResult back;
  ASSERT_TRUE(reopened.lookup(cfg, &back));
  EXPECT_EQ(back.check_description, res.check_description);
  EXPECT_EQ(back.verified, res.verified);
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  EXPECT_EQ(bits(back.check_value), bits(res.check_value));
  EXPECT_EQ(bits(back.power.joules), bits(res.power.joules));
  EXPECT_EQ(bits(back.prediction.total_s), bits(res.prediction.total_s));
  EXPECT_EQ(bits(back.prediction.setup_s), bits(res.prediction.setup_s));
  ASSERT_EQ(back.prediction.phases.size(), res.prediction.phases.size());
  for (std::size_t i = 0; i < back.prediction.phases.size(); ++i) {
    const trace::PhasePrediction& a = back.prediction.phases[i];
    const trace::PhasePrediction& b = res.prediction.phases[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.timed, b.timed);
    EXPECT_EQ(a.time.limiter, b.time.limiter);
    EXPECT_EQ(bits(a.comm_s), bits(b.comm_s));
    EXPECT_EQ(bits(a.time.chain_s), bits(b.time.chain_s));
    EXPECT_EQ(bits(a.time.remote_bytes), bits(b.time.remote_bytes));
  }
}

TEST(Journal, LoadsALineInTheVersionOneFormat) {
  // Written by an earlier build (ffb/small, 8x6); the line format is a
  // contract, so a journal from any version-1 writer still loads.
  const std::string line =
      R"({"v":1,"key":"624ec17a87460d41","label":"ffb/small 8x6 block/)"
      R"(compact [simd+,swp] on A64FX","verified":1,"check_value":)"
      R"("3fa3828b425d5dee","check_desc":"CG residual reduction |r|/|r0|",)"
      R"("power":["4069a57d0679d4ee","3f86625892d4c31a","3fc7a2fa6b9f1bdb"],)"
      R"("agg":["3f0bedf658d8d4b6","3ef50b1f6a7b72f5","3ef25a2848263d09",)"
      R"("3ef5bbb60d388b1a","3ed4f357252adcce","413ecc0000000000",)"
      R"("4171178000000000","3ef78c737ed9bf3a"],"nphases":3,"phases":[)"
      R"(["setup",0,"0000000000000000","3ef78c737ed9bf3a","3ef78c737ed9bf3a",)"
      R"("0000000000000000","0000000000000000","3ef78c737ed9bf3a",0,)"
      R"("0000000000000000","0000000000000000","0000000000000000",)"
      R"("0000000000000000"],["linalg",1,"3eed731fc8dbc24e",)"
      R"("3eff75f6f0fdfe32","3ee07096ccb76f27","3ee21e908ed8f651",)"
      R"("3ed18d9c0a622e9f","3ef0bc670c901d0b",1,"412a280000000000",)"
      R"("4160e00000000000","0000000000000000","3ea893d786f15205"],)"
      R"(["spmv",1,"3edc0898a32aa7cb","3ef865f5c0b3ab3a","3ee9a5a8083f76c3",)"
      R"("3ee295c0017383c1","3eab2dd8d6457179","3ef163cf97e90147",0,)"
      R"("4131b80000000000","41614f0000000000","0000000000000000",)"
      R"("3ed8bb722af63f6f"]]})";
  const std::string path = temp_journal_path("version_one");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << line << '\n';
  }
  SweepJournal journal(path);
  EXPECT_EQ(journal.loaded(), 1u);
  EXPECT_EQ(journal.recovered_tail_bytes(), 0u);
}

TEST(Journal, RecordWritesTheVersionOneLineByteForByte) {
  // The line an earlier build's record() wrote for this config: the byte
  // layout is a contract (resumed sweeps and external tools read it).
  const std::string expected =
      R"({"v":1,"key":"c45c6a06e642f723",)"
      R"("label":"ffvc/small 2x2 block/compact [simd+,swp] on A64FX",)"
      R"("verified":1,"check_value":"c0b7a10adde70f36",)"
      R"j("check_desc":"SOR energy functional (must decrease)",)j"
      R"("power":["404f9c70f122ad63","3f4e04c158373558",)"
      R"("3fe350bd9cba0a06"],"agg":["3eee634c666f249a","3ee355aa22f61b9e",)"
      R"("3ed95dfd94c958d8","3ec04efa058c7e4b","3e8828c0be769dc2",)"
      R"("4120e00000000000","4137a00000000000","3ee5331ee4925366"],)"
      R"("nphases":4,"phases":[["init",0,"0000000000000000",)"
      R"("3ee5331ee4925366","3ee4d65971131b46","3e9cfdb417c18a1b",)"
      R"("0000000000000000","3ee5331ee4925366",0,"4104400000000000",)"
      R"("40fb000000000000","0000000000000000","0000000000000000"],)"
      R"(["diagnose",1,"3eb557bc3abf7fc4","3ed9d73e2b3907c4",)"
      R"("3ed13a807d958c58","3ebcfdb417c18a1b","3e7828c0be769dc2",)"
      R"("3ed4814f1c8927d3",0,"4110e00000000000","411b000000000000",)"
      R"("0000000000000000","3e9a56fd1bad23b6"],["sor",1,)"
      R"("3ea68c6fa0b2f9a4","3ed305d94257e794","3ecbaeb22f9294c3",)"
      R"("3eb5be4711d12794","3e6828c0be769dc2","3ed0344b4e418860",0,)"
      R"("4102900000000000","4114400000000000","0000000000000000",)"
      R"("0000000000000000"],["project",1,"0000000000000000",)"
      R"("3ecfd302be9ab3b7","3ebe65eac235820a","3ec95dfd94c958d8",)"
      R"("3e6828c0be769dc2","3ecfd302be9ab3b7",1,"40fe600000000000",)"
      R"("4127a00000000000","0000000000000000","0000000000000000"]]})";
  const std::string path = temp_journal_path("version_one_bytes");
  std::remove(path.c_str());
  Runner runner;
  const ExperimentConfig cfg = small_ffvc(2, 2);
  {
    SweepJournal journal(path);
    ASSERT_TRUE(journal.record(cfg, runner.run(cfg)));
  }
  std::ifstream in(path, std::ios::binary);
  std::ostringstream written;
  written << in.rdbuf();
  EXPECT_EQ(written.str(), expected + "\n");
}

TEST(Journal, ReportBytesSurviveKillAndResume) {
  const std::string path = temp_journal_path("report_resume");
  std::remove(path.c_str());
  const auto render = [&](SweepJournal* journal) {
    Runner runner;
    ReportContext ctx;
    ctx.runner = &runner;
    ctx.app_names = {"ffvc"};
    ctx.dataset = apps::Dataset::kSmall;
    ctx.iterations = 1;
    ctx.jobs = 2;
    ctx.sweep.journal = journal;
    std::ostringstream os;
    core::mpi_omp_table(ctx).print(os);
    return os.str();
  };
  const std::string clean = render(nullptr);
  SweepJournal recording(path);
  EXPECT_EQ(render(&recording), clean);
  SweepJournal resumed(path);
  EXPECT_GT(resumed.loaded(), 0u);
  EXPECT_EQ(render(&resumed), clean);
}

}  // namespace
}  // namespace fibersim
