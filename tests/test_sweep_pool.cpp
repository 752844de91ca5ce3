// Tests for the parallel sweep engine: deterministic ordering, byte-identical
// reports for any job count, the caller's cancel token reaching every task,
// and the thread-safe Runner's once-per-key native execution contract under
// contention.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "core/reports.hpp"
#include "core/runner.hpp"
#include "core/sweep.hpp"
#include "core/sweep_pool.hpp"
#include "rt/fiber.hpp"

namespace fibersim::core {
namespace {

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
  const std::vector<std::pair<int, int>> combos{{1, 1}, {2, 2}, {4, 2},
                                                {8, 1}, {2, 4}, {1, 8}};
  std::vector<ExperimentConfig> configs;
  for (const auto& [p, t] : combos) configs.push_back(small_ffvc(p, t));
  return configs;
}

TEST(SweepPool, DefaultJobsAtLeastOne) {
  EXPECT_GE(SweepPool::default_jobs(), 1);
  EXPECT_EQ(SweepPool(0).jobs(), SweepPool::default_jobs());
  EXPECT_EQ(SweepPool(-3).jobs(), SweepPool::default_jobs());
  EXPECT_EQ(SweepPool(5).jobs(), 5);
  EXPECT_THROW(SweepPool(100000), Error);
}

TEST(SweepPool, EmptySweepIsEmpty) {
  Runner runner;
  EXPECT_TRUE(SweepPool(4).run(runner, {}).empty());
  EXPECT_EQ(runner.native_runs(), 0u);
}

TEST(SweepPool, ResultsComeBackInInputOrder) {
  Runner runner;
  const auto configs = small_sweep();
  const auto results = SweepPool(4).run(runner, configs);
  ASSERT_EQ(results.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(results[i].config.ranks, configs[i].ranks) << "slot " << i;
    EXPECT_EQ(results[i].config.threads, configs[i].threads) << "slot " << i;
    EXPECT_TRUE(results[i].verified);
    EXPECT_GT(results[i].seconds(), 0.0);
  }
}

TEST(SweepPool, ParallelRunIsIdenticalToSerialRun) {
  const auto configs = small_sweep();
  Runner serial_runner;
  const auto serial = SweepPool(1).run(serial_runner, configs);
  Runner parallel_runner;
  const auto parallel = SweepPool(8).run(parallel_runner, configs);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    // The model is analytic and the miniapps are seeded, so parallelism must
    // not perturb a single reported number — exact equality, not tolerance.
    EXPECT_EQ(serial[i].seconds(), parallel[i].seconds()) << "slot " << i;
    EXPECT_EQ(serial[i].gflops(), parallel[i].gflops()) << "slot " << i;
    EXPECT_EQ(serial[i].check_value, parallel[i].check_value) << "slot " << i;
    EXPECT_EQ(serial[i].verified, parallel[i].verified) << "slot " << i;
    EXPECT_EQ(serial[i].prediction.comm_s, parallel[i].prediction.comm_s);
  }
  EXPECT_EQ(serial_runner.native_runs(), parallel_runner.native_runs());
}

TEST(SweepPool, DuplicateConfigsCoalesceOntoOneNativeRun) {
  Runner runner;
  const std::vector<ExperimentConfig> configs(8, small_ffvc(2, 2));
  const auto results = SweepPool(8).run(runner, configs);
  EXPECT_EQ(runner.native_runs(), 1u);
  for (const auto& res : results) {
    EXPECT_EQ(res.seconds(), results.front().seconds());
    EXPECT_EQ(res.check_value, results.front().check_value);
  }
}

TEST(SweepPool, FirstConfigErrorWinsDeterministically) {
  Runner runner;
  std::vector<ExperimentConfig> configs = small_sweep();
  configs[2].app = "no-such-app";
  try {
    (void)SweepPool(4).run(runner, configs);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("no-such-app"), std::string::npos);
  }
}

TEST(SweepPool, EveryTaskSeesTheCallersCancelToken) {
  auto token = std::make_shared<cancel::Token>();
  cancel::Scope scope(token);
  std::vector<cancel::Token*> seen(16, nullptr);
  const auto errors = SweepPool(4).fan_out(seen.size(), [&](std::size_t i) {
    // Parks in a context: the token must survive the park and follow the
    // task to whichever worker resumes it.
    rt::sleep_for(std::chrono::milliseconds(1));
    seen[i] = cancel::current();
  });
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_FALSE(errors[i]) << "task " << i;
    EXPECT_EQ(seen[i], token.get()) << "task " << i;
  }
}

TEST(SweepPool, ExpiredTokenStartsNoNativeRun) {
  std::vector<ExperimentConfig> configs;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    ExperimentConfig cfg = small_ffvc(2, 1);
    cfg.seed = seed;  // 16 distinct execution keys: nothing coalesces
    configs.push_back(cfg);
  }
  auto token = std::make_shared<cancel::Token>();
  token->set_deadline(cancel::Token::Clock::now() -
                      std::chrono::milliseconds(1));
  cancel::Scope scope(token);
  Runner runner;
  SweepControl control;
  control.keep_going = true;
  // A cancelled attempt is retried once after a 10 ms backoff, so the tasks
  // interleave rather than one of them failing every slot in turn.
  control.max_retries = 1;
  control.backoff_s = 0.01;
  const SweepOutcome outcome =
      SweepPool(4).run_resilient(runner, configs, control);
  ASSERT_EQ(outcome.failures.size(), configs.size());
  for (const TaskFailure& failure : outcome.failures) {
    EXPECT_TRUE(cancel::is_cancelled(failure.message))
        << "slot " << failure.index << ": " << failure.message;
    EXPECT_EQ(failure.attempts, 2) << "slot " << failure.index;
  }
  EXPECT_EQ(runner.native_runs(), 0u);
}

TEST(Runner, ConcurrentSameConfigPerformsExactlyOneNativeRun) {
  Runner runner;
  const ExperimentConfig cfg = small_ffvc(2, 2);
  std::vector<ExperimentResult> results(8);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < results.size(); ++t) {
    threads.emplace_back(
        [&, t] { results[t] = runner.run(cfg); });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(runner.native_runs(), 1u);
  for (const auto& res : results) {
    EXPECT_TRUE(res.verified);
    EXPECT_EQ(res.seconds(), results.front().seconds());
    EXPECT_EQ(res.check_value, results.front().check_value);
  }
}

TEST(Runner, ConcurrentDistinctConfigsAllCached) {
  Runner runner;
  std::vector<std::thread> threads;
  for (int round = 0; round < 2; ++round) {
    for (int ranks : {1, 2, 4}) {
      threads.emplace_back([&runner, ranks] {
        for (int i = 0; i < 3; ++i) (void)runner.run(small_ffvc(ranks, 2));
      });
    }
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(runner.native_runs(), 3u);  // one per distinct decomposition
}

TEST(Reports, MpiOmpTableIsByteIdenticalForAnyJobCount) {
  const auto render = [](int jobs) {
    Runner runner;
    ReportContext ctx;
    ctx.runner = &runner;
    ctx.app_names = {"ffvc"};
    ctx.dataset = apps::Dataset::kSmall;
    ctx.iterations = 1;
    ctx.jobs = jobs;
    std::ostringstream os;
    mpi_omp_table(ctx).print(os);
    return os.str();
  };
  const std::string serial = render(1);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, render(4));
}

TEST(Reports, AllocReportIsByteIdenticalForAnyJobCount) {
  const auto render = [](int jobs) {
    Runner runner;
    ReportContext ctx;
    ctx.runner = &runner;
    ctx.app_names = {"ffvc", "nicam"};
    ctx.dataset = apps::Dataset::kSmall;
    ctx.iterations = 1;
    ctx.jobs = jobs;
    const AllocReport report = proc_alloc_report(ctx);
    std::ostringstream os;
    report.table.print(os);
    os << report.max_spread;
    return os.str();
  };
  EXPECT_EQ(render(1), render(8));
}

TEST(Reports, ContextRejectsBadJobCount) {
  Runner runner;
  ReportContext ctx;
  ctx.runner = &runner;
  ctx.jobs = 0;
  EXPECT_THROW(ctx.validate(), Error);
}

}  // namespace
}  // namespace fibersim::core
