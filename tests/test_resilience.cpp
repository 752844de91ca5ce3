// Unit suites for the serve resilience primitives: cooperative cancellation
// (common/cancel), the per-key circuit breaker (core/circuit), journal
// crash-durability (fsync-before-ack + torn-tail truncation at EVERY byte
// offset), and the client retry policy. The end-to-end behaviours these
// primitives compose into live in test_serve.cpp and bench/perf_resilience.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "core/circuit.hpp"
#include "core/journal.hpp"
#include "core/runner.hpp"
#include "core/serve.hpp"
#include "rt/fiber.hpp"

namespace {

using namespace fibersim;
using core::CircuitBreaker;
using core::CircuitDecision;
using core::CircuitOptions;
using core::ExperimentConfig;
using core::ExperimentResult;
using core::SweepJournal;

// ----- cancellation tokens ------------------------------------------------

TEST(Cancel, CheckpointIsNoOpWithoutToken) {
  ASSERT_EQ(cancel::current(), nullptr);
  EXPECT_NO_THROW(cancel::checkpoint());
}

TEST(Cancel, LiveTokenDoesNotThrow) {
  auto token = std::make_shared<cancel::Token>();
  cancel::Scope scope(token);
  EXPECT_EQ(cancel::current(), token.get());
  EXPECT_FALSE(token->has_deadline());
  EXPECT_FALSE(token->expired());
  EXPECT_NO_THROW(cancel::checkpoint());
}

TEST(Cancel, ExpiredDeadlineThrowsMarkedError) {
  auto token = std::make_shared<cancel::Token>();
  token->set_deadline(cancel::Token::Clock::now() -
                      std::chrono::milliseconds(1));
  EXPECT_TRUE(token->has_deadline());
  EXPECT_TRUE(token->expired());
  EXPECT_EQ(token->reason(), "deadline exceeded");
  cancel::Scope scope(token);
  try {
    cancel::checkpoint();
    FAIL() << "checkpoint() did not throw past the deadline";
  } catch (const Error& e) {
    EXPECT_TRUE(cancel::is_cancelled(e.what())) << e.what();
  }
}

TEST(Cancel, FutureDeadlineStaysLiveUntilItPasses) {
  auto token = std::make_shared<cancel::Token>();
  token->set_deadline_ms(3'600'000);  // an hour out: never expires in-test
  cancel::Scope scope(token);
  EXPECT_FALSE(token->expired());
  EXPECT_NO_THROW(cancel::checkpoint());
}

TEST(Cancel, ExplicitCancelExpiresAndFirstReasonWins) {
  cancel::Token token;
  token.cancel("client gone");
  token.cancel("second reason loses");
  EXPECT_TRUE(token.expired());
  EXPECT_EQ(token.reason(), "client gone");
}

TEST(Cancel, ScopesNestAndRestore) {
  auto outer = std::make_shared<cancel::Token>();
  auto inner = std::make_shared<cancel::Token>();
  {
    cancel::Scope a(outer);
    EXPECT_EQ(cancel::current(), outer.get());
    {
      cancel::Scope b(inner);
      EXPECT_EQ(cancel::current(), inner.get());
    }
    EXPECT_EQ(cancel::current(), outer.get());
  }
  EXPECT_EQ(cancel::current(), nullptr);
}

TEST(Cancel, NullScopeIsANoOp) {
  cancel::Scope scope(nullptr);
  EXPECT_EQ(cancel::current(), nullptr);
  EXPECT_NO_THROW(cancel::checkpoint());
}

TEST(Cancel, TokenIsThreadLocalToItsScope) {
  auto token = std::make_shared<cancel::Token>();
  token->cancel("only this thread");
  cancel::Scope scope(token);
  cancel::Token* seen = token.get();
  std::thread([&] { seen = cancel::current(); }).join();
  EXPECT_EQ(seen, nullptr);  // other threads never see our token
}

TEST(Cancel, ScopeInsideAContextIsInvisibleToItsSiblings) {
  // Context 0 opens a Scope and parks holding it until every sibling has
  // read its own token. The siblings start round-robin over the workers, so
  // some run on the worker context 0 parked on: they must still see the
  // forker's token (none), not context 0's.
  constexpr int kContexts = 64;
  auto token = std::make_shared<cancel::Token>();
  std::mutex mutex;
  rt::WaitList changed;
  bool scoped = false;  // guarded by mutex
  int recorded = 0;     // guarded by mutex
  std::vector<cancel::Token*> seen(kContexts, nullptr);
  rt::fork_join(kContexts, [&](int index) {
    std::unique_lock<std::mutex> lock(mutex);
    if (index == 0) {
      cancel::Scope scope(token);
      scoped = true;
      changed.notify_all(lock);
      lock.lock();
      while (recorded < kContexts - 1) changed.wait(lock);
      seen[0] = cancel::current();
      return;
    }
    while (!scoped) changed.wait(lock);
    seen[static_cast<std::size_t>(index)] = cancel::current();
    if (++recorded == kContexts - 1) changed.notify_all(lock);
  });
  EXPECT_EQ(seen[0], token.get());
  for (int i = 1; i < kContexts; ++i) {
    EXPECT_EQ(seen[static_cast<std::size_t>(i)], nullptr) << "context " << i;
  }
  EXPECT_EQ(cancel::current(), nullptr);
}

TEST(Cancel, IsCancelledMatchesOnlyTheMarker) {
  EXPECT_TRUE(cancel::is_cancelled("cancelled: deadline exceeded"));
  EXPECT_FALSE(cancel::is_cancelled("run failed: injected"));
  EXPECT_FALSE(cancel::is_cancelled(""));
}

// ----- circuit breaker ----------------------------------------------------

CircuitOptions tight_circuit() {
  CircuitOptions o;
  o.failure_threshold = 3;
  o.window = 8;
  o.open_ms = 1000;
  return o;
}

using Clock = CircuitBreaker::Clock;

TEST(Circuit, ClosedBreakerAdmitsEverything) {
  CircuitBreaker breaker(tight_circuit());
  const auto now = Clock::now();
  for (int i = 0; i < 10; ++i) {
    const CircuitDecision d = breaker.admit("k", now);
    EXPECT_TRUE(d.admit);
    EXPECT_FALSE(d.probe);
    breaker.record_success("k", d.probe, now);
  }
  EXPECT_EQ(breaker.stats().trips, 0u);
  EXPECT_FALSE(breaker.is_open("k", now));
}

TEST(Circuit, TripsAtThresholdAndRejectsWithRetryHint) {
  CircuitBreaker breaker(tight_circuit());
  const auto now = Clock::now();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(breaker.admit("k", now).admit);
    breaker.record_failure("k", false, now);
  }
  EXPECT_TRUE(breaker.is_open("k", now));
  const CircuitDecision d = breaker.admit("k", now);
  EXPECT_FALSE(d.admit);
  EXPECT_GT(d.retry_after_ms, 0);
  EXPECT_LE(d.retry_after_ms, 1000);
  const auto stats = breaker.stats();
  EXPECT_EQ(stats.trips, 1u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.open_now, 1u);
}

TEST(Circuit, FailuresBelowThresholdNeverTrip) {
  CircuitBreaker breaker(tight_circuit());
  const auto now = Clock::now();
  // Two failures per 9 outcomes: the sliding 8-outcome window never holds
  // threshold=3 failures at once, so the breaker must stay closed forever.
  for (int round = 0; round < 5; ++round) {
    breaker.record_failure("k", false, now);
    breaker.record_failure("k", false, now);
    for (int i = 0; i < 7; ++i) breaker.record_success("k", false, now);
  }
  EXPECT_FALSE(breaker.is_open("k", now));
  EXPECT_EQ(breaker.stats().trips, 0u);
}

TEST(Circuit, SuccessResetsAfterRecovery) {
  CircuitBreaker breaker(tight_circuit());
  const auto t0 = Clock::now();
  for (int i = 0; i < 3; ++i) breaker.record_failure("k", false, t0);
  ASSERT_TRUE(breaker.is_open("k", t0));
  const auto t1 = t0 + std::chrono::milliseconds(1001);
  const CircuitDecision probe = breaker.admit("k", t1);
  ASSERT_TRUE(probe.admit);
  ASSERT_TRUE(probe.probe);
  breaker.record_success("k", true, t1);
  // Fully closed again: the old failure window is gone, a single new
  // failure must not re-trip.
  EXPECT_FALSE(breaker.is_open("k", t1));
  breaker.record_failure("k", false, t1);
  EXPECT_FALSE(breaker.is_open("k", t1));
  EXPECT_EQ(breaker.stats().half_opens, 1u);
}

TEST(Circuit, HalfOpenAdmitsExactlyOneProbe) {
  CircuitBreaker breaker(tight_circuit());
  const auto t0 = Clock::now();
  for (int i = 0; i < 3; ++i) breaker.record_failure("k", false, t0);
  const auto t1 = t0 + std::chrono::milliseconds(1500);
  const CircuitDecision first = breaker.admit("k", t1);
  EXPECT_TRUE(first.admit);
  EXPECT_TRUE(first.probe);
  // While the probe is in flight everyone else keeps getting rejected.
  for (int i = 0; i < 4; ++i) {
    const CircuitDecision other = breaker.admit("k", t1);
    EXPECT_FALSE(other.admit);
  }
  EXPECT_TRUE(breaker.is_open("k", t1));
}

TEST(Circuit, FailedProbeReopensForAnotherFullWindow) {
  CircuitBreaker breaker(tight_circuit());
  const auto t0 = Clock::now();
  for (int i = 0; i < 3; ++i) breaker.record_failure("k", false, t0);
  const auto t1 = t0 + std::chrono::milliseconds(1100);
  const CircuitDecision probe = breaker.admit("k", t1);
  ASSERT_TRUE(probe.probe);
  breaker.record_failure("k", true, t1);
  // Re-opened at t1: still rejecting shortly after, probing again only
  // after another full open_ms.
  EXPECT_FALSE(breaker.admit("k", t1 + std::chrono::milliseconds(500)).admit);
  const CircuitDecision again =
      breaker.admit("k", t1 + std::chrono::milliseconds(1100));
  EXPECT_TRUE(again.admit);
  EXPECT_TRUE(again.probe);
  EXPECT_EQ(breaker.stats().trips, 2u);
  EXPECT_EQ(breaker.stats().half_opens, 2u);
}

TEST(Circuit, ShedProbeMustBeReportedOrReleasedViaFailure) {
  // The serve layer sheds a probe that loses the BUSY/deadline race by
  // reporting it as a failure — the circuit re-opens instead of wedging
  // half-open with a phantom probe in flight forever.
  CircuitBreaker breaker(tight_circuit());
  const auto t0 = Clock::now();
  for (int i = 0; i < 3; ++i) breaker.record_failure("k", false, t0);
  const auto t1 = t0 + std::chrono::milliseconds(1100);
  ASSERT_TRUE(breaker.admit("k", t1).probe);
  breaker.record_failure("k", true, t1);  // shed: release the probe slot
  const auto t2 = t1 + std::chrono::milliseconds(1100);
  const CircuitDecision retry = breaker.admit("k", t2);
  EXPECT_TRUE(retry.admit);
  EXPECT_TRUE(retry.probe);
  breaker.record_success("k", true, t2);
  EXPECT_FALSE(breaker.is_open("k", t2));
}

TEST(Circuit, KeysAreIndependent) {
  CircuitBreaker breaker(tight_circuit());
  const auto now = Clock::now();
  for (int i = 0; i < 3; ++i) breaker.record_failure("poisoned", false, now);
  EXPECT_TRUE(breaker.is_open("poisoned", now));
  EXPECT_TRUE(breaker.admit("healthy", now).admit);
  EXPECT_FALSE(breaker.is_open("healthy", now));
  EXPECT_EQ(breaker.stats().open_now, 1u);
}

TEST(Circuit, LateFailureAfterRecoveryIsIgnored) {
  // A request admitted before the trip may report its failure after a later
  // probe already closed the circuit; that stale outcome must not re-trip.
  CircuitBreaker breaker(tight_circuit());
  const auto t0 = Clock::now();
  for (int i = 0; i < 3; ++i) breaker.record_failure("k", false, t0);
  const auto t1 = t0 + std::chrono::milliseconds(1100);
  ASSERT_TRUE(breaker.admit("k", t1).probe);
  // Stale non-probe failure lands while half-open: ignored.
  breaker.record_failure("k", false, t1);
  breaker.record_success("k", true, t1);
  EXPECT_FALSE(breaker.is_open("k", t1));
}

TEST(Circuit, OptionsValidate) {
  CircuitOptions bad = tight_circuit();
  bad.failure_threshold = 0;
  EXPECT_THROW(bad.validate(), Error);
  bad = tight_circuit();
  bad.window = 0;
  EXPECT_THROW(bad.validate(), Error);
  bad = tight_circuit();
  bad.open_ms = 0;
  EXPECT_THROW(bad.validate(), Error);
  bad = tight_circuit();
  bad.window = bad.failure_threshold - 1;
  EXPECT_THROW(bad.validate(), Error);
  EXPECT_NO_THROW(tight_circuit().validate());
}

// ----- journal durability -------------------------------------------------

ExperimentConfig journal_config(int ranks, std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.app = "ffvc";
  cfg.dataset = apps::Dataset::kSmall;
  cfg.ranks = ranks;
  cfg.threads = 1;
  cfg.iterations = 1;
  cfg.seed = seed;
  return cfg;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(JournalDurability, RecordReportsDurabilityAndFileEndsInNewline) {
  const std::string path = ::testing::TempDir() + "fibersim_jd_ack.jsonl";
  std::remove(path.c_str());
  core::Runner runner;
  const ExperimentConfig cfg = journal_config(2, 7);
  const ExperimentResult res = runner.run(cfg);
  SweepJournal journal(path);
  EXPECT_TRUE(journal.record(cfg, res));
  // Re-recording the same fingerprint is a durable no-op.
  EXPECT_TRUE(journal.record(cfg, res));
  const std::string bytes = read_file(path);
  ASSERT_FALSE(bytes.empty());
  EXPECT_EQ(bytes.back(), '\n');
  EXPECT_EQ(std::count(bytes.begin(), bytes.end(), '\n'), 1);
  std::remove(path.c_str());
}

TEST(JournalDurability, SurvivesTruncationAtEveryByteOffset) {
  // The crash model: kill -9 (or power loss) can leave the file cut at ANY
  // byte. For every prefix length the journal must (a) open without
  // crashing, (b) keep exactly the records whose trailing newline made it
  // to disk, bit-exactly, (c) report the torn bytes it truncated, and
  // (d) leave the file clean enough that appending a new record round-trips.
  const std::string full_path =
      ::testing::TempDir() + "fibersim_jd_full.jsonl";
  const std::string cut_path = ::testing::TempDir() + "fibersim_jd_cut.jsonl";
  std::remove(full_path.c_str());
  core::Runner runner;
  const std::vector<ExperimentConfig> configs = {journal_config(2, 11),
                                                 journal_config(4, 12)};
  std::vector<ExperimentResult> results;
  {
    SweepJournal journal(full_path);
    for (const ExperimentConfig& cfg : configs) {
      results.push_back(runner.run(cfg));
      ASSERT_TRUE(journal.record(cfg, results.back()));
    }
  }
  const std::string bytes = read_file(full_path);
  ASSERT_FALSE(bytes.empty());
  ASSERT_EQ(bytes.back(), '\n');

  // Record boundaries: offsets just past each newline.
  std::vector<std::size_t> durable_ends;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    if (bytes[i] == '\n') durable_ends.push_back(i + 1);
  }
  ASSERT_EQ(durable_ends.size(), configs.size());

  const ExperimentConfig extra_cfg = journal_config(2, 13);
  const ExperimentResult extra_res = runner.run(extra_cfg);
  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    write_file(cut_path, bytes.substr(0, cut));
    std::size_t expect_loaded = 0;
    std::size_t durable_bytes = 0;
    for (const std::size_t end : durable_ends) {
      if (end <= cut) {
        ++expect_loaded;
        durable_bytes = end;
      }
    }
    {
      SweepJournal reopened(cut_path);
      ASSERT_EQ(reopened.loaded(), expect_loaded);
      ASSERT_EQ(reopened.recovered_tail_bytes(), cut - durable_bytes);
      ExperimentResult back;
      for (std::size_t r = 0; r < configs.size(); ++r) {
        const bool durable = durable_ends[r] <= cut;
        ASSERT_EQ(reopened.lookup(configs[r], &back), durable);
        if (durable) {
          ASSERT_EQ(back.prediction.total_s, results[r].prediction.total_s);
          ASSERT_EQ(back.check_value, results[r].check_value);
        }
      }
      // Append after recovery must not glue onto torn bytes.
      ASSERT_TRUE(reopened.record(extra_cfg, extra_res));
    }
    SweepJournal recovered(cut_path);
    ASSERT_EQ(recovered.loaded(), expect_loaded + 1);
    ASSERT_EQ(recovered.recovered_tail_bytes(), 0u);
    ExperimentResult back;
    ASSERT_TRUE(recovered.lookup(extra_cfg, &back));
    ASSERT_EQ(back.prediction.total_s, extra_res.prediction.total_s);
  }
  std::remove(full_path.c_str());
  std::remove(cut_path.c_str());
}

// ----- client retry policy ------------------------------------------------

TEST(RetryPolicy, RejectsNonsenseUpFront) {
  core::RetryPolicy bad;
  bad.attempts = 0;
  EXPECT_THROW(core::request_with_retry("/nonexistent.sock", "{}", bad),
               Error);
  bad = core::RetryPolicy{};
  bad.backoff_ms = 0;
  EXPECT_THROW(core::request_with_retry("/nonexistent.sock", "{}", bad),
               Error);
}

TEST(RetryPolicy, ExhaustsAttemptsThenThrowsTransportError) {
  core::RetryPolicy policy;
  policy.attempts = 3;
  policy.backoff_ms = 1;
  policy.max_backoff_ms = 2;
  try {
    core::request_with_retry(
        ::testing::TempDir() + "fibersim_no_such_server.sock",
        "{\"verb\":\"ping\"}", policy);
    FAIL() << "request_with_retry returned without a server";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("connect"), std::string::npos)
        << e.what();
  }
}

}  // namespace
