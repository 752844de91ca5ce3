// Unit tests for the trace recorder and job prediction.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/json.hpp"
#include "mp/job.hpp"
#include "trace/canonical.hpp"
#include "trace/predict.hpp"
#include "trace/recorder.hpp"
#include "trace/serialize.hpp"

namespace fibersim::trace {
namespace {

isa::WorkEstimate unit_work(double flops = 1e6) {
  isa::WorkEstimate w;
  w.flops = flops;
  w.load_bytes = flops;
  w.iterations = flops / 10.0;
  w.vectorizable_fraction = 0.9;
  w.working_set_bytes = 1e4;
  return w;
}

TEST(Recorder, AccumulatesPhasesByName) {
  Recorder rec;
  for (int i = 0; i < 3; ++i) {
    rec.begin_phase("kernel");
    rec.add_work(unit_work());
    rec.end_phase();
  }
  ASSERT_EQ(rec.phases().size(), 1u);
  EXPECT_EQ(rec.phases()[0].entries, 3u);
  EXPECT_DOUBLE_EQ(rec.phases()[0].work.flops, 3e6);
}

TEST(Recorder, PreservesPhaseOrder) {
  Recorder rec;
  rec.begin_phase("a");
  rec.end_phase();
  rec.begin_phase("b");
  rec.end_phase();
  rec.begin_phase("a");
  rec.end_phase();
  ASSERT_EQ(rec.phases().size(), 2u);
  EXPECT_EQ(rec.phases()[0].name, "a");
  EXPECT_EQ(rec.phases()[1].name, "b");
}

TEST(Recorder, RejectsNestingAndMismatchedFlags) {
  Recorder rec;
  rec.begin_phase("x");
  EXPECT_THROW(rec.begin_phase("y"), Error);
  rec.end_phase();
  EXPECT_THROW(rec.end_phase(), Error);
  rec.begin_phase("x");
  rec.end_phase();
  EXPECT_THROW(rec.begin_phase("x", /*parallel=*/false), Error);
}

TEST(Recorder, RejectsWorkOutsidePhase) {
  Recorder rec;
  EXPECT_THROW(rec.add_work(unit_work()), Error);
}

TEST(Recorder, ScopedGuard) {
  Recorder rec;
  {
    Recorder::Scoped phase(rec, "scoped");
    rec.add_work(unit_work());
    EXPECT_TRUE(rec.in_phase());
  }
  EXPECT_FALSE(rec.in_phase());
  EXPECT_EQ(rec.phases().size(), 1u);
}

TEST(Recorder, AttributesCommToPhases) {
  mp::Job::run(2, [](mp::Comm& comm) {
    Recorder rec(&comm);
    {
      Recorder::Scoped phase(rec, "talk");
      const int peer = 1 - comm.rank();
      double v = 1.0;
      comm.sendrecv<double>(peer, std::span<const double>(&v, 1), peer,
                            std::span<double>(&v, 1));
    }
    {
      Recorder::Scoped phase(rec, "silent");
    }
    EXPECT_EQ(rec.phases()[0].comm.total_p2p_messages(), 1u);
    EXPECT_EQ(rec.phases()[1].comm.total_p2p_messages(), 0u);
  });
}

// ----- prediction -----

JobTrace single_phase_trace(int ranks, double flops_per_rank,
                            bool parallel = true, bool timed = true) {
  JobTrace trace;
  for (int r = 0; r < ranks; ++r) {
    PhaseRecord rec;
    rec.name = "kernel";
    rec.parallel = parallel;
    rec.timed = timed;
    rec.entries = 1;
    rec.work = unit_work(flops_per_rank);
    trace.push_back({rec});
  }
  return trace;
}

topo::Binding binding_for(int ranks, int threads) {
  const topo::Topology topo(machine::a64fx().shape);
  return topo::Binding::make(topo, ranks, threads, topo::RankAllocPolicy::kBlock,
                             topo::ThreadBindPolicy::compact());
}

/// The path the program runs: canonicalize once, then predict.
JobPrediction predict(
    const topo::Binding& binding, const JobTrace& trace,
    const cg::CompileOptions& opts = cg::CompileOptions::simd_sched()) {
  return predict_job(machine::a64fx(), opts, binding,
                     CanonicalTrace::build(trace));
}

TEST(Predict, BasicShape) {
  const auto pred = predict(binding_for(4, 2), single_phase_trace(4, 1e7));
  ASSERT_EQ(pred.phases.size(), 1u);
  EXPECT_GT(pred.total_s, 0.0);
  EXPECT_DOUBLE_EQ(pred.flops, 4e7);
  EXPECT_GT(pred.gflops(), 0.0);
}

TEST(Predict, MoreThreadsRunFaster) {
  const auto trace = single_phase_trace(4, 1e8);
  const auto t1 = predict(binding_for(4, 1), trace);
  const auto t8 = predict(binding_for(4, 8), trace);
  EXPECT_LT(t8.total_s, t1.total_s * 0.3);
}

TEST(Predict, SerialPhaseIgnoresThreadCount) {
  const auto trace = single_phase_trace(2, 1e8, /*parallel=*/false);
  const auto t1 = predict(binding_for(2, 1), trace);
  const auto t12 = predict(binding_for(2, 12), trace);
  EXPECT_NEAR(t1.total_s, t12.total_s, 1e-6 * t1.total_s + 1e-12);
}

TEST(Predict, UntimedPhasesExcludedFromHeadline) {
  JobTrace trace = single_phase_trace(2, 1e8, true, /*timed=*/false);
  const auto pred = predict(binding_for(2, 2), trace);
  EXPECT_DOUBLE_EQ(pred.total_s, 0.0);
  EXPECT_GT(pred.setup_s, 0.0);
  ASSERT_EQ(pred.phases.size(), 1u);
  EXPECT_FALSE(pred.phases[0].timed);
}

TEST(Predict, WorkScalesTimeLinearly) {
  const auto small = predict(binding_for(2, 2), single_phase_trace(2, 1e7));
  const auto large = predict(binding_for(2, 2), single_phase_trace(2, 4e7));
  EXPECT_NEAR(large.total_s / small.total_s, 4.0, 0.5);
}

TEST(Predict, RejectsMismatchedTraces) {
  // predict_job checks the rank count against the binding ...
  const auto three = CanonicalTrace::build(single_phase_trace(3, 1e6));
  EXPECT_THROW(predict_job(machine::a64fx(), cg::CompileOptions::simd_sched(),
                           binding_for(2, 2), three),
               Error);
  // ... and CanonicalTrace::build rejects ragged and renamed phases.
  JobTrace ragged = single_phase_trace(2, 1e6);
  ragged[1].push_back(ragged[1][0]);
  EXPECT_THROW(CanonicalTrace::build(ragged), Error);
  JobTrace renamed = single_phase_trace(2, 1e6);
  renamed[1][0].name = "other";
  EXPECT_THROW(CanonicalTrace::build(renamed), Error);
}

TEST(Predict, CommChargedToSlowestRank) {
  JobTrace trace = single_phase_trace(2, 1e6);
  trace[0][0].comm.record_send(1, 1 << 20);
  const auto quiet = predict(binding_for(2, 2), single_phase_trace(2, 1e6));
  const auto loud = predict(binding_for(2, 2), trace);
  EXPECT_GT(loud.comm_s, quiet.comm_s);
  EXPECT_GT(loud.total_s, quiet.total_s);
}

TEST(Predict, RepeatedEntriesChargeBarriers) {
  JobTrace once = single_phase_trace(2, 1e6);
  JobTrace many = single_phase_trace(2, 1e6);
  for (auto& rank_trace : many) rank_trace[0].entries = 100;
  const auto t_once = predict(binding_for(2, 12), once);
  const auto t_many = predict(binding_for(2, 12), many);
  EXPECT_GT(t_many.barrier_s, 50.0 * t_once.barrier_s);
}

TEST(Predict, CompilerOptionsChangeTime) {
  JobTrace trace = single_phase_trace(2, 1e8);
  for (auto& rank_trace : trace) {
    rank_trace[0].work.vectorizable_fraction = 1.0;
    rank_trace[0].work.branches = rank_trace[0].work.iterations;
  }
  const auto basic =
      predict(binding_for(2, 2), trace, cg::CompileOptions::as_is());
  const auto tuned = predict(binding_for(2, 2), trace);
  EXPECT_LT(tuned.total_s, basic.total_s);
}

// ----- serialization -----

namespace json {
/// Minimal structural validator: balanced brackets, balanced quotes.
bool well_formed(const std::string& text) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : text) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (in_string) {
      if (c == '\\') escaped = true;
      if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    if (depth < 0) return false;
  }
  return depth == 0 && !in_string;
}
}  // namespace json

TEST(Serialize, TraceJsonIsWellFormedAndComplete) {
  JobTrace trace = single_phase_trace(3, 1e6);
  trace[0][0].comm.record_send(1, 100);
  trace[0][0].comm.record_collective(mp::CollectiveKind::kAllreduce, 8);
  const std::string text = to_json(trace);
  EXPECT_TRUE(json::well_formed(text)) << text;
  EXPECT_NE(text.find("\"name\":\"kernel\""), std::string::npos);
  EXPECT_NE(text.find("\"flops\":1000000"), std::string::npos);
  EXPECT_NE(text.find("\"allreduce\""), std::string::npos);
  EXPECT_NE(text.find("\"dst\":1"), std::string::npos);
}

TEST(Serialize, PredictionJsonIsWellFormed) {
  const auto pred = predict(binding_for(2, 2), single_phase_trace(2, 1e7));
  const std::string text = to_json(pred);
  EXPECT_TRUE(json::well_formed(text)) << text;
  EXPECT_NE(text.find("\"total_s\""), std::string::npos);
  EXPECT_NE(text.find("\"limiter\""), std::string::npos);
  EXPECT_NE(text.find("\"phases\":["), std::string::npos);
}

TEST(Serialize, EmptyTraceIsAnEmptyArray) {
  EXPECT_EQ(to_json(JobTrace{}), "[]");
}

TEST(Serialize, EscapesQuotesInNames) {
  JobTrace trace = single_phase_trace(1, 1.0);
  trace[0][0].name = "odd\"name";
  const std::string text = to_json(trace);
  EXPECT_TRUE(json::well_formed(text));
  EXPECT_NE(text.find("odd\\\"name"), std::string::npos);
}

TEST(Serialize, ControlCharactersInNamesStayValidJson) {
  JobTrace trace = single_phase_trace(1, 1.0);
  trace[0][0].name = "line\nbreak\x01" "end";
  const std::string text = to_json(trace);
  std::string error;
  const auto doc = fibersim::json::parse(text, &error);
  ASSERT_TRUE(doc.has_value()) << error << "\n" << text;
  ASSERT_TRUE(doc->is_array());
  const fibersim::json::Value& phase = doc->items().at(0).items().at(0);
  const fibersim::json::Value* name = phase.find("name");
  ASSERT_NE(name, nullptr);
  EXPECT_EQ(name->as_string(), trace[0][0].name);
}

}  // namespace
}  // namespace fibersim::trace
