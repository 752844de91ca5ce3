// The tests' naive predictor, the reference the class-replay engine of
// trace::predict_job is held to bit for bit. It checks the SPMD agreement
// contract on every call and costs every rank x thread of every phase from
// scratch: codegen per rank, evaluate_work per thread, a torus pair lookup
// per send. The cost expressions it shares with the engine are written once
// in src/ (CommCostModel's send costs, trace::collective_terms and
// trace::accumulate_phase, the PhaseAccumulator behind evaluate_phase_refs),
// so the tests check the engine's order of operations, not a copy of its
// formulas. evaluate_phase_refs feeds the accumulator one thread per team,
// and the engine one rank's team at a time, so the comparison also checks
// that the team grouping keeps the per-thread sequence of sums.
// expect_identical() is the bit-for-bit comparison they apply.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cg/codegen_model.hpp"
#include "common/error.hpp"
#include "isa/work_estimate.hpp"
#include "machine/comm_model.hpp"
#include "machine/exec_model.hpp"
#include "machine/network_model.hpp"
#include "topo/binding.hpp"
#include "trace/predict.hpp"
#include "trace/recorder.hpp"

namespace fibersim::oracle {

/// The work of one thread in one phase, with its placement.
struct ThreadWork {
  isa::WorkEstimate work;
  int numa = 0;       ///< global NUMA domain of the thread's core
  int home_numa = 0;  ///< domain homing the rank's shared data
  int rank = 0;
  int team_size = 1;  ///< threads in this thread's rank
  topo::Distance team_span = topo::Distance::kSameNuma;
};

/// Evaluate a whole bulk-synchronous phase across every thread of the job:
/// every thread's work individually, in order, then one accumulation.
inline machine::PhaseTime evaluate_phase(
    const machine::ExecModel& exec, const std::vector<ThreadWork>& threads) {
  std::vector<machine::WorkEval> evals;
  evals.reserve(threads.size());
  std::vector<machine::ThreadRef> refs;
  refs.reserve(threads.size());
  for (const ThreadWork& t : threads) {
    evals.push_back(exec.evaluate_work(t.work));
    refs.push_back(machine::ThreadRef{
        &evals.back(), t.numa, t.home_numa,
        exec.barrier_seconds(t.team_size, t.team_span)});
  }
  return exec.evaluate_phase_refs(refs);
}

/// Per-phase point-to-point communication model. Two passes:
/// add_rank_flows() aggregates every inter-node flow of the phase onto the
/// torus (per node pair; LinkContention routes each pair once and computes
/// its foreign bytes at seal()), then each send is costed with its distance
/// class, looking its pair's hops and foreign bytes up per send.
class PhaseComm {
 public:
  PhaseComm(const machine::CommCostModel& model, const topo::Binding& binding)
      : model_(model), binding_(binding), contention_(&model.torus()) {}

  void add_rank_flows(int rank, const mp::CommLog& comm) {
    for (const auto& [dst, traffic] : comm.sends) {
      if (binding_.rank_distance(rank, dst) == topo::Distance::kRemoteNode) {
        contention_.add_flow(binding_.node_of(rank), binding_.node_of(dst),
                             traffic.bytes);
      }
    }
  }
  void seal() { contention_.seal(); }

  /// Point-to-point seconds of one rank (map iteration: ascending dst).
  double rank_p2p_seconds(int rank, const mp::CommLog& comm) const {
    double seconds = 0.0;
    for (const auto& [dst, traffic] : comm.sends) {
      const topo::Distance d = binding_.rank_distance(rank, dst);
      if (d == topo::Distance::kRemoteNode) {
        const int src_node = binding_.node_of(rank);
        const int dst_node = binding_.node_of(dst);
        seconds += model_.remote_send_seconds(
            model_.torus().hops(src_node, dst_node),
            contention_.foreign_bytes(src_node, dst_node), traffic.messages,
            traffic.bytes);
      } else {
        seconds += model_.local_send_seconds(d, binding_.home_numa(rank),
                                             binding_.home_numa(dst),
                                             traffic.messages, traffic.bytes);
      }
    }
    return seconds;
  }

 private:
  const machine::CommCostModel& model_;
  const topo::Binding& binding_;
  machine::LinkContention contention_;
};

/// Communication seconds of one rank in one phase.
inline double rank_comm_seconds(const PhaseComm& phase_comm,
                                const machine::CommCostModel& model,
                                const topo::Binding& binding,
                                topo::Distance span, int rank,
                                const mp::CommLog& comm) {
  double seconds = phase_comm.rank_p2p_seconds(rank, comm);
  for (const double term :
       trace::collective_terms(model, binding.ranks(), span, comm)) {
    seconds += term;
  }
  return seconds;
}

/// Predict the execution time of a recorded job, the naive way.
///
/// Requirements: `trace.size()` ranks must match `binding.ranks()`; every
/// rank must have recorded the same phase sequence. Phase work is
/// distributed over the rank's threads (evenly for parallel phases, on the
/// master for serial ones), placed according to `binding`, transformed by
/// `opts`, and evaluated on `cfg`.
inline trace::JobPrediction predict_job(const machine::ProcessorConfig& cfg,
                                        const cg::CompileOptions& opts,
                                        const topo::Binding& binding,
                                        const trace::JobTrace& trace) {
  FS_REQUIRE(static_cast<int>(trace.size()) == binding.ranks(),
             "trace rank count does not match the binding");
  FS_REQUIRE(!trace.empty(), "empty trace");
  const std::size_t n_phases = trace.front().size();
  for (const trace::RankTrace& rt : trace) {
    FS_REQUIRE(rt.size() == n_phases,
               "ranks recorded different phase sequences");
  }

  const machine::ExecModel exec(cfg);
  const machine::CommCostModel comm_model(cfg, binding.topology().nodes());
  const int threads = binding.threads_per_rank();
  const topo::Distance job_span = binding.job_span();

  trace::JobPrediction out;
  out.phases.reserve(n_phases);

  for (std::size_t p = 0; p < n_phases; ++p) {
    const std::string& phase_name = trace.front()[p].name;
    const bool parallel = trace.front()[p].parallel;

    // Pass A: aggregate the phase's inter-node traffic for contention.
    PhaseComm phase_comm(comm_model, binding);
    for (int rank = 0; rank < binding.ranks(); ++rank) {
      phase_comm.add_rank_flows(rank,
                                trace[static_cast<std::size_t>(rank)][p].comm);
    }
    phase_comm.seal();

    std::vector<ThreadWork> thread_work;
    thread_work.reserve(trace.size() * static_cast<std::size_t>(threads));
    double worst_comm_s = 0.0;

    for (int rank = 0; rank < binding.ranks(); ++rank) {
      const trace::PhaseRecord& rec = trace[static_cast<std::size_t>(rank)][p];
      FS_REQUIRE(rec.name == phase_name,
                 "ranks disagree on phase order: " + rec.name + " vs " +
                     phase_name);
      const isa::WorkEstimate generated = cg::apply(opts, rec.work);

      if (parallel && threads > 1) {
        const isa::WorkEstimate share =
            generated.scaled(1.0 / static_cast<double>(threads));
        for (int t = 0; t < threads; ++t) {
          thread_work.push_back({share, binding.thread_numa(rank, t),
                                 binding.home_numa(rank), rank, threads,
                                 binding.team_span(rank)});
        }
      } else {
        // Serial phases fork no team: no barrier is charged.
        thread_work.push_back({generated, binding.thread_numa(rank, 0),
                               binding.home_numa(rank), rank, 1,
                               topo::Distance::kSameNuma});
      }

      worst_comm_s = std::max(
          worst_comm_s, rank_comm_seconds(phase_comm, comm_model, binding,
                                          job_span, rank, rec.comm));
    }

    trace::PhasePrediction phase;
    phase.name = phase_name;
    phase.timed = trace.front()[p].timed;
    phase.time = evaluate_phase(exec, thread_work);
    // Per-entry team barriers: one fork-join per phase entry.
    const std::uint64_t entries = trace.front()[p].entries;
    if (parallel && threads > 1 && entries > 1) {
      // evaluate_phase charged one barrier; charge the remaining entries.
      topo::Distance widest = topo::Distance::kSameNuma;
      for (int rank = 0; rank < binding.ranks(); ++rank) {
        widest = std::max(widest, binding.team_span(rank));
      }
      const double extra = static_cast<double>(entries - 1) *
                           exec.barrier_seconds(threads, widest);
      phase.time.barrier_s += extra;
      phase.time.total_s += extra;
    }
    phase.comm_s = worst_comm_s;
    phase.total_s = phase.time.total_s + phase.comm_s;

    trace::accumulate_phase(out, std::move(phase));
  }
  return out;
}

inline bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Every field of two predictions and of each of their phases, bit for bit.
inline void expect_identical(const trace::JobPrediction& got,
                             const trace::JobPrediction& want) {
  EXPECT_TRUE(same_bits(got.total_s, want.total_s));
  EXPECT_TRUE(same_bits(got.compute_s, want.compute_s));
  EXPECT_TRUE(same_bits(got.memory_s, want.memory_s));
  EXPECT_TRUE(same_bits(got.comm_s, want.comm_s));
  EXPECT_TRUE(same_bits(got.barrier_s, want.barrier_s));
  EXPECT_TRUE(same_bits(got.flops, want.flops));
  EXPECT_TRUE(same_bits(got.dram_bytes, want.dram_bytes));
  EXPECT_TRUE(same_bits(got.setup_s, want.setup_s));
  ASSERT_EQ(got.phases.size(), want.phases.size());
  for (std::size_t p = 0; p < want.phases.size(); ++p) {
    const trace::PhasePrediction& g = got.phases[p];
    const trace::PhasePrediction& w = want.phases[p];
    SCOPED_TRACE("phase " + w.name);
    EXPECT_EQ(g.name, w.name);
    EXPECT_EQ(g.timed, w.timed);
    EXPECT_TRUE(same_bits(g.comm_s, w.comm_s));
    EXPECT_TRUE(same_bits(g.total_s, w.total_s));
    EXPECT_TRUE(same_bits(g.time.compute_s, w.time.compute_s));
    EXPECT_TRUE(same_bits(g.time.memory_s, w.time.memory_s));
    EXPECT_TRUE(same_bits(g.time.barrier_s, w.time.barrier_s));
    EXPECT_TRUE(same_bits(g.time.total_s, w.time.total_s));
    EXPECT_EQ(g.time.limiter, w.time.limiter);
    EXPECT_TRUE(same_bits(g.time.flops, w.time.flops));
    EXPECT_TRUE(same_bits(g.time.dram_bytes, w.time.dram_bytes));
    EXPECT_TRUE(same_bits(g.time.remote_bytes, w.time.remote_bytes));
    EXPECT_TRUE(same_bits(g.time.chain_s, w.time.chain_s));
  }
}

}  // namespace fibersim::oracle
