#include "trace/predict.hpp"

#include <algorithm>
#include <array>
#include <exception>
#include <utility>

#include "cg/codegen_model.hpp"
#include "common/cancel.hpp"
#include "common/error.hpp"
#include "rt/fiber.hpp"

namespace fibersim::trace {

std::vector<double> collective_terms(const machine::CommCostModel& model,
                                     int ranks, topo::Distance span,
                                     const mp::CommLog& comm) {
  std::vector<double> terms;
  terms.reserve(comm.collectives.size());
  for (const auto& [kind, traffic] : comm.collectives) {
    if (traffic.calls == 0) continue;
    const double bytes_per_call =
        static_cast<double>(traffic.bytes) / static_cast<double>(traffic.calls);
    double per_call = 0.0;
    if (kind == mp::CollectiveKind::kAlltoall) {
      per_call = model.alltoall_seconds(ranks, bytes_per_call, span);
    } else {
      per_call = model.collective_seconds(ranks, bytes_per_call, span);
    }
    terms.push_back(per_call * static_cast<double>(traffic.calls));
  }
  return terms;
}

void accumulate_phase(JobPrediction& out, PhasePrediction&& phase) {
  if (phase.timed) {
    out.compute_s += phase.time.compute_s;
    out.memory_s += phase.time.memory_s;
    out.barrier_s += phase.time.barrier_s;
    out.comm_s += phase.comm_s;
    out.total_s += phase.total_s;
    out.flops += phase.time.flops;
    out.dram_bytes += phase.time.dram_bytes;
  } else {
    out.setup_s += phase.total_s;
  }
  out.phases.push_back(std::move(phase));
}

namespace {

// Trace-form adapters: the only facts the class-replay engine reads
// differently from a canonical and a collapsed trace.

/// Equivalence-class index of `rank` in phase `p`.
int class_of(const CanonicalTrace& trace, std::size_t p, int rank) {
  return trace.phases()[p].class_of[static_cast<std::size_t>(rank)];
}
int class_of(const CollapsedTrace& trace, std::size_t /*p*/, int rank) {
  return trace.symmetry().class_of(rank);
}

/// fn(dst, messages, bytes) for every point-to-point send of `rank` in phase
/// `p`, ascending by dst: the iteration order of a full run's per-rank send
/// map, so floating-point folds over the sends match the naive path bitwise.
/// `scratch` backs a collapsed member's remapped sends.
template <typename Fn>
void for_each_send(const CanonicalTrace& trace, std::size_t p, int rank,
                   std::vector<CollapsedTrace::RankSend>* /*scratch*/,
                   Fn&& fn) {
  const CanonicalTrace::Phase& ph = trace.phases()[p];
  const mp::CommLog& comm =
      ph.classes[static_cast<std::size_t>(class_of(trace, p, rank))]
          .record.comm;
  for (const auto& [dst, traffic] : comm.sends) {
    fn(dst, traffic.messages, traffic.bytes);
  }
}
template <typename Fn>
void for_each_send(const CollapsedTrace& trace, std::size_t p, int rank,
                   std::vector<CollapsedTrace::RankSend>* scratch, Fn&& fn) {
  const CollapsedTrace::SendView view = trace.send_view(p, rank, scratch);
  for (const CollapsedTrace::RankSend& s : view.sends) {
    fn(view.base + s.dst, s.messages, s.bytes);
  }
}

/// Thread slots (ranks x threads) from which a predict replays its phases
/// concurrently, one fiber-pool context per phase. A phase that streams
/// 2^14 placement entries takes a fraction of a millisecond, so starting and
/// joining a context and giving the phase scratch of its own cost little
/// beside it. The paper's sweeps, the tuner and typical serve requests
/// predict a few nodes at most (hundreds of slots) and keep the serial loop
/// with its one per-predict scratch.
constexpr std::size_t kPhaseFanOutSlots = std::size_t{1} << 14;

/// The class-replay engine behind every predict path: one
/// placement, one prediction per compile preset. Per phase, the comm half
/// (collective terms, pass A contention, the point-to-point stream) reads no
/// compile option and runs once. Then each preset costs every equivalence
/// class once in stage 1 (codegen, thread share, exec-model work evaluation)
/// and streams placement rank-major in the naive path's order. The comm and
/// work sums never mix, so each preset's floating-point sequence — and
/// therefore every output bit — matches the naive predictor of
/// tests/oracle_predict.hpp on the expanded trace.
///
/// A phase reads only the predict's shared, read-only state and writes only
/// its own scratch and results, so phases may run in any order or
/// concurrently; run() folds their results into the job in phase order.
template <typename Trace>
class ClassReplay {
 public:
  ClassReplay(const machine::ProcessorConfig& cfg,
              std::span<const cg::CompileOptions> presets,
              const topo::Binding& binding, const Trace& trace,
              const PredictMemo& memo)
      : exec_(cfg),
        comm_model_(cfg, binding.topology().nodes()),
        presets_(presets),
        binding_(binding),
        trace_(trace),
        memo_(memo),
        ranks_(binding.ranks()),
        threads_(binding.threads_per_rank()),
        job_span_(binding.job_span()) {
    // The stage-1 memo context of each preset, registered once per
    // predict; the predict's lookups (one per class per phase per preset)
    // are counted in one add.
    contexts_.assign(presets.size(), 0);
    if (memo.stage1 != nullptr) {
      for (std::size_t k = 0; k < presets.size(); ++k) {
        contexts_[k] = memo.stage1->context_token(cfg, presets[k]);
      }
      std::size_t lookups = 0;
      for (const auto& ph : trace.phases()) lookups += ph.classes.size();
      memo.stage1->count_lookups(lookups * presets.size());
    }
    // The barrier of a fanned-out team per team span: a pure function of
    // the two, so one value per distance class stands for every rank.
    for (std::size_t d = 0; d < team_barrier_.size(); ++d) {
      team_barrier_[d] =
          exec_.barrier_seconds(threads_, static_cast<topo::Distance>(d));
    }
    for (const topo::Distance span : binding.team_spans()) {
      widest_ = std::max(widest_, span);
    }
  }

  /// Prediction k is written to out[k] (out.size() == presets.size(), each
  /// default-constructed).
  void run(std::span<JobPrediction> out) const {
    const std::size_t phases = trace_.phase_count();
    for (JobPrediction& prediction : out) prediction.phases.reserve(phases);
    const std::size_t slots = static_cast<std::size_t>(ranks_) *
                              static_cast<std::size_t>(threads_);
    if (phases < 2 || slots < kPhaseFanOutSlots) {
      Scratch scratch(exec_, domains());
      std::vector<PhasePrediction> results(presets_.size());
      for (std::size_t p = 0; p < phases; ++p) {
        cancel::checkpoint();  // deadline shed between phases, not mid-phase
        phase(p, scratch, results);
        fold(out, results);
      }
      return;
    }
    // One context per phase, each with scratch of its own, freed when the
    // phase ends, and each checking the caller's cancel token. An error
    // stays in its context and the lowest failing phase's is rethrown: what
    // the serial loop, which stops at the first, would have thrown.
    std::vector<std::vector<PhasePrediction>> results(phases);
    std::vector<std::exception_ptr> errors(phases);
    rt::fork_join(static_cast<int>(phases), [&](int index) {
      const std::size_t p = static_cast<std::size_t>(index);
      try {
        cancel::checkpoint();
        Scratch scratch(exec_, domains());
        results[p].resize(presets_.size());
        phase(p, scratch, results[p]);
      } catch (...) {
        errors[p] = std::current_exception();
      }
    });
    for (const std::exception_ptr& error : errors) {
      if (error) std::rethrow_exception(error);
    }
    for (std::vector<PhasePrediction>& phase_results : results) {
      fold(out, phase_results);
    }
  }

 private:
  /// Per class of the current phase: its collective terms, and the current
  /// preset's stage-1 evaluation.
  struct ClassEval {
    std::vector<double> coll_terms;
    machine::WorkEval eval;
  };
  /// What one phase writes besides its results.
  struct Scratch {
    Scratch(const machine::ExecModel& exec, int domains) : acc(exec, domains) {}
    std::vector<ClassEval> class_evals;
    /// Pass A's flow index of every remote send, in send order.
    std::vector<int> flow_of_send;
    /// Backing store of a collapsed member's remapped sends.
    std::vector<CollapsedTrace::RankSend> sends;
    machine::ExecModel::PhaseAccumulator acc;
  };

  int domains() const { return binding_.topology().total_numa_domains(); }

  static void fold(std::span<JobPrediction> out,
                   std::span<PhasePrediction> results) {
    for (std::size_t k = 0; k < out.size(); ++k) {
      accumulate_phase(out[k], std::move(results[k]));
    }
  }

  /// Phase `p` under every preset: results[k] for presets_[k].
  void phase(std::size_t p, Scratch& s,
             std::span<PhasePrediction> results) const {
    const auto& ph = trace_.phases()[p];
    const bool fan_out = ph.parallel && threads_ > 1;

    // Comm half. Collective logs are identical within a class, so the class
    // record's terms stand for every member bitwise.
    s.class_evals.resize(ph.classes.size());
    bool point_to_point = false;
    for (std::size_t c = 0; c < ph.classes.size(); ++c) {
      const auto& cls = ph.classes[c];
      // The stream indexes the placement arrays by destination rank
      // unchecked; a canonical class lists its members' destinations, and a
      // collapsed member's are grid steps from its representative's.
      for (const auto& [dst, traffic] : cls.record.comm.sends) {
        FS_REQUIRE(dst >= 0 && dst < ranks_,
                   "send destination outside the job in phase " + ph.name);
      }
      point_to_point |= !cls.record.comm.sends.empty();
      s.class_evals[c].coll_terms =
          collective_terms(comm_model_, ranks_, job_span_, cls.record.comm);
    }
    double worst_comm_s = 0.0;
    if (point_to_point) {
      worst_comm_s = comm_stream(p, s);
    } else {
      // No member of any class sends point to point: a rank's comm is 0.0
      // plus its class's terms, the stream's own fold, and every class has
      // a member, so the max over classes is the max over ranks.
      for (const ClassEval& ce : s.class_evals) {
        double comm_s = 0.0;
        for (const double term : ce.coll_terms) comm_s += term;
        worst_comm_s = std::max(worst_comm_s, comm_s);
      }
    }

    // Work half, per preset. A fanned-out phase evaluates each thread's
    // 1/threads share.
    const int share = fan_out ? threads_ : 1;
    const std::vector<int>& home_of = binding_.home_numas();
    const std::vector<int>& numa_of = binding_.thread_numas();
    const std::vector<topo::Distance>& span_of = binding_.team_spans();
    const std::size_t t_count = static_cast<std::size_t>(threads_);
    for (std::size_t k = 0; k < presets_.size(); ++k) {
      // Stage 1 — per equivalence class, not per rank: work is identical
      // within a class, so the class record stands for every member.
      const std::uint64_t phase_context =
          machine::EvalCache::with_share(contexts_[k], share);
      for (std::size_t c = 0; c < ph.classes.size(); ++c) {
        const auto& cls = ph.classes[c];
        s.class_evals[c].eval =
            memo_.stage1 != nullptr
                ? memo_.stage1->work_eval(exec_, phase_context,
                                          cls.record.work, cls.work_hash)
                : machine::EvalCache::evaluate(exec_, presets_[k], share,
                                               cls.record.work);
      }

      // Stage 2, work stream: placement in the naive rank-major order.
      for (int rank = 0; rank < ranks_; ++rank) {
        const machine::WorkEval& eval =
            s.class_evals[static_cast<std::size_t>(class_of(trace_, p, rank))]
                .eval;
        const std::size_t r = static_cast<std::size_t>(rank);
        if (fan_out) {
          const double barrier_s =
              team_barrier_[static_cast<std::size_t>(span_of[r])];
          for (std::size_t t = 0; t < t_count; ++t) {
            s.acc.add(eval, numa_of[r * t_count + t], home_of[r], barrier_s);
          }
        } else {
          s.acc.add(eval, numa_of[r * t_count], home_of[r], 0.0);
        }
      }

      PhasePrediction phase;
      phase.name = ph.name;
      phase.timed = ph.timed;
      phase.time = s.acc.finish();
      // Per-entry team barriers: the accumulator charged one fork-join;
      // charge the remaining entries.
      if (fan_out && ph.entries > 1) {
        const double extra = static_cast<double>(ph.entries - 1) *
                             exec_.barrier_seconds(threads_, widest_);
        phase.time.barrier_s += extra;
        phase.time.total_s += extra;
      }
      phase.comm_s = worst_comm_s;
      phase.total_s = phase.time.total_s + phase.comm_s;
      results[k] = std::move(phase);
    }
  }

  /// The slowest rank's communication seconds in phase `p`: pass A loads
  /// the torus, then each rank's sends are costed in the naive order and
  /// its class's collective terms added.
  double comm_stream(std::size_t p, Scratch& s) const {
    const std::vector<int>& node_of = binding_.rank_nodes();
    const std::vector<int>& home_of = binding_.home_numas();

    // Pass A: aggregate the phase's inter-node traffic for contention,
    // rank-major like the naive path (integer sums, so the order only
    // matters for auditability), keeping each remote send's flow index.
    machine::LinkContention contention(&comm_model_.torus());
    s.flow_of_send.clear();
    for (int rank = 0; rank < ranks_; ++rank) {
      const int src_node = node_of[static_cast<std::size_t>(rank)];
      for_each_send(trace_, p, rank, &s.sends,
                    [&](int dst, std::uint64_t, std::uint64_t bytes) {
                      const int dst_node =
                          node_of[static_cast<std::size_t>(dst)];
                      if (dst_node != src_node) {
                        s.flow_of_send.push_back(contention.add_flow_index(
                            src_node, dst_node, bytes));
                      }
                    });
    }
    contention.seal();

    // Stage 2, comm stream: each rank's sends in the naive order, then its
    // class's collective terms. A remote send reads its pair's hops and
    // foreign bytes straight from its flow.
    std::size_t next_flow = 0;
    double worst_comm_s = 0.0;
    for (int rank = 0; rank < ranks_; ++rank) {
      const std::size_t r = static_cast<std::size_t>(rank);
      double comm_s = 0.0;
      for_each_send(
          trace_, p, rank, &s.sends,
          [&](int dst, std::uint64_t messages, std::uint64_t bytes) {
            const std::size_t d = static_cast<std::size_t>(dst);
            const topo::Distance distance = binding_.master_distance(r, d);
            if (distance == topo::Distance::kRemoteNode) {
              const int flow = s.flow_of_send[next_flow++];
              comm_s += comm_model_.remote_send_seconds(
                  contention.flow_hops(flow), contention.flow_foreign(flow),
                  messages, bytes);
            } else {
              comm_s += comm_model_.local_send_seconds(
                  distance, home_of[r], home_of[d], messages, bytes);
            }
          });
      for (const double term :
           s.class_evals[static_cast<std::size_t>(class_of(trace_, p, rank))]
               .coll_terms) {
        comm_s += term;
      }
      worst_comm_s = std::max(worst_comm_s, comm_s);
    }
    return worst_comm_s;
  }

  const machine::ExecModel exec_;
  const machine::CommCostModel comm_model_;
  std::span<const cg::CompileOptions> presets_;
  const topo::Binding& binding_;
  const Trace& trace_;
  const PredictMemo& memo_;
  const int ranks_;
  const int threads_;
  const topo::Distance job_span_;
  std::vector<std::uint64_t> contexts_;
  std::array<double, static_cast<std::size_t>(topo::Distance::kRemoteNode) + 1>
      team_barrier_{};
  topo::Distance widest_ = topo::Distance::kSameNuma;
};

}  // namespace

JobPrediction predict_job(const machine::ProcessorConfig& cfg,
                          const cg::CompileOptions& opts,
                          const topo::Binding& binding,
                          const CanonicalTrace& trace,
                          const PredictMemo& memo) {
  FS_REQUIRE(trace.ranks() == binding.ranks(),
             "trace rank count does not match the binding");
  JobPrediction out;
  ClassReplay(cfg, {&opts, 1}, binding, trace, memo).run({&out, 1});
  return out;
}

JobPrediction predict_job(const machine::ProcessorConfig& cfg,
                          const cg::CompileOptions& opts,
                          const topo::Binding& binding,
                          const CollapsedTrace& trace,
                          const PredictMemo& memo) {
  FS_REQUIRE(trace.ranks() == binding.ranks(),
             "collapsed trace rank count does not match the binding");
  JobPrediction out;
  ClassReplay(cfg, {&opts, 1}, binding, trace, memo).run({&out, 1});
  return out;
}

std::vector<JobPrediction> predict_presets(
    const machine::ProcessorConfig& cfg,
    std::span<const cg::CompileOptions> presets, const topo::Binding& binding,
    const CanonicalTrace& trace, const PredictMemo& memo) {
  FS_REQUIRE(trace.ranks() == binding.ranks(),
             "trace rank count does not match the binding");
  std::vector<JobPrediction> out(presets.size());
  ClassReplay(cfg, presets, binding, trace, memo).run(out);
  return out;
}

std::vector<JobPrediction> predict_presets(
    const machine::ProcessorConfig& cfg,
    std::span<const cg::CompileOptions> presets, const topo::Binding& binding,
    const CollapsedTrace& trace, const PredictMemo& memo) {
  FS_REQUIRE(trace.ranks() == binding.ranks(),
             "collapsed trace rank count does not match the binding");
  std::vector<JobPrediction> out(presets.size());
  ClassReplay(cfg, presets, binding, trace, memo).run(out);
  return out;
}

}  // namespace fibersim::trace
