#include "trace/predict.hpp"

#include <algorithm>
#include <array>
#include <exception>
#include <type_traits>
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

/// The class-replay engine behind every predict path: the placements of one
/// ranks x threads shape on one topology, one prediction per (placement,
/// compile preset). Per phase, stage 1 (codegen, thread share, exec-model
/// work evaluation) reads no placement, so each equivalence class is costed
/// once per preset for every binding. Then, per binding, the comm half
/// (collective terms, pass A contention, the point-to-point stream) reads no
/// compile option and runs once, and each preset streams placement
/// rank-major in the naive path's order. The comm and work sums never mix,
/// and a stage-1 value is the memo's (or evaluate()'s) bits whoever asks,
/// so each prediction's floating-point sequence — and therefore every
/// output bit — matches the naive predictor of tests/oracle_predict.hpp on
/// the expanded trace.
///
/// A phase reads only the predict's shared, read-only state and writes only
/// its own scratch and results, so phases may run in any order or
/// concurrently; run() folds their results into the job in phase order.
template <typename Trace>
class ClassReplay {
 public:
  ClassReplay(const machine::ProcessorConfig& cfg,
              std::span<const cg::CompileOptions> presets,
              std::span<const topo::Binding> bindings, const Trace& trace,
              const PredictMemo& memo)
      : exec_(cfg),
        comm_model_(cfg, bindings.front().topology().nodes()),
        presets_(presets),
        bindings_(bindings),
        trace_(trace),
        memo_(memo),
        ranks_(bindings.front().ranks()),
        threads_(bindings.front().threads_per_rank()) {
    const topo::Topology& topology = bindings.front().topology();
    for (const topo::Binding& binding : bindings) {
      FS_REQUIRE(binding.ranks() == ranks_ &&
                     binding.threads_per_rank() == threads_ &&
                     binding.topology().nodes() == topology.nodes() &&
                     binding.topology().shape() == topology.shape(),
                 "bindings of one predict differ in shape or topology");
    }
    // The stage-1 memo context of each preset, registered once per
    // predict; the predict's lookups (one per class per phase per preset,
    // whatever the number of bindings) are counted in one add.
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
    // the two, so one value per distance class stands for every rank and
    // for every extra entry of a phase.
    for (std::size_t d = 0; d < team_barrier_.size(); ++d) {
      team_barrier_[d] =
          exec_.barrier_seconds(threads_, static_cast<topo::Distance>(d));
    }
    widest_.assign(bindings.size(), topo::Distance::kSameNuma);
    for (std::size_t b = 0; b < bindings.size(); ++b) {
      for (const topo::Distance span : bindings[b].team_spans()) {
        widest_[b] = std::max(widest_[b], span);
      }
    }
  }

  /// The prediction of binding b under preset k is written to
  /// out[b * presets.size() + k] (out.size() == bindings.size() *
  /// presets.size(), each default-constructed).
  void run(std::span<JobPrediction> out) const {
    const std::size_t phases = trace_.phase_count();
    for (JobPrediction& prediction : out) prediction.phases.reserve(phases);
    const std::size_t slots = static_cast<std::size_t>(ranks_) *
                              static_cast<std::size_t>(threads_);
    if (phases < 2 || slots < kPhaseFanOutSlots) {
      Scratch scratch(exec_, domains());
      std::vector<PhasePrediction> results(out.size());
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
        results[p].resize(out.size());
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
  /// What one phase writes besides its results.
  struct Scratch {
    Scratch(const machine::ExecModel& exec, int domains) : acc(exec, domains) {}
    /// Stage 1 of the current phase: class c under preset k at
    /// [k * classes + c].
    std::vector<machine::WorkEval> evals;
    /// The current binding's collective terms, per class of the phase.
    std::vector<std::vector<double>> coll_terms;
    /// Pass A's flow index of every remote send, in send order.
    std::vector<int> flow_of_send;
    /// Backing store of a collapsed member's remapped sends.
    std::vector<CollapsedTrace::RankSend> sends;
    machine::ExecModel::PhaseAccumulator acc;
  };

  int domains() const {
    return bindings_.front().topology().total_numa_domains();
  }

  static void fold(std::span<JobPrediction> out,
                   std::span<PhasePrediction> results) {
    for (std::size_t i = 0; i < out.size(); ++i) {
      accumulate_phase(out[i], std::move(results[i]));
    }
  }

  /// Phase `p` under every binding and preset: results[b * presets + k]
  /// for bindings_[b] under presets_[k].
  void phase(std::size_t p, Scratch& s,
             std::span<PhasePrediction> results) const {
    const auto& ph = trace_.phases()[p];
    const bool fan_out = ph.parallel && threads_ > 1;
    const std::size_t classes = ph.classes.size();

    // The stream indexes the placement arrays by destination rank
    // unchecked; a canonical class lists its members' destinations, and a
    // collapsed member's are grid steps from its representative's.
    bool point_to_point = false;
    for (const auto& cls : ph.classes) {
      for (const auto& [dst, traffic] : cls.record.comm.sends) {
        FS_REQUIRE(dst >= 0 && dst < ranks_,
                   "send destination outside the job in phase " + ph.name);
      }
      point_to_point |= !cls.record.comm.sends.empty();
    }

    // Stage 1 — per equivalence class, not per rank: work is identical
    // within a class, so the class record stands for every member. A
    // fanned-out phase evaluates each thread's 1/threads share.
    const int share = fan_out ? threads_ : 1;
    s.evals.resize(presets_.size() * classes);
    for (std::size_t k = 0; k < presets_.size(); ++k) {
      const std::uint64_t phase_context =
          machine::EvalCache::with_share(contexts_[k], share);
      for (std::size_t c = 0; c < classes; ++c) {
        const auto& cls = ph.classes[c];
        s.evals[k * classes + c] =
            memo_.stage1 != nullptr
                ? memo_.stage1->work_eval(exec_, phase_context,
                                          cls.record.work, cls.work_hash)
                : machine::EvalCache::evaluate(exec_, presets_[k], share,
                                               cls.record.work);
      }
    }

    s.coll_terms.resize(classes);
    const std::size_t t_count = static_cast<std::size_t>(threads_);
    for (std::size_t b = 0; b < bindings_.size(); ++b) {
      const topo::Binding& binding = bindings_[b];

      // Comm half. Collective logs are identical within a class, so the
      // class record's terms stand for every member bitwise.
      for (std::size_t c = 0; c < classes; ++c) {
        s.coll_terms[c] = collective_terms(comm_model_, ranks_,
                                           binding.job_span(),
                                           ph.classes[c].record.comm);
      }
      double worst_comm_s = 0.0;
      if (point_to_point) {
        worst_comm_s = comm_stream(p, binding, s);
      } else {
        // No member of any class sends point to point: a rank's comm is 0.0
        // plus its class's terms, the stream's own fold, and every class
        // has a member, so the max over classes is the max over ranks.
        for (const std::vector<double>& terms : s.coll_terms) {
          double comm_s = 0.0;
          for (const double term : terms) comm_s += term;
          worst_comm_s = std::max(worst_comm_s, comm_s);
        }
      }

      // Stage 2, work stream per preset: placement in the naive rank-major
      // order, one rank's team at a time. A phase that is not fanned out
      // runs on the master thread alone.
      const std::vector<int>& home_of = binding.home_numas();
      const std::vector<int>& numa_of = binding.thread_numas();
      const std::vector<topo::Distance>& span_of = binding.team_spans();
      const std::size_t team = fan_out ? t_count : 1;
      for (std::size_t k = 0; k < presets_.size(); ++k) {
        const machine::WorkEval* evals = &s.evals[k * classes];
        for (int rank = 0; rank < ranks_; ++rank) {
          const std::size_t r = static_cast<std::size_t>(rank);
          s.acc.add_team(
              evals[static_cast<std::size_t>(class_of(trace_, p, rank))],
              {&numa_of[r * t_count], team}, home_of[r],
              fan_out ? team_barrier_[static_cast<std::size_t>(span_of[r])]
                      : 0.0);
        }

        PhasePrediction phase;
        phase.name = ph.name;
        phase.timed = ph.timed;
        phase.time = s.acc.finish();
        // Per-entry team barriers: the accumulator charged one fork-join;
        // charge the remaining entries.
        if (fan_out && ph.entries > 1) {
          const double extra =
              static_cast<double>(ph.entries - 1) *
              team_barrier_[static_cast<std::size_t>(widest_[b])];
          phase.time.barrier_s += extra;
          phase.time.total_s += extra;
        }
        phase.comm_s = worst_comm_s;
        phase.total_s = phase.time.total_s + phase.comm_s;
        results[b * presets_.size() + k] = std::move(phase);
      }
    }
  }

  /// The slowest rank's communication seconds in phase `p` under
  /// `binding`: pass A loads the torus, then each rank's sends are costed in
  /// the naive order and its class's collective terms added.
  double comm_stream(std::size_t p, const topo::Binding& binding,
                     Scratch& s) const {
    const std::vector<int>& node_of = binding.rank_nodes();
    const std::vector<int>& home_of = binding.home_numas();

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
            const topo::Distance distance = binding.master_distance(r, d);
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
           s.coll_terms[static_cast<std::size_t>(class_of(trace_, p, rank))]) {
        comm_s += term;
      }
      worst_comm_s = std::max(worst_comm_s, comm_s);
    }
    return worst_comm_s;
  }

  const machine::ExecModel exec_;
  const machine::CommCostModel comm_model_;
  std::span<const cg::CompileOptions> presets_;
  std::span<const topo::Binding> bindings_;
  const Trace& trace_;
  const PredictMemo& memo_;
  const int ranks_;
  const int threads_;
  std::vector<std::uint64_t> contexts_;
  std::array<double, static_cast<std::size_t>(topo::Distance::kRemoteNode) + 1>
      team_barrier_{};
  /// The widest team span of each binding.
  std::vector<topo::Distance> widest_;
};

/// Runs the engine into `out` with the checks every entry point makes.
template <typename Trace>
void replay(const machine::ProcessorConfig& cfg,
            std::span<const cg::CompileOptions> presets,
            std::span<const topo::Binding> bindings, const Trace& trace,
            const PredictMemo& memo, std::span<JobPrediction> out) {
  FS_REQUIRE(!bindings.empty(), "predict needs at least one binding");
  FS_REQUIRE(trace.ranks() == bindings.front().ranks(),
             (std::is_same_v<Trace, CollapsedTrace>
                  ? "collapsed trace rank count does not match the binding"
                  : "trace rank count does not match the binding"));
  ClassReplay(cfg, presets, bindings, trace, memo).run(out);
}

/// The predictions of every binding under every preset, binding-major.
template <typename Trace>
std::vector<JobPrediction> replay_all(
    const machine::ProcessorConfig& cfg,
    std::span<const cg::CompileOptions> presets,
    std::span<const topo::Binding> bindings, const Trace& trace,
    const PredictMemo& memo) {
  std::vector<JobPrediction> out(bindings.size() * presets.size());
  replay(cfg, presets, bindings, trace, memo, out);
  return out;
}

}  // namespace

JobPrediction predict_job(const machine::ProcessorConfig& cfg,
                          const cg::CompileOptions& opts,
                          const topo::Binding& binding,
                          const CanonicalTrace& trace,
                          const PredictMemo& memo) {
  JobPrediction out;
  replay(cfg, {&opts, 1}, {&binding, 1}, trace, memo, {&out, 1});
  return out;
}

JobPrediction predict_job(const machine::ProcessorConfig& cfg,
                          const cg::CompileOptions& opts,
                          const topo::Binding& binding,
                          const CollapsedTrace& trace,
                          const PredictMemo& memo) {
  JobPrediction out;
  replay(cfg, {&opts, 1}, {&binding, 1}, trace, memo, {&out, 1});
  return out;
}

std::vector<JobPrediction> predict_presets(
    const machine::ProcessorConfig& cfg,
    std::span<const cg::CompileOptions> presets, const topo::Binding& binding,
    const CanonicalTrace& trace, const PredictMemo& memo) {
  return replay_all(cfg, presets, {&binding, 1}, trace, memo);
}

std::vector<JobPrediction> predict_presets(
    const machine::ProcessorConfig& cfg,
    std::span<const cg::CompileOptions> presets, const topo::Binding& binding,
    const CollapsedTrace& trace, const PredictMemo& memo) {
  return replay_all(cfg, presets, {&binding, 1}, trace, memo);
}

std::vector<JobPrediction> predict_presets(
    const machine::ProcessorConfig& cfg,
    std::span<const cg::CompileOptions> presets,
    std::span<const topo::Binding> bindings, const CanonicalTrace& trace,
    const PredictMemo& memo) {
  return replay_all(cfg, presets, bindings, trace, memo);
}

std::vector<JobPrediction> predict_presets(
    const machine::ProcessorConfig& cfg,
    std::span<const cg::CompileOptions> presets,
    std::span<const topo::Binding> bindings, const CollapsedTrace& trace,
    const PredictMemo& memo) {
  return replay_all(cfg, presets, bindings, trace, memo);
}

}  // namespace fibersim::trace
