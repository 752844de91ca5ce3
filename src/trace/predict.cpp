#include "trace/predict.hpp"

#include <algorithm>
#include <utility>

#include "cg/codegen_model.hpp"
#include "common/cancel.hpp"
#include "common/error.hpp"
#include "machine/comm_model.hpp"

namespace fibersim::trace {

namespace {

/// Per-phase point-to-point communication model. Two passes: add_flow()
/// aggregates every inter-node flow of the phase onto the torus (per
/// node-pair; LinkContention routes each pair once and computes its foreign
/// bytes at seal()), then each send is costed with its distance class —
/// torus hop latency + injection bandwidth + contended-link share (a walk of
/// the source node's short flow chain) for remote sends, CMG-ring hop
/// latency within a socket, the flat class latencies otherwise. Callers pass
/// each send's rank distance in, so a caller that lists the phase's sends
/// once classifies each send once, and may pass a remote send's node pair
/// in too.
class PhaseComm {
 public:
  PhaseComm(const machine::CommCostModel& model, const topo::Binding& binding)
      : model_(model), binding_(binding), contention_(&model.torus()) {}

  void add_flow(int src_node, int dst_node, std::uint64_t bytes) {
    contention_.add_flow(src_node, dst_node, bytes);
  }
  void add_rank_flows(int rank, const mp::CommLog& comm) {
    for (const auto& [dst, traffic] : comm.sends) {
      if (binding_.rank_distance(rank, dst) == topo::Distance::kRemoteNode) {
        add_flow(binding_.node_of(rank), binding_.node_of(dst), traffic.bytes);
      }
    }
  }
  void seal() { contention_.seal(); }

  /// Seconds of one send between two nodes.
  double remote_seconds(int src_node, int dst_node, std::uint64_t messages,
                        std::uint64_t bytes) const {
    const int hops = model_.torus().hops(src_node, dst_node);
    const double foreign =
        static_cast<double>(contention_.foreign_bytes(src_node, dst_node));
    return static_cast<double>(messages) *
               model_.remote_latency_seconds(hops) +
           static_cast<double>(bytes) /
               model_.bandwidth(topo::Distance::kRemoteNode) +
           foreign / model_.link_bandwidth();
  }

  double send_seconds(int rank, int dst, topo::Distance d,
                      std::uint64_t messages, std::uint64_t bytes) const {
    switch (d) {
      case topo::Distance::kRemoteNode:
        return remote_seconds(binding_.node_of(rank), binding_.node_of(dst),
                              messages, bytes);
      case topo::Distance::kSameSocket:
        return static_cast<double>(messages) *
                   model_.intra_socket_latency_seconds(
                       binding_.thread_numa(rank, 0),
                       binding_.thread_numa(dst, 0)) +
               static_cast<double>(bytes) / model_.bandwidth(d);
      default:
        return static_cast<double>(messages) * model_.latency_seconds(d) +
               static_cast<double>(bytes) / model_.bandwidth(d);
    }
  }

  /// Point-to-point seconds of one rank (map iteration: ascending dst).
  double rank_p2p_seconds(int rank, const mp::CommLog& comm) const {
    double seconds = 0.0;
    for (const auto& [dst, traffic] : comm.sends) {
      seconds += send_seconds(rank, dst, binding_.rank_distance(rank, dst),
                              traffic.messages, traffic.bytes);
    }
    return seconds;
  }

 private:
  const machine::CommCostModel& model_;
  const topo::Binding& binding_;
  machine::LinkContention contention_;
};

/// One cost term per collective kind (per_call x calls, in map order).
/// Collective cost depends only on the log and the job-wide geometry, so a
/// whole equivalence class shares one term vector.
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

/// Communication seconds of one rank in one phase (naive path).
double rank_comm_seconds(const PhaseComm& phase_comm,
                         const machine::CommCostModel& model,
                         const topo::Binding& binding, topo::Distance span,
                         int rank, const mp::CommLog& comm) {
  double seconds = phase_comm.rank_p2p_seconds(rank, comm);
  for (const double term : collective_terms(model, binding.ranks(), span, comm)) {
    seconds += term;
  }
  return seconds;
}

/// Fold one evaluated phase into the job aggregates (shared by the naive path
/// and the class-replay engine).
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

}  // namespace

JobPrediction predict_job(const machine::ProcessorConfig& cfg,
                          const cg::CompileOptions& opts,
                          const topo::Binding& binding, const JobTrace& trace) {
  FS_REQUIRE(static_cast<int>(trace.size()) == binding.ranks(),
             "trace rank count does not match the binding");
  FS_REQUIRE(!trace.empty(), "empty trace");
  const std::size_t n_phases = trace.front().size();
  for (const RankTrace& rt : trace) {
    FS_REQUIRE(rt.size() == n_phases,
               "ranks recorded different phase sequences");
  }

  const machine::ExecModel exec(cfg);
  const machine::CommCostModel comm_model(cfg, binding.topology().nodes());
  const int threads = binding.threads_per_rank();
  const topo::Distance job_span = binding.job_span();

  JobPrediction out;
  out.phases.reserve(n_phases);

  for (std::size_t p = 0; p < n_phases; ++p) {
    cancel::checkpoint();  // deadline shed between phases, not mid-phase
    const std::string& phase_name = trace.front()[p].name;
    const bool parallel = trace.front()[p].parallel;

    // Pass A: aggregate the phase's inter-node traffic for contention.
    PhaseComm phase_comm(comm_model, binding);
    for (int rank = 0; rank < binding.ranks(); ++rank) {
      phase_comm.add_rank_flows(rank,
                                trace[static_cast<std::size_t>(rank)][p].comm);
    }
    phase_comm.seal();

    std::vector<machine::ThreadWork> thread_work;
    thread_work.reserve(trace.size() * static_cast<std::size_t>(threads));
    double worst_comm_s = 0.0;

    for (int rank = 0; rank < binding.ranks(); ++rank) {
      const PhaseRecord& rec = trace[static_cast<std::size_t>(rank)][p];
      FS_REQUIRE(rec.name == phase_name,
                 "ranks disagree on phase order: " + rec.name + " vs " +
                     phase_name);
      const isa::WorkEstimate generated = cg::apply(opts, rec.work);

      if (parallel && threads > 1) {
        const isa::WorkEstimate share =
            generated.scaled(1.0 / static_cast<double>(threads));
        for (int t = 0; t < threads; ++t) {
          machine::ThreadWork tw;
          tw.work = share;
          tw.rank = rank;
          tw.numa = binding.thread_numa(rank, t);
          tw.home_numa = binding.home_numa(rank);
          tw.team_size = threads;
          tw.team_span = binding.team_span(rank);
          thread_work.push_back(std::move(tw));
        }
      } else {
        machine::ThreadWork tw;
        tw.work = generated;
        tw.rank = rank;
        tw.numa = binding.thread_numa(rank, 0);
        tw.home_numa = binding.home_numa(rank);
        // Serial phases fork no team: no barrier is charged.
        tw.team_size = 1;
        tw.team_span = topo::Distance::kSameNuma;
        thread_work.push_back(std::move(tw));
      }

      worst_comm_s = std::max(
          worst_comm_s, rank_comm_seconds(phase_comm, comm_model, binding,
                                          job_span, rank, rec.comm));
    }

    PhasePrediction phase;
    phase.name = phase_name;
    phase.timed = trace.front()[p].timed;
    phase.time = exec.evaluate_phase(thread_work);
    // Per-entry team barriers: one fork-join per phase entry.
    const std::uint64_t entries = trace.front()[p].entries;
    if (parallel && threads > 1 && entries > 1) {
      // evaluate_phase charged one barrier; charge the remaining entries.
      topo::Distance widest = topo::Distance::kSameNuma;
      for (int rank = 0; rank < binding.ranks(); ++rank) {
        widest = std::max(widest, binding.team_span(rank));
      }
      phase.time.barrier_s +=
          static_cast<double>(entries - 1) * exec.barrier_seconds(threads, widest);
      phase.time.total_s +=
          static_cast<double>(entries - 1) * exec.barrier_seconds(threads, widest);
    }
    phase.comm_s = worst_comm_s;
    phase.total_s = phase.time.total_s + phase.comm_s;

    accumulate_phase(out, std::move(phase));
  }
  return out;
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
template <typename Fn>
void for_each_send(const CanonicalTrace& trace, std::size_t p, int rank,
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
                   Fn&& fn) {
  // One scratch buffer per thread keeps the per-rank call allocation-free.
  thread_local std::vector<CollapsedTrace::RankSend> sends;
  trace.rank_sends(p, rank, &sends);
  for (const CollapsedTrace::RankSend& s : sends) {
    fn(s.dst, s.messages, s.bytes);
  }
}

/// The class-replay engine behind both class-compressed predict_job
/// overloads. Stage 1 costs each equivalence class once (codegen, thread
/// share, exec-model work evaluation, collective terms); stage 2 replays
/// placement and point-to-point costs rank-major in the naive path's order,
/// so every output bit matches predict_job(JobTrace) on the expanded trace.
template <typename Trace>
JobPrediction replay_classes(const machine::ProcessorConfig& cfg,
                             const cg::CompileOptions& opts,
                             const topo::Binding& binding, const Trace& trace,
                             const PredictMemo& memo) {
  const machine::ExecModel exec(cfg);
  const machine::CommCostModel comm_model(cfg, binding.topology().nodes());
  const int ranks = binding.ranks();
  const int threads = binding.threads_per_rank();
  // The stage-1 memo context, registered once per predict; the predict's
  // lookups (one per class per phase) are counted in one add.
  std::uint64_t context = 0;
  if (memo.stage1 != nullptr) {
    context = memo.stage1->context_token(cfg, opts);
    std::size_t lookups = 0;
    for (const auto& ph : trace.phases()) lookups += ph.classes.size();
    memo.stage1->count_lookups(lookups);
  }

  // Placement tables: computed once per sweep point and reused by every
  // phase (the naive path re-derives them per thread entry per phase).
  const std::size_t nt = static_cast<std::size_t>(ranks) *
                         static_cast<std::size_t>(threads);
  std::vector<int> numa_of(nt);
  std::vector<int> home_of(ranks);
  std::vector<double> team_barrier(ranks);
  topo::Distance widest = topo::Distance::kSameNuma;
  for (int rank = 0; rank < ranks; ++rank) {
    for (int t = 0; t < threads; ++t) {
      numa_of[static_cast<std::size_t>(rank) * threads + t] =
          binding.thread_numa(rank, t);
    }
    home_of[static_cast<std::size_t>(rank)] = binding.home_numa(rank);
    const topo::Distance span = binding.team_span(rank);
    team_barrier[static_cast<std::size_t>(rank)] =
        exec.barrier_seconds(threads, span);
    widest = std::max(widest, span);
  }
  const topo::Distance job_span = binding.job_span();

  JobPrediction out;
  out.phases.reserve(trace.phase_count());
  std::vector<machine::ThreadRef> refs;
  refs.reserve(nt);

  struct ClassEval {
    machine::WorkEval eval;
    std::vector<double> coll_terms;
  };
  std::vector<ClassEval> class_evals;

  // The phase's sends, rank-major and ascending by dst within a rank; rank
  // r's run is [send_offsets[r], send_offsets[r + 1]). A remote send also
  // carries its node pair, looked up once here. Reused across phases and
  // predictions on this thread.
  struct Send {
    int dst;
    topo::Distance distance;
    int src_node;  // remote sends only
    int dst_node;  // remote sends only
    std::uint64_t messages;
    std::uint64_t bytes;
  };
  thread_local std::vector<Send> sends;
  thread_local std::vector<std::size_t> send_offsets;
  send_offsets.assign(static_cast<std::size_t>(ranks) + 1, 0);

  for (std::size_t p = 0; p < trace.phase_count(); ++p) {
    cancel::checkpoint();  // deadline shed between phases, not mid-phase
    const auto& ph = trace.phases()[p];
    const bool fan_out = ph.parallel && threads > 1;

    // Stage 1 — per equivalence class, not per rank. Work and collective
    // logs are identical within a class, so the class record stands for
    // every member bitwise.
    // A fanned-out phase evaluates each thread's 1/threads share.
    const int share = fan_out ? threads : 1;
    const std::uint64_t phase_context =
        machine::EvalCache::with_share(context, share);
    class_evals.clear();
    class_evals.reserve(ph.classes.size());
    for (const auto& cls : ph.classes) {
      ClassEval ce;
      ce.eval = memo.stage1 != nullptr
                    ? memo.stage1->work_eval(exec, phase_context,
                                             cls.record.work, cls.work_hash)
                    : machine::EvalCache::evaluate(exec, opts, share,
                                                   cls.record.work);
      ce.coll_terms =
          collective_terms(comm_model, ranks, job_span, cls.record.comm);
      class_evals.push_back(std::move(ce));
    }

    // Pass A: list every rank's sends once (with their rank distance) and
    // aggregate the phase's inter-node traffic for contention, in the same
    // rank-major order as the naive path (integer accumulation, so the order
    // only matters for auditability).
    PhaseComm phase_comm(comm_model, binding);
    sends.clear();
    for (int rank = 0; rank < ranks; ++rank) {
      const int src_node = binding.node_of(rank);
      for_each_send(trace, p, rank,
                    [&](int dst, std::uint64_t messages, std::uint64_t bytes) {
                      const topo::Distance d = binding.rank_distance(rank, dst);
                      Send s{dst, d, src_node, src_node, messages, bytes};
                      if (d == topo::Distance::kRemoteNode) {
                        s.dst_node = binding.node_of(dst);
                        phase_comm.add_flow(src_node, s.dst_node, bytes);
                      }
                      sends.push_back(s);
                    });
      send_offsets[static_cast<std::size_t>(rank) + 1] = sends.size();
    }
    phase_comm.seal();

    // Stage 2 — cheap placement replay in the naive rank-major order, so the
    // accumulation sequence (and therefore every output bit) matches the
    // naive path exactly.
    refs.clear();
    double worst_comm_s = 0.0;
    for (int rank = 0; rank < ranks; ++rank) {
      const ClassEval& ce =
          class_evals[static_cast<std::size_t>(class_of(trace, p, rank))];
      const std::size_t r = static_cast<std::size_t>(rank);
      if (fan_out) {
        for (int t = 0; t < threads; ++t) {
          refs.push_back(machine::ThreadRef{&ce.eval,
                                            numa_of[r * threads + t],
                                            home_of[r], team_barrier[r]});
        }
      } else {
        refs.push_back(machine::ThreadRef{&ce.eval, numa_of[r * threads],
                                          home_of[r], 0.0});
      }
      double comm_s = 0.0;
      for (std::size_t k = send_offsets[r]; k < send_offsets[r + 1]; ++k) {
        const Send& s = sends[k];
        comm_s += s.distance == topo::Distance::kRemoteNode
                      ? phase_comm.remote_seconds(s.src_node, s.dst_node,
                                                  s.messages, s.bytes)
                      : phase_comm.send_seconds(rank, s.dst, s.distance,
                                                s.messages, s.bytes);
      }
      for (const double term : ce.coll_terms) comm_s += term;
      worst_comm_s = std::max(worst_comm_s, comm_s);
    }

    PhasePrediction phase;
    phase.name = ph.name;
    phase.timed = ph.timed;
    phase.time = exec.evaluate_phase_refs(refs);
    // Per-entry team barriers: evaluate_phase_refs charged one fork-join;
    // charge the remaining entries.
    if (fan_out && ph.entries > 1) {
      const double extra = static_cast<double>(ph.entries - 1) *
                           exec.barrier_seconds(threads, widest);
      phase.time.barrier_s += extra;
      phase.time.total_s += extra;
    }
    phase.comm_s = worst_comm_s;
    phase.total_s = phase.time.total_s + phase.comm_s;

    accumulate_phase(out, std::move(phase));
  }
  return out;
}

}  // namespace

JobPrediction predict_job(const machine::ProcessorConfig& cfg,
                          const cg::CompileOptions& opts,
                          const topo::Binding& binding,
                          const CanonicalTrace& trace,
                          const PredictMemo& memo) {
  FS_REQUIRE(trace.ranks() == binding.ranks(),
             "trace rank count does not match the binding");
  return replay_classes(cfg, opts, binding, trace, memo);
}

JobPrediction predict_job(const machine::ProcessorConfig& cfg,
                          const cg::CompileOptions& opts,
                          const topo::Binding& binding,
                          const CollapsedTrace& trace,
                          const PredictMemo& memo) {
  FS_REQUIRE(trace.ranks() == binding.ranks(),
             "collapsed trace rank count does not match the binding");
  return replay_classes(cfg, opts, binding, trace, memo);
}

}  // namespace fibersim::trace
