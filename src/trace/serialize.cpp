#include "trace/serialize.hpp"

#include "common/json.hpp"

namespace fibersim::trace {

namespace {

constexpr auto kCompact = json::Layout::kCompact;

void write_work(json::Emitter& w, const isa::WorkEstimate& work) {
  w.object("work", kCompact);
  isa::for_each_field(work,
                      [&](const char* name, double v) { w.num(name, v); });
  w.close();
}

void write_comm(json::Emitter& w, const mp::CommLog& comm) {
  w.object("comm", kCompact);
  w.array("p2p", kCompact);
  for (const auto& [dst, traffic] : comm.sends) {
    w.object(kCompact);
    w.i64("dst", dst);
    w.u64("messages", traffic.messages);
    w.u64("bytes", traffic.bytes);
    w.close();
  }
  w.close();
  w.array("collectives", kCompact);
  for (const auto& [kind, traffic] : comm.collectives) {
    w.object(kCompact);
    w.str("kind", mp::collective_name(kind));
    w.u64("calls", traffic.calls);
    w.u64("bytes", traffic.bytes);
    w.close();
  }
  w.close();
  w.close();
}

}  // namespace

std::string to_json(const JobTrace& trace) {
  json::Emitter w;
  w.array(kCompact);
  for (const RankTrace& rank_trace : trace) {
    w.array(kCompact);
    for (const PhaseRecord& phase : rank_trace) {
      w.object(kCompact);
      w.str("name", phase.name);
      w.boolean("parallel", phase.parallel);
      w.boolean("timed", phase.timed);
      w.u64("entries", phase.entries);
      write_work(w, phase.work);
      write_comm(w, phase.comm);
      w.close();
    }
    w.close();
  }
  return std::move(w).finish();
}

std::string to_json(const JobPrediction& prediction) {
  json::Emitter w;
  w.object(kCompact);
  w.num("total_s", prediction.total_s);
  w.num("compute_s", prediction.compute_s);
  w.num("memory_s", prediction.memory_s);
  w.num("comm_s", prediction.comm_s);
  w.num("barrier_s", prediction.barrier_s);
  w.num("setup_s", prediction.setup_s);
  w.num("flops", prediction.flops);
  w.num("dram_bytes", prediction.dram_bytes);
  w.num("gflops", prediction.gflops());
  w.array("phases", kCompact);
  for (const PhasePrediction& phase : prediction.phases) {
    w.object(kCompact);
    w.str("name", phase.name);
    w.boolean("timed", phase.timed);
    w.num("total_s", phase.total_s);
    w.num("compute_s", phase.time.compute_s);
    w.num("memory_s", phase.time.memory_s);
    w.num("barrier_s", phase.time.barrier_s);
    w.num("comm_s", phase.comm_s);
    w.str("limiter", machine::limiter_name(phase.time.limiter));
    w.close();
  }
  return std::move(w).finish();
}

}  // namespace fibersim::trace
