#include "trace/serialize.hpp"

#include <cmath>
#include <sstream>

#include "common/error.hpp"
#include "common/json.hpp"

namespace fibersim::trace {

namespace {

/// Minimal compact JSON writer.
class JsonWriter {
 public:
  JsonWriter() = default;

  void open(char bracket) {
    maybe_comma();
    os_ << bracket;
    fresh_ = true;
  }
  void close(char bracket) {
    os_ << bracket;
    fresh_ = false;
  }
  void key(const std::string& name) {
    maybe_comma();
    os_ << '"' << name << "\":";
    fresh_ = true;  // value follows immediately, no comma
  }
  void value(double v) {
    maybe_comma();
    FS_REQUIRE(std::isfinite(v), "cannot serialise a non-finite number");
    std::ostringstream tmp;
    tmp.precision(17);
    tmp << v;
    os_ << tmp.str();
  }
  void value(std::uint64_t v) {
    maybe_comma();
    os_ << v;
  }
  void value(int v) {
    maybe_comma();
    os_ << v;
  }
  void value(bool v) {
    maybe_comma();
    os_ << (v ? "true" : "false");
  }
  void value(const std::string& v) {
    maybe_comma();
    os_ << '"' << json_escape(v) << '"';
  }

  std::string str() const { return os_.str(); }

 private:
  void maybe_comma() {
    if (!fresh_) os_ << ',';
    fresh_ = false;
  }

  std::ostringstream os_;
  bool fresh_ = true;
};

void write_work(JsonWriter& w, const isa::WorkEstimate& work) {
  w.open('{');
  w.key("flops");
  w.value(work.flops);
  w.key("load_bytes");
  w.value(work.load_bytes);
  w.key("store_bytes");
  w.value(work.store_bytes);
  w.key("int_ops");
  w.value(work.int_ops);
  w.key("branches");
  w.value(work.branches);
  w.key("iterations");
  w.value(work.iterations);
  w.key("vectorizable_fraction");
  w.value(work.vectorizable_fraction);
  w.key("fma_fraction");
  w.value(work.fma_fraction);
  w.key("dep_chain_ops");
  w.value(work.dep_chain_ops);
  w.key("gather_fraction");
  w.value(work.gather_fraction);
  w.key("branch_miss_rate");
  w.value(work.branch_miss_rate);
  w.key("shared_access_fraction");
  w.value(work.shared_access_fraction);
  w.key("working_set_bytes");
  w.value(work.working_set_bytes);
  w.key("dram_traffic_bytes");
  w.value(work.dram_traffic_bytes);
  w.key("inner_trip_count");
  w.value(work.inner_trip_count);
  w.close('}');
}

void write_comm(JsonWriter& w, const mp::CommLog& comm) {
  w.open('{');
  w.key("p2p");
  w.open('[');
  for (const auto& [dst, traffic] : comm.sends) {
    w.open('{');
    w.key("dst");
    w.value(dst);
    w.key("messages");
    w.value(traffic.messages);
    w.key("bytes");
    w.value(traffic.bytes);
    w.close('}');
  }
  w.close(']');
  w.key("collectives");
  w.open('[');
  for (const auto& [kind, traffic] : comm.collectives) {
    w.open('{');
    w.key("kind");
    w.value(std::string(mp::collective_name(kind)));
    w.key("calls");
    w.value(traffic.calls);
    w.key("bytes");
    w.value(traffic.bytes);
    w.close('}');
  }
  w.close(']');
  w.close('}');
}

}  // namespace

std::string to_json(const JobTrace& trace) {
  JsonWriter w;
  w.open('[');
  for (const RankTrace& rank_trace : trace) {
    w.open('[');
    for (const PhaseRecord& phase : rank_trace) {
      w.open('{');
      w.key("name");
      w.value(phase.name);
      w.key("parallel");
      w.value(phase.parallel);
      w.key("timed");
      w.value(phase.timed);
      w.key("entries");
      w.value(phase.entries);
      w.key("work");
      write_work(w, phase.work);
      w.key("comm");
      write_comm(w, phase.comm);
      w.close('}');
    }
    w.close(']');
  }
  w.close(']');
  return w.str();
}

std::string to_json(const JobPrediction& prediction) {
  JsonWriter w;
  w.open('{');
  w.key("total_s");
  w.value(prediction.total_s);
  w.key("compute_s");
  w.value(prediction.compute_s);
  w.key("memory_s");
  w.value(prediction.memory_s);
  w.key("comm_s");
  w.value(prediction.comm_s);
  w.key("barrier_s");
  w.value(prediction.barrier_s);
  w.key("setup_s");
  w.value(prediction.setup_s);
  w.key("flops");
  w.value(prediction.flops);
  w.key("dram_bytes");
  w.value(prediction.dram_bytes);
  w.key("gflops");
  w.value(prediction.gflops());
  w.key("phases");
  w.open('[');
  for (const PhasePrediction& phase : prediction.phases) {
    w.open('{');
    w.key("name");
    w.value(phase.name);
    w.key("timed");
    w.value(phase.timed);
    w.key("total_s");
    w.value(phase.total_s);
    w.key("compute_s");
    w.value(phase.time.compute_s);
    w.key("memory_s");
    w.value(phase.time.memory_s);
    w.key("barrier_s");
    w.value(phase.time.barrier_s);
    w.key("comm_s");
    w.value(phase.comm_s);
    w.key("limiter");
    w.value(std::string(machine::limiter_name(phase.time.limiter)));
    w.close('}');
  }
  w.close(']');
  w.close('}');
  return w.str();
}

}  // namespace fibersim::trace
