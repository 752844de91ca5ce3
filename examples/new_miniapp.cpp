// New miniapp: how to evaluate your *own* kernel with the framework,
// without touching the registry. Implements a daxpy-like streaming kernel
// (STREAM triad with a halo'd 1-D domain), runs it natively under the
// message runtime, and predicts its time on all three processors.
//
//   ./examples/new_miniapp
#include <cmath>
#include <iostream>

#include "common/aligned_buffer.hpp"
#include "common/string_util.hpp"
#include "common/table.hpp"
#include "core/runner.hpp"
#include "miniapps/halo_grid.hpp"
#include "miniapps/miniapp.hpp"
#include "mp/cart.hpp"
#include "mp/job.hpp"
#include "rt/thread_team.hpp"
#include "trace/predict.hpp"

using namespace fibersim;

namespace {

/// STREAM-triad over a 1-D decomposed vector with a smoothing step that
/// needs a halo — the smallest possible "real" miniapp.
class TriadMini final : public apps::Miniapp {
 public:
  std::string name() const override { return "triad"; }
  std::string description() const override {
    return "STREAM triad + 3-point smoother (user-defined example)";
  }

  apps::RunResult run(const apps::RunContext& ctx) const override {
    apps::validate_context(ctx);
    const std::int64_t global_n = 1 << 16;
    const mp::CartGrid grid(mp::dims_create(ctx.comm->size(), 1), true);
    const apps::HaloGrid<1> hg(grid, ctx.comm->rank(), {global_n}, 1);

    AlignedVector<double> a(static_cast<std::size_t>(hg.field_size(1)), 0.0);
    AlignedVector<double> b(a.size(), 1.5);
    AlignedVector<double> c(a.size(), 0.5);

    double checksum = 0.0;
    for (int it = 0; it < ctx.iterations; ++it) {
      {
        trace::Recorder::Scoped phase(*ctx.recorder, "triad");
        ctx.team->parallel_for(0, hg.local(0),
                               [&](std::int64_t lo, std::int64_t hi, int) {
                                 for (std::int64_t i = lo; i < hi; ++i) {
                                   const auto s = static_cast<std::size_t>(
                                       hg.site_index({static_cast<int>(i)}));
                                   a[s] = b[s] + 3.0 * c[s];
                                 }
                               });
        ctx.recorder->add_work(triad_work(hg));
      }
      {
        trace::Recorder::Scoped phase(*ctx.recorder, "smooth");
        hg.exchange(*ctx.comm, std::span<double>(a.data(), a.size()), 1);
        checksum = ctx.team->parallel_reduce_sum(
            0, hg.local(0), [&](std::int64_t i) {
              const auto s = static_cast<std::size_t>(
                  hg.site_index({static_cast<int>(i)}));
              return (a[s - 1] + 2.0 * a[s] + a[s + 1]) * 0.25;
            });
        ctx.recorder->add_work(smooth_work(hg));
        checksum = ctx.comm->allreduce_sum(checksum);
      }
    }

    apps::RunResult result;
    // Every element is b + 3c = 3.0; the smoother preserves the sum of a
    // constant field, so the global sum must be exactly 3 * N.
    result.check_value = checksum;
    result.check_description = "smoothed global sum (expect 3*N)";
    result.verified =
        std::fabs(checksum - 3.0 * static_cast<double>(global_n)) < 1e-6;
    return result;
  }

 private:
  static isa::WorkEstimate triad_work(const apps::HaloGrid<1>& hg) {
    isa::WorkEstimate w;
    const double n = static_cast<double>(hg.volume());
    w.flops = n * 2.0;
    w.load_bytes = n * 16.0;
    w.store_bytes = n * 8.0;
    w.iterations = n;
    w.vectorizable_fraction = 1.0;
    w.fma_fraction = 1.0;
    w.dram_traffic_bytes = n * 24.0;  // pure streaming
    w.working_set_bytes = n * 24.0;
    w.inner_trip_count = n;
    return w;
  }

  static isa::WorkEstimate smooth_work(const apps::HaloGrid<1>& hg) {
    isa::WorkEstimate w;
    const double n = static_cast<double>(hg.volume());
    w.flops = n * 5.0;
    w.load_bytes = n * 24.0;
    w.iterations = n;
    w.vectorizable_fraction = 1.0;
    w.fma_fraction = 0.6;
    w.dep_chain_ops = 0.25;
    w.dram_traffic_bytes = n * 8.0;
    w.working_set_bytes = n * 8.0;
    w.inner_trip_count = n;
    return w;
  }
};

}  // namespace

int main() {
  const TriadMini app;
  std::cout << "user-defined miniapp: " << app.description() << "\n\n";

  // Run natively once (4 ranks x 2 threads) and capture the trace.
  const int ranks = 4;
  const int threads = 2;
  trace::JobTrace job_trace(ranks);
  bool verified = true;
  mp::Job::run(ranks, [&](mp::Comm& comm) {
    rt::ThreadTeam team(threads);
    trace::Recorder rec(&comm);
    apps::RunContext ctx;
    ctx.comm = &comm;
    ctx.team = &team;
    ctx.recorder = &rec;
    ctx.iterations = 4;
    const apps::RunResult res = app.run(ctx);
    if (!res.verified) verified = false;
    if (comm.rank() == 0) {
      std::cout << "native check: " << res.check_description << " = "
                << strfmt("%.1f", res.check_value)
                << (res.verified ? " (ok)\n\n" : " (FAILED)\n\n");
    }
    job_trace[static_cast<std::size_t>(comm.rank())] = rec.phases();
  });

  // Predict the same execution on each processor, from its canonical form.
  const auto canonical = trace::CanonicalTrace::build(job_trace);
  TextTable table({"processor", "time ms", "GFLOPS", "bw-bound phases"});
  for (const auto& proc : machine::comparison_set()) {
    const topo::Topology topology(proc.shape);
    const auto binding =
        topo::Binding::make(topology, ranks, threads,
                            topo::RankAllocPolicy::kBlock,
                            topo::ThreadBindPolicy::compact());
    const auto pred = trace::predict_job(
        proc, cg::CompileOptions::simd_sched(), binding, canonical);
    int mem_bound = 0;
    for (const auto& phase : pred.phases) {
      if (phase.time.limiter == machine::Limiter::kMemory) ++mem_bound;
    }
    table.add_row({proc.name, strfmt("%.4f", pred.total_s * 1e3),
                   strfmt("%.1f", pred.gflops()),
                   strfmt("%d/%zu", mem_bound, pred.phases.size())});
  }
  table.print(std::cout);
  return verified ? 0 : 1;
}
