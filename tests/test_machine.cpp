// Unit and property tests for the machine models: processor configs, cache
// locality, execution, communication cost, power, roofline.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "core/journal.hpp"
#include "machine/calibrate.hpp"
#include "machine/comm_model.hpp"
#include "machine/descriptor.hpp"
#include "machine/exec_model.hpp"
#include "machine/memory_model.hpp"
#include "machine/network_model.hpp"
#include "machine/power_model.hpp"
#include "machine/processor.hpp"
#include "machine/registry.hpp"
#include "machine/roofline.hpp"
#include "oracle_predict.hpp"

namespace fibersim::machine {
namespace {

TEST(Processor, BuiltinsValidate) {
  for (const auto& cfg : comparison_set()) {
    EXPECT_NO_THROW(cfg.validate()) << cfg.name;
  }
}

TEST(Processor, A64fxHeadlineNumbers) {
  const ProcessorConfig cfg = a64fx();
  EXPECT_EQ(cfg.cores(), 48);
  EXPECT_EQ(cfg.shape.numa_per_node(), 4);
  // 8 lanes x 2 pipes x 2 flops = 32 flop/cycle -> 3.072 TF at 2 GHz.
  EXPECT_DOUBLE_EQ(cfg.vec_flops_per_cycle(), 32.0);
  EXPECT_NEAR(cfg.peak_flops_node() * 1e-12, 3.072, 1e-9);
  EXPECT_NEAR(cfg.node_mem_bw() * 1e-9, 1024.0, 1e-9);
  EXPECT_NEAR(cfg.balance(), 3.0, 1e-9);
}

TEST(Processor, BroadwellReferencePoint) {
  const ProcessorConfig cfg = broadwell_dual();
  EXPECT_NO_THROW(cfg.validate());
  EXPECT_EQ(cfg.cores(), 36);
  // AVX2: 4 lanes x 2 pipes x 2 = 16 flop/cycle.
  EXPECT_DOUBLE_EQ(cfg.vec_flops_per_cycle(), 16.0);
  EXPECT_EQ(extended_comparison_set().size(), comparison_set().size() + 1);
}

TEST(Processor, SkylakeAndTx2Shapes) {
  EXPECT_EQ(skylake8168_dual().cores(), 48);
  EXPECT_EQ(skylake8168_dual().shape.numa_per_node(), 2);
  EXPECT_EQ(thunderx2_dual().cores(), 64);
  // NEON 128-bit: 2 lanes x 2 pipes x 2 = 8 flop/cycle.
  EXPECT_DOUBLE_EQ(thunderx2_dual().vec_flops_per_cycle(), 8.0);
}

TEST(Processor, PowerModes) {
  const ProcessorConfig base = a64fx();
  const ProcessorConfig boost = with_power_mode(base, PowerMode::kBoost);
  EXPECT_NEAR(boost.freq_hz, 2.2e9, 1e3);
  const ProcessorConfig eco = with_power_mode(base, PowerMode::kEco);
  EXPECT_EQ(eco.fp_pipes, 1);
  EXPECT_LT(eco.watts_per_core_active, base.watts_per_core_active);
  // Non-A64FX processors ignore the modes.
  const ProcessorConfig skx = with_power_mode(skylake8168_dual(), PowerMode::kBoost);
  EXPECT_EQ(skx.freq_hz, skylake8168_dual().freq_hz);
}

TEST(Processor, ValidateCatchesBrokenConfigs) {
  ProcessorConfig cfg = a64fx();
  cfg.freq_hz = 0.0;
  EXPECT_THROW(cfg.validate(), Error);
  cfg = a64fx();
  cfg.mem_overlap = 1.5;
  EXPECT_THROW(cfg.validate(), Error);
  cfg = a64fx();
  cfg.numa_mem_bw = 0.0;
  EXPECT_THROW(cfg.validate(), Error);
}

// ----- locality classifier -----

TEST(Locality, FitsInL1) {
  const auto split = classify_locality(1000.0, a64fx());
  EXPECT_DOUBLE_EQ(split.l1_fraction, 1.0);
  EXPECT_DOUBLE_EQ(split.mem_fraction, 0.0);
}

TEST(Locality, StreamingGoesToDram) {
  const auto split = classify_locality(0.0, a64fx());
  EXPECT_DOUBLE_EQ(split.mem_fraction, 1.0);
}

TEST(Locality, HugeWorkingSetIsMostlyDram) {
  const auto split = classify_locality(1e9, a64fx());
  EXPECT_GT(split.mem_fraction, 0.99);
}

TEST(Locality, FractionsSumToOne) {
  for (double ws : {1.0, 1e3, 1e4, 1e5, 1e6, 1e7, 1e9}) {
    const auto split = classify_locality(ws, a64fx());
    EXPECT_NEAR(split.l1_fraction + split.l2_fraction + split.mem_fraction, 1.0,
                1e-12)
        << "ws=" << ws;
    EXPECT_GE(split.l1_fraction, 0.0);
    EXPECT_GE(split.l2_fraction, 0.0);
    EXPECT_GE(split.mem_fraction, 0.0);
  }
}

TEST(Locality, MemFractionMonotoneInWorkingSet) {
  double prev = 0.0;
  for (double ws = 1e3; ws < 1e9; ws *= 2.0) {
    const double mem = classify_locality(ws, a64fx()).mem_fraction;
    EXPECT_GE(mem, prev - 1e-12);
    prev = mem;
  }
}

TEST(Locality, CacheTransferSeconds) {
  const ProcessorConfig cfg = a64fx();
  EXPECT_DOUBLE_EQ(cache_transfer_seconds(0.0, cfg.l1, cfg.freq_hz), 0.0);
  const double t = cache_transfer_seconds(1280.0, cfg.l1, cfg.freq_hz);
  EXPECT_NEAR(t, 10.0 / cfg.freq_hz, 1e-18);
}

// ----- execution model -----

isa::WorkEstimate vec_work() {
  isa::WorkEstimate w;
  w.flops = 3.2e6;
  w.load_bytes = 1e6;
  w.iterations = 1e5;
  w.vectorizable_fraction = 1.0;
  w.fma_fraction = 1.0;
  w.inner_trip_count = 1024.0;
  w.working_set_bytes = 1e4;
  return w;
}

TEST(ExecModel, VectorPeakIsApproached) {
  const ExecModel model(a64fx());
  const double cycles = model.compute_cycles(vec_work());
  // 3.2e6 flops at 32 flop/cycle = 1e5 cycles (up to lane-tail effects).
  EXPECT_NEAR(cycles, 1e5, 5e3);
}

TEST(ExecModel, ScalarCodeIsMuchSlower) {
  const ExecModel model(a64fx());
  isa::WorkEstimate w = vec_work();
  w.vectorizable_fraction = 0.0;
  EXPECT_GT(model.compute_cycles(w), 10.0 * model.compute_cycles(vec_work()));
}

TEST(ExecModel, ComputeCyclesMonotoneInVectorFraction) {
  const ExecModel model(a64fx());
  double prev = 1e18;
  for (double vf : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    isa::WorkEstimate w = vec_work();
    w.vectorizable_fraction = vf;
    const double c = model.compute_cycles(w);
    EXPECT_LE(c, prev + 1e-9);
    prev = c;
  }
}

TEST(ExecModel, ChainBoundsCompute) {
  const ExecModel model(a64fx());
  isa::WorkEstimate w = vec_work();
  w.dep_chain_ops = 4.0;
  w.vectorizable_fraction = 0.0;
  const double chain = model.chain_cycles(w);
  EXPECT_DOUBLE_EQ(chain, 1e5 * 4.0 * 9.0);
  EXPECT_GE(model.compute_cycles(w), chain);
}

TEST(ExecModel, VectorizationShortensChain) {
  const ExecModel model(a64fx());
  isa::WorkEstimate w = vec_work();
  w.dep_chain_ops = 2.0;
  const double vec_chain = model.chain_cycles(w);
  w.vectorizable_fraction = 0.0;
  EXPECT_GT(model.chain_cycles(w), 5.0 * vec_chain);
}

TEST(ExecModel, GatherPenalisesA64fxMoreThanSkylake) {
  isa::WorkEstimate w = vec_work();
  w.gather_fraction = 0.8;
  const double a64 = ExecModel(a64fx()).compute_cycles(w) /
                     ExecModel(a64fx()).compute_cycles(vec_work());
  const double skx = ExecModel(skylake8168_dual()).compute_cycles(w) /
                     ExecModel(skylake8168_dual()).compute_cycles(vec_work());
  EXPECT_GT(a64, skx);
}

TEST(ExecModel, BranchMissesCost) {
  const ExecModel model(a64fx());
  isa::WorkEstimate w = vec_work();
  w.branches = 1e5;
  w.branch_miss_rate = 0.2;
  EXPECT_GT(model.compute_cycles(w), model.compute_cycles(vec_work()));
}

TEST(ExecModel, ShortTripCountsHurtWithoutPredication) {
  isa::WorkEstimate w = vec_work();
  w.inner_trip_count = 3.0;  // less than half a NEON... and a 8-lane vector
  const double tx2_short = ExecModel(thunderx2_dual()).compute_cycles(w);
  const double tx2_long = ExecModel(thunderx2_dual()).compute_cycles(vec_work());
  EXPECT_GT(tx2_short, 1.2 * tx2_long);
}

TEST(ExecModel, BarrierGrowsWithSizeAndSpan) {
  const ExecModel model(a64fx());
  EXPECT_EQ(model.barrier_seconds(1, topo::Distance::kSameNuma), 0.0);
  const double t2 = model.barrier_seconds(2, topo::Distance::kSameNuma);
  const double t12 = model.barrier_seconds(12, topo::Distance::kSameNuma);
  const double t12x = model.barrier_seconds(12, topo::Distance::kSameSocket);
  EXPECT_GT(t12, t2);
  EXPECT_GT(t12x, t12);
}

std::vector<oracle::ThreadWork> uniform_job(int threads_total, int per_numa,
                                            double dram_bytes_each) {
  std::vector<oracle::ThreadWork> job;
  for (int t = 0; t < threads_total; ++t) {
    oracle::ThreadWork tw;
    tw.work.flops = 1e5;
    tw.work.load_bytes = dram_bytes_each;
    tw.work.vectorizable_fraction = 1.0;
    tw.work.iterations = 1e4;
    tw.work.dram_traffic_bytes = dram_bytes_each;
    tw.numa = t / per_numa;
    tw.home_numa = t / per_numa;
    tw.rank = t;
    tw.team_size = 1;
    job.push_back(tw);
  }
  return job;
}

TEST(ExecModel, MemoryChannelContention) {
  const ExecModel model(a64fx());
  // 12 threads streaming 1 MB each from one CMG vs spread over 4 CMGs.
  auto packed = uniform_job(12, 12, 1e6);
  auto spread = uniform_job(12, 3, 1e6);
  const PhaseTime t_packed = oracle::evaluate_phase(model, packed);
  const PhaseTime t_spread = oracle::evaluate_phase(model, spread);
  EXPECT_GT(t_packed.memory_s, 3.0 * t_spread.memory_s);
  EXPECT_NEAR(t_packed.memory_s, 12e6 / 256e9, 1e-7);
}

TEST(ExecModel, RemoteTrafficChargedToHomeAndInterconnect) {
  const ExecModel model(a64fx());
  auto job = uniform_job(12, 3, 1e6);
  for (auto& tw : job) {
    tw.work.shared_access_fraction = 1.0;
    tw.home_numa = 0;  // all shared data homed in CMG 0
  }
  const PhaseTime t = oracle::evaluate_phase(model, job);
  EXPECT_GT(t.remote_bytes, 8e6);  // 9 threads off-home
  // All 12 MB now through CMG0's HBM (and the ring for 9 MB).
  EXPECT_GE(t.memory_s, 12e6 / 256e9 * 0.99);
}

TEST(ExecModel, PhaseTotalRespectsOverlapBounds) {
  const ExecModel model(a64fx());
  const auto job = uniform_job(4, 1, 5e6);
  const PhaseTime t = oracle::evaluate_phase(model, job);
  EXPECT_GE(t.total_s, std::max(t.compute_s, t.memory_s));
  EXPECT_LE(t.total_s,
            t.compute_s + t.memory_s + t.barrier_s + 1e-12);
}

TEST(ExecModel, EmptyPhaseRejected) {
  const ExecModel model(a64fx());
  EXPECT_THROW(oracle::evaluate_phase(model, {}), Error);
}

/// Bitwise comparison of every PhaseTime field.
void expect_same_bits(const PhaseTime& a, const PhaseTime& b) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  EXPECT_EQ(bits(a.compute_s), bits(b.compute_s));
  EXPECT_EQ(bits(a.memory_s), bits(b.memory_s));
  EXPECT_EQ(bits(a.barrier_s), bits(b.barrier_s));
  EXPECT_EQ(bits(a.total_s), bits(b.total_s));
  EXPECT_EQ(bits(a.flops), bits(b.flops));
  EXPECT_EQ(bits(a.dram_bytes), bits(b.dram_bytes));
  EXPECT_EQ(bits(a.remote_bytes), bits(b.remote_bytes));
  EXPECT_EQ(bits(a.chain_s), bits(b.chain_s));
  EXPECT_EQ(a.limiter, b.limiter);
}

TEST(ExecModel, PhaseRefsIndependentOfDomainLabels) {
  const ExecModel model(a64fx());
  // Two threads in domain `a` whose rank data is homed in domain `b`, one
  // thread at home in `b`. The remote traffic arriving at `b` over the
  // inter-domain ring, not any DRAM channel, paces the phase.
  WorkEval off_home;
  off_home.flops = 1e5;
  off_home.local_bytes = 1e5;
  off_home.home_bytes = 3e6 + 0.1;
  off_home.dram_bytes = off_home.local_bytes + off_home.home_bytes;
  off_home.compute_s = 1e-6;
  WorkEval at_home = off_home;
  at_home.home_bytes = 1e6 + 0.3;
  at_home.dram_bytes = at_home.local_bytes + at_home.home_bytes;
  const auto phase = [&](int a, int b) {
    const std::vector<ThreadRef> refs = {{&off_home, a, b, 1e-7},
                                         {&off_home, a, b, 1e-7},
                                         {&at_home, b, b, 0.0}};
    return model.evaluate_phase_refs(refs);
  };
  const PhaseTime base = phase(0, 1);
  const double remote_in = 0.0 + off_home.home_bytes + off_home.home_bytes;
  const double dram_b = 0.0 + off_home.home_bytes + off_home.home_bytes +
                        at_home.local_bytes + at_home.home_bytes;
  const ProcessorConfig& cfg = model.config();
  ASSERT_GT(remote_in / cfg.inter_numa_bw, dram_b / cfg.numa_mem_bw);
  EXPECT_EQ(base.memory_s, remote_in / cfg.inter_numa_bw);
  EXPECT_EQ(base.limiter, Limiter::kMemory);
  expect_same_bits(phase(3, 4095), base);
  expect_same_bits(phase(4095, 3), base);

  const std::vector<ThreadRef> bad_numa = {{&at_home, -1, 0, 0.0}};
  EXPECT_THROW(model.evaluate_phase_refs(bad_numa), Error);
  const std::vector<ThreadRef> bad_home = {{&at_home, 0, -2, 0.0}};
  EXPECT_THROW(model.evaluate_phase_refs(bad_home), Error);
}

TEST(ExecModel, FlopsAggregated) {
  const ExecModel model(a64fx());
  const auto job = uniform_job(8, 2, 1e5);
  EXPECT_DOUBLE_EQ(oracle::evaluate_phase(model, job).flops, 8e5);
}

TEST(ExecModel, LimiterClassification) {
  const ExecModel model(a64fx());
  // Memory limited: huge streaming traffic, little compute.
  {
    std::vector<oracle::ThreadWork> job(4);
    for (auto& tw : job) {
      tw.work.flops = 1e3;
      tw.work.load_bytes = 1e8;
      tw.work.dram_traffic_bytes = 1e8;
      tw.work.vectorizable_fraction = 1.0;
      tw.work.iterations = 100.0;
    }
    EXPECT_EQ(oracle::evaluate_phase(model, job).limiter,
              Limiter::kMemory);
  }
  // Chain limited: long recurrence, no traffic.
  {
    std::vector<oracle::ThreadWork> job(1);
    job[0].work.flops = 1e5;
    job[0].work.iterations = 1e5;
    job[0].work.dep_chain_ops = 8.0;
    job[0].work.vectorizable_fraction = 0.0;
    const PhaseTime t = oracle::evaluate_phase(model, job);
    EXPECT_EQ(t.limiter, Limiter::kChain);
  }
  // Barrier limited: trivial work, wide cross-CMG team.
  {
    std::vector<oracle::ThreadWork> job(2);
    for (auto& tw : job) {
      tw.work.flops = 1.0;
      tw.work.iterations = 1.0;
      tw.team_size = 48;
      tw.team_span = topo::Distance::kSameSocket;
    }
    EXPECT_EQ(oracle::evaluate_phase(model, job).limiter,
              Limiter::kBarrier);
  }
}

TEST(ExecModel, LaneUtilizationViaTripCounts) {
  const ExecModel model(a64fx());
  // Predicated ISA: trip 9 on 8 lanes issues 2 vectors for 9 lanes of work.
  isa::WorkEstimate w = vec_work();
  w.inner_trip_count = 9.0;
  const double c9 = model.compute_cycles(w);
  w.inner_trip_count = 16.0;
  const double c16 = model.compute_cycles(w);
  EXPECT_GT(c9, 1.5 * c16);
  // Exact multiples of the lane count are fully utilised.
  w.inner_trip_count = 8.0;
  EXPECT_NEAR(model.compute_cycles(w), c16, c16 * 0.01);
}

// ----- communication model -----

TEST(CommModel, LatencyMonotoneInDistance) {
  const CommCostModel model(a64fx());
  double prev = 0.0;
  for (auto d : {topo::Distance::kSameNuma, topo::Distance::kSameSocket,
                 topo::Distance::kRemoteNode}) {
    const double lat = model.latency_seconds(d);
    EXPECT_GT(lat, prev);
    prev = lat;
  }
}

TEST(CommModel, BandwidthMonotoneInDistance) {
  const CommCostModel model(a64fx());
  EXPECT_GE(model.bandwidth(topo::Distance::kSameNuma),
            model.bandwidth(topo::Distance::kSameSocket));
  EXPECT_GE(model.bandwidth(topo::Distance::kSameSocket),
            model.bandwidth(topo::Distance::kRemoteNode));
}

TEST(CommModel, MessageCostComposition) {
  const CommCostModel model(a64fx());
  const double lat = model.latency_seconds(topo::Distance::kSameSocket);
  const double one = model.message_seconds(1e6, topo::Distance::kSameSocket);
  EXPECT_NEAR(one - lat, 1e6 / model.bandwidth(topo::Distance::kSameSocket),
              1e-12);
}

TEST(CommModel, CollectiveLogRounds) {
  const CommCostModel model(a64fx());
  const double c2 = model.collective_seconds(2, 8, topo::Distance::kSameNuma);
  const double c16 = model.collective_seconds(16, 8, topo::Distance::kSameNuma);
  EXPECT_NEAR(c16, 4.0 * c2, 1e-12);
  EXPECT_EQ(model.collective_seconds(1, 8, topo::Distance::kSameNuma), 0.0);
}

TEST(CommModel, AlltoallScalesWithRanks) {
  const CommCostModel model(a64fx());
  const double a4 = model.alltoall_seconds(4, 1e6, topo::Distance::kSameSocket);
  const double a8 = model.alltoall_seconds(8, 1e6, topo::Distance::kSameSocket);
  EXPECT_GT(a8, 1.5 * a4);
}

// ----- power model -----

TEST(Power, ComponentsAddUp) {
  const ProcessorConfig cfg = a64fx();
  const double idle = phase_watts(cfg, 0, 0.0, cfg.freq_hz);
  EXPECT_DOUBLE_EQ(idle, cfg.watts_base);
  const double full = phase_watts(cfg, 48, 0.0, cfg.freq_hz);
  EXPECT_NEAR(full, cfg.watts_base + 48 * cfg.watts_per_core_active, 1e-9);
  EXPECT_GT(phase_watts(cfg, 48, 1e11, cfg.freq_hz), full);
}

TEST(Power, BoostDrawsSuperlinearPower) {
  const ProcessorConfig boost = with_power_mode(a64fx(), PowerMode::kBoost);
  const double normal = phase_watts(a64fx(), 48, 0.0, a64fx().freq_hz);
  const double boosted = phase_watts(boost, 48, 0.0, a64fx().freq_hz);
  // 10% clock -> more than 10% core power (exponent > 1).
  EXPECT_GT((boosted - boost.watts_base) / (normal - a64fx().watts_base), 1.1);
}

TEST(Power, EstimateComputesEnergyAndEfficiency) {
  PhaseTime phase;
  phase.total_s = 2.0;
  phase.flops = 1e12;
  phase.dram_bytes = 1e11;
  const PowerEstimate est = estimate_power(a64fx(), phase, 48, a64fx().freq_hz);
  EXPECT_NEAR(est.joules, est.watts * 2.0, 1e-9);
  EXPECT_NEAR(est.gflops_per_watt, 1e12 * 1e-9 / 2.0 / est.watts, 1e-9);
}

TEST(Power, RejectsBadCoreCount) {
  EXPECT_THROW(phase_watts(a64fx(), 49, 0.0, 2e9), Error);
  EXPECT_THROW(phase_watts(a64fx(), -1, 0.0, 2e9), Error);
}

// ----- roofline -----

TEST(Roofline, KneeAndAttainable) {
  const ProcessorConfig cfg = a64fx();
  const double knee = knee_intensity(cfg);
  EXPECT_NEAR(knee, 3.0, 1e-9);
  EXPECT_NEAR(attainable_gflops(cfg, knee), cfg.peak_flops_node() * 1e-9, 1e-6);
  EXPECT_NEAR(attainable_gflops(cfg, knee / 2.0),
              cfg.peak_flops_node() * 1e-9 / 2.0, 1e-6);
  EXPECT_DOUBLE_EQ(attainable_gflops(cfg, 100.0), cfg.peak_flops_node() * 1e-9);
}

TEST(Roofline, PointClassification) {
  const ProcessorConfig cfg = a64fx();
  isa::WorkEstimate w;
  w.flops = 1.0;
  w.load_bytes = 10.0;  // AI 0.1 -> memory bound
  const RooflinePoint p = make_point(cfg, "x", w, 50.0);
  EXPECT_TRUE(p.memory_bound);
  isa::WorkEstimate c;
  c.flops = 100.0;
  c.load_bytes = 1.0;
  EXPECT_FALSE(make_point(cfg, "y", c, 50.0).memory_bound);
}

// ----- hierarchical network model (torus, contention, CMG ring) -----

TEST(Torus, BalancedDimsLargestFirst) {
  EXPECT_EQ(balanced_dims3(1), (std::array<int, 3>{1, 1, 1}));
  EXPECT_EQ(balanced_dims3(5), (std::array<int, 3>{5, 1, 1}));
  EXPECT_EQ(balanced_dims3(6), (std::array<int, 3>{3, 2, 1}));
  EXPECT_EQ(balanced_dims3(8), (std::array<int, 3>{2, 2, 2}));
  EXPECT_EQ(balanced_dims3(12), (std::array<int, 3>{3, 2, 2}));
  EXPECT_EQ(balanced_dims3(24), (std::array<int, 3>{4, 3, 2}));
}

TEST(Torus, CoordsRoundTripAndExactHops) {
  const TorusMap t(8);  // 2 x 2 x 2, row-major, z fastest
  EXPECT_EQ(t.coords_of(0), (std::array<int, 3>{0, 0, 0}));
  EXPECT_EQ(t.coords_of(1), (std::array<int, 3>{0, 0, 1}));
  EXPECT_EQ(t.coords_of(7), (std::array<int, 3>{1, 1, 1}));
  for (int n = 0; n < t.nodes(); ++n) {
    EXPECT_EQ(t.node_of(t.coords_of(n)), n);
  }
  EXPECT_EQ(t.hops(0, 1), 1);
  EXPECT_EQ(t.hops(0, 7), 3);
  EXPECT_EQ(t.hops(7, 0), 3);
  EXPECT_EQ(t.diameter_hops(), 3);

  // Shortest-wrap on a 5-ring: 0 -> 4 goes backwards around the wrap.
  const TorusMap ring(5);
  EXPECT_EQ(ring.hops(0, 4), 1);
  EXPECT_EQ(ring.hops(0, 2), 2);
  EXPECT_EQ(ring.diameter_hops(), 2);
}

TEST(Torus, RouteLinksAreDimensionOrdered) {
  const TorusMap t(8);
  // 0 -> 1 is one +z hop out of node 0: link id 0*6 + 2*2 + 0 = 4.
  std::vector<int> direct;
  t.route_links(0, 1, &direct);
  ASSERT_EQ(direct.size(), 1u);
  EXPECT_EQ(direct[0], 4);
  // 4 -> 1 corrects x first (link 4*6 + 0 = 24), then shares node 0's +z
  // link with the 0 -> 1 route — the shared-bottleneck case contention sees.
  std::vector<int> indirect;
  t.route_links(4, 1, &indirect);
  ASSERT_EQ(indirect.size(), 2u);
  EXPECT_EQ(indirect[0], 24);
  EXPECT_EQ(indirect[1], 4);
}

TEST(Contention, ChargesOnlyForeignBytesOnSharedLinks) {
  const TorusMap t(8);
  {
    LinkContention lone(&t);
    lone.add_flow(0, 1, 1000);
    lone.seal();
    EXPECT_EQ(lone.foreign_bytes(0, 1), 0u);   // nothing shares the link
    EXPECT_EQ(lone.foreign_bytes(2, 3), 0u);   // unknown pair
    EXPECT_EQ(lone.foreign_bytes(5, 5), 0u);   // self flow
    EXPECT_EQ(lone.max_link_load(), 1000u);
  }
  // 0->1 and 4->1 share node 0's +z link (see RouteLinksAreDimensionOrdered):
  // each pair is charged exactly the *other's* bytes on that link.
  LinkContention shared(&t);
  shared.add_flow(0, 1, 1000);
  shared.add_flow(4, 1, 700);
  shared.seal();
  EXPECT_EQ(shared.foreign_bytes(0, 1), 700u);
  EXPECT_EQ(shared.foreign_bytes(4, 1), 1000u);
  EXPECT_EQ(shared.max_link_load(), 1700u);
}

TEST(Contention, MoreTrafficOnASharedLinkNeverGetsCheaper) {
  const TorusMap t(8);
  std::uint64_t prev = 0;
  for (const std::uint64_t rival : {0u, 500u, 700u, 1400u, 5000u}) {
    LinkContention c(&t);
    c.add_flow(0, 1, 1000);
    if (rival > 0) c.add_flow(4, 1, rival);
    c.seal();
    const std::uint64_t foreign = c.foreign_bytes(0, 1);
    EXPECT_GE(foreign, prev) << "rival=" << rival;
    prev = foreign;
  }
  EXPECT_EQ(prev, 5000u);  // the full rival load lands on the shared link
}

TEST(Contention, RejectsOutOfRangeNodesAndAnswersZeroForThem) {
  const TorusMap t(8);
  LinkContention c(&t);
  EXPECT_THROW(c.add_flow(-1, 0, 100), Error);
  EXPECT_THROW(c.add_flow(0, -1, 100), Error);
  EXPECT_THROW(c.add_flow(8, 0, 100), Error);
  EXPECT_THROW(c.add_flow(0, 8, 100), Error);
  EXPECT_THROW(c.add_flow(8, 8, 100), Error);  // a self-flow off the torus
  EXPECT_THROW(c.add_flow(0, 9, 0), Error);    // a zero-byte flow off it
  c.add_flow(0, 1, 1000);
  c.add_flow(4, 1, 700);
  c.seal();
  EXPECT_EQ(c.foreign_bytes(0, 1), 700u);
  EXPECT_EQ(c.foreign_bytes(-1, 1), 0u);
  EXPECT_EQ(c.foreign_bytes(8, 1), 0u);
  EXPECT_EQ(c.foreign_bytes(0, -1), 0u);
  EXPECT_EQ(c.foreign_bytes(0, 8), 0u);
  EXPECT_EQ(c.foreign_bytes(1 << 20, 1 << 20), 0u);
  EXPECT_THROW(c.add_flow(0, 1, 1), Error);  // sealed

  // A phase without inter-node traffic answers 0 for every query.
  LinkContention empty(&t);
  empty.seal();
  EXPECT_EQ(empty.foreign_bytes(0, 1), 0u);
  EXPECT_EQ(empty.foreign_bytes(-1, 9), 0u);
  EXPECT_EQ(empty.max_link_load(), 0u);
}

/// Flows as added to a LinkContention: ((src, dst), bytes), repeats,
/// self-flows and zero-byte flows included.
using FlowList = std::vector<std::pair<std::pair<int, int>, std::uint64_t>>;

/// What a LinkContention fed `added` must answer, recounted by brute force:
/// aggregate per pair, route each, sum every link's load.
struct ContentionRecount {
  std::map<std::pair<int, int>, std::uint64_t> flows;    // aggregated bytes
  std::map<std::pair<int, int>, std::uint64_t> foreign;  // per known pair
  std::uint64_t max_load = 0;

  std::uint64_t foreign_of(const std::pair<int, int>& pair) const {
    const auto it = foreign.find(pair);
    return it == foreign.end() ? 0 : it->second;
  }
};

ContentionRecount recount_contention(const TorusMap& t,
                                     const FlowList& added) {
  ContentionRecount r;
  for (const auto& [pair, bytes] : added) {
    if (pair.first != pair.second && bytes != 0) r.flows[pair] += bytes;
  }
  std::map<int, std::uint64_t> load;
  for (const auto& [pair, bytes] : r.flows) {
    std::vector<int> links;
    t.route_links(pair.first, pair.second, &links);
    for (const int link : links) load[link] += bytes;
  }
  for (const auto& [link, bytes] : load) r.max_load = std::max(r.max_load, bytes);
  for (const auto& [pair, bytes] : r.flows) {
    std::uint64_t expected = 0;
    std::vector<int> links;
    t.route_links(pair.first, pair.second, &links);
    for (const int link : links) {
      expected = std::max(expected, load[link] - bytes);
    }
    r.foreign[pair] = expected;
  }
  return r;
}

TEST(Contention, ForeignBytesMatchABruteForceRecount) {
  const TorusMap t(64);
  ASSERT_EQ(t.dims(), (std::array<int, 3>{4, 4, 4}));
  std::mt19937 rng(20210917);
  std::uniform_int_distribution<int> node(0, t.nodes() - 1);
  std::uniform_int_distribution<std::uint64_t> size(1, 1u << 20);
  FlowList added;
  for (int i = 0; i < 400; ++i) {
    std::pair<int, int> pair{node(rng), node(rng)};
    if (i % 10 == 9) pair = added[static_cast<std::size_t>(i / 2)].first;
    if (i % 25 == 24) pair.second = pair.first;  // self flow
    const std::uint64_t bytes = i % 15 == 14 ? 0 : size(rng);
    added.push_back({pair, bytes});
  }
  LinkContention c(&t);
  for (const auto& [pair, bytes] : added) {
    c.add_flow(pair.first, pair.second, bytes);
  }
  c.seal();

  const ContentionRecount r = recount_contention(t, added);
  EXPECT_EQ(c.max_link_load(), r.max_load);
  for (const auto& [pair, bytes] : added) {
    EXPECT_EQ(c.foreign_bytes(pair.first, pair.second), r.foreign_of(pair));
    EXPECT_EQ(c.foreign_bytes(pair.first, pair.second),
              r.foreign_of(pair));  // again
  }
  std::pair<int, int> never{0, 1};
  while (r.flows.count(never) != 0) ++never.second;
  EXPECT_EQ(c.foreign_bytes(never.first, never.second), 0u);
}

// Each source node's flows form a chain in insertion order; every answer is
// a uint64_t sum, so no order of the same flows may change a single bit.
TEST(Contention, AnswersDoNotDependOnFlowOrder) {
  // 4x4x3: even rings with exact half-way wrap ties next to an odd ring.
  const TorusMap t(48);
  ASSERT_EQ(t.dims(), (std::array<int, 3>{4, 4, 3}));
  std::mt19937 rng(20260418);
  std::uniform_int_distribution<int> node(0, t.nodes() - 1);
  std::uniform_int_distribution<std::uint64_t> size(1, 1u << 16);
  FlowList added;
  for (int src = 0; src < t.nodes(); ++src) {
    for (int k = 0; k < 5; ++k) {  // several destinations per source
      const int dst = node(rng);
      added.push_back({{src, dst}, size(rng)});
      if (k % 2 == 0) added.push_back({{src, dst}, size(rng)});  // repeat
    }
    added.push_back({{src, src}, size(rng)});  // self flow
    added.push_back({{src, node(rng)}, 0});    // zero bytes
  }
  FlowList reversed(added.rbegin(), added.rend());
  FlowList shuffled = added;
  std::shuffle(shuffled.begin(), shuffled.end(), rng);

  const ContentionRecount r = recount_contention(t, added);
  ASSERT_GT(r.max_load, 0u);
  std::size_t contended = 0;
  for (const auto& [pair, foreign] : r.foreign) {
    if (foreign > 0) ++contended;
  }
  ASSERT_GT(contended, 0u) << "no pair shares a link: the test proves nothing";

  std::vector<std::uint64_t> first;
  for (const FlowList* order : {&added, &reversed, &shuffled}) {
    LinkContention c(&t);
    for (const auto& [pair, bytes] : *order) {
      c.add_flow(pair.first, pair.second, bytes);
    }
    c.seal();
    EXPECT_EQ(c.max_link_load(), r.max_load);
    std::vector<std::uint64_t> answers;
    for (int a = 0; a < t.nodes(); ++a) {
      for (int b = 0; b < t.nodes(); ++b) {
        answers.push_back(c.foreign_bytes(a, b));
        EXPECT_EQ(answers.back(), r.foreign_of({a, b}))
            << "pair " << a << " -> " << b;
      }
    }
    if (first.empty()) first = answers;
    EXPECT_EQ(answers, first);
  }
}

// The class-replay engine's path: flow indices from add_flow_index, hops
// and foreign bytes read per flow after seal(). Every sealed flow's hops
// are its pair's TorusMap::hops, and its foreign bytes are what the pair
// lookup answers for the same sends — zero-byte sends included, which
// register their pair without loading a link.
TEST(Contention, FlowIndexAnswersMatchThePairLookup) {
  const TorusMap t(48);
  std::mt19937 rng(20261018);
  std::uniform_int_distribution<int> node(0, t.nodes() - 1);
  std::uniform_int_distribution<std::uint64_t> size(1, 1u << 16);
  FlowList added;
  for (int src = 0; src < t.nodes(); ++src) {
    for (int k = 0; k < 4; ++k) {
      int dst = node(rng);
      if (dst == src) dst = (src + 1) % t.nodes();
      added.push_back({{src, dst}, size(rng)});
      if (k == 0) added.push_back({{src, dst}, 0});  // beside a loaded send
    }
    int idle = node(rng);  // a pair that may carry only zero-byte sends
    if (idle == src) idle = (src + 2) % t.nodes();
    added.push_back({{src, idle}, 0});
  }
  std::shuffle(added.begin(), added.end(), rng);

  LinkContention indexed(&t);
  LinkContention lookup(&t);
  std::vector<int> flows;
  for (const auto& [pair, bytes] : added) {
    flows.push_back(indexed.add_flow_index(pair.first, pair.second, bytes));
    lookup.add_flow(pair.first, pair.second, bytes);
  }
  indexed.seal();
  lookup.seal();
  EXPECT_EQ(indexed.max_link_load(), lookup.max_link_load());

  std::map<std::pair<int, int>, int> flow_of_pair;
  std::size_t charged_zero_sends = 0;
  for (std::size_t i = 0; i < added.size(); ++i) {
    const auto& [pair, bytes] = added[i];
    const int flow = flows[i];
    // One index per pair, however many sends it carries.
    const auto [it, inserted] = flow_of_pair.emplace(pair, flow);
    EXPECT_EQ(it->second, flow);
    EXPECT_EQ(indexed.flow_hops(flow), t.hops(pair.first, pair.second));
    EXPECT_EQ(indexed.flow_foreign(flow),
              lookup.foreign_bytes(pair.first, pair.second))
        << "pair " << pair.first << " -> " << pair.second;
    if (bytes == 0 && indexed.flow_foreign(flow) > 0) ++charged_zero_sends;
  }
  // Pairs are numbered densely in order of first appearance.
  std::set<int> indices(flows.begin(), flows.end());
  EXPECT_EQ(indices.size(), flow_of_pair.size());
  EXPECT_EQ(*indices.begin(), 0);
  EXPECT_EQ(*indices.rbegin(), static_cast<int>(indices.size()) - 1);
  EXPECT_GT(charged_zero_sends, 0u)
      << "no zero-byte send shares a loaded pair: the test proves nothing";
}

TEST(Contention, ZeroByteSendOnALoadedPairPaysItsForeignBytes) {
  const TorusMap t(8);
  LinkContention c(&t);
  const int zero = c.add_flow_index(0, 1, 0);  // before the pair's bytes
  const int loaded = c.add_flow_index(0, 1, 1000);
  const int rival = c.add_flow_index(4, 1, 700);
  const int idle = c.add_flow_index(2, 3, 0);  // never carries a byte
  EXPECT_THROW(c.add_flow_index(5, 5, 100), Error);  // self flow
  EXPECT_THROW(c.add_flow_index(0, 8, 100), Error);  // off the torus
  c.seal();
  EXPECT_THROW(c.add_flow_index(0, 1, 1), Error);  // sealed
  EXPECT_EQ(zero, loaded);
  EXPECT_EQ(rival, 1);
  EXPECT_EQ(idle, 2);
  EXPECT_EQ(c.flow_foreign(zero), 700u);  // as foreign_bytes(0, 1) answers
  EXPECT_EQ(c.flow_foreign(zero), c.foreign_bytes(0, 1));
  EXPECT_EQ(c.flow_foreign(rival), 1000u);
  EXPECT_EQ(c.flow_foreign(idle), 0u);  // as for a pair never seen
  EXPECT_EQ(c.foreign_bytes(2, 3), 0u);
  EXPECT_EQ(c.flow_hops(idle), t.hops(2, 3));
  EXPECT_EQ(c.flow_hops(rival), 2);
  EXPECT_EQ(c.max_link_load(), 1700u);  // the idle pair loads no link
}

/// The per-hop seal that ring-interval seal() replaced, kept as its oracle:
/// walk each distinct pair's route link by link (TorusMap::route_links),
/// add its bytes to every link, then take each pair's busiest route link.
/// Pairs are keyed as add_flow_index numbers them (first appearance).
struct RouteWalkSeal {
  std::map<std::pair<int, int>, std::uint64_t> bytes;
  std::map<std::pair<int, int>, std::uint64_t> foreign;
  std::map<std::pair<int, int>, int> hops;
  std::uint64_t max_link_load = 0;

  RouteWalkSeal(const TorusMap& t, const FlowList& added) {
    for (const auto& [pair, b] : added) {
      if (pair.first != pair.second) bytes[pair] += b;
    }
    std::vector<std::uint64_t> load(static_cast<std::size_t>(t.link_count()),
                                    0);
    for (const auto& [pair, b] : bytes) {
      std::vector<int> links;
      t.route_links(pair.first, pair.second, &links);
      hops[pair] = static_cast<int>(links.size());
      if (b == 0) continue;
      for (const int link : links) {
        std::uint64_t& l = load[static_cast<std::size_t>(link)];
        l += b;
        max_link_load = std::max(max_link_load, l);
      }
    }
    for (const auto& [pair, b] : bytes) {
      std::uint64_t worst = 0;
      if (b > 0) {
        std::vector<int> links;
        t.route_links(pair.first, pair.second, &links);
        for (const int link : links) {
          worst = std::max(worst, load[static_cast<std::size_t>(link)] - b);
        }
      }
      foreign[pair] = worst;
    }
  }
};

// seal() treats a route as at most three ring runs: link loads from
// difference arrays and prefix sums, a pair's busiest link from a sparse
// table per ring. On random tori — dimensions of 1 and 2, even rings whose
// half-way routes tie, runs that wrap around a ring — and random flows with
// repeats, zero-byte pairs and self-flows, every answer equals the per-hop
// walk's.
TEST(Contention, RingIntervalSealMatchesThePerHopWalk) {
  std::mt19937 rng(20261020);
  std::size_t unit_dims = 0;
  std::size_t pair_dims = 0;
  std::size_t ties = 0;
  std::size_t wraps = 0;
  std::size_t contended = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const int nodes = trial < 6 ? std::array{1, 2, 4, 6, 8, 12}[trial]
                                : std::uniform_int_distribution<int>(
                                      2, 400)(rng);
    const TorusMap t(nodes);
    for (const int n : t.dims()) {
      unit_dims += n == 1 ? 1 : 0;
      pair_dims += n == 2 ? 1 : 0;
    }
    std::uniform_int_distribution<int> node(0, nodes - 1);
    std::uniform_int_distribution<std::uint64_t> size(1, 1u << 20);
    FlowList added;
    const int count = std::uniform_int_distribution<int>(1, 4 * nodes)(rng);
    for (int i = 0; i < count; ++i) {
      std::pair<int, int> pair{node(rng), node(rng)};
      if (i % 7 == 6) pair = added[static_cast<std::size_t>(i / 2)].first;
      const std::uint64_t bytes = i % 9 == 8 ? 0 : size(rng);
      added.push_back({pair, bytes});
    }
    // Route shapes the ring runs must get right, counted from coordinates.
    for (const auto& [pair, bytes] : added) {
      const auto a = t.coords_of(pair.first);
      const auto b = t.coords_of(pair.second);
      for (std::size_t d = 0; d < 3; ++d) {
        const int n = t.dims()[d];
        const int fwd = (b[d] - a[d] + n) % n;
        if (fwd == 0) continue;
        if (2 * fwd == n) ++ties;
        const bool positive = fwd <= n - fwd;
        if (positive ? a[d] + fwd >= n : a[d] - (n - fwd) < 0) ++wraps;
      }
    }

    LinkContention indexed(&t);
    LinkContention lookup(&t);
    std::vector<int> flows;
    for (const auto& [pair, bytes] : added) {
      lookup.add_flow(pair.first, pair.second, bytes);
      flows.push_back(pair.first == pair.second
                          ? -1
                          : indexed.add_flow_index(pair.first, pair.second,
                                                   bytes));
    }
    indexed.seal();
    lookup.seal();

    const RouteWalkSeal oracle(t, added);
    SCOPED_TRACE("nodes " + std::to_string(nodes));
    EXPECT_EQ(indexed.max_link_load(), oracle.max_link_load);
    EXPECT_EQ(lookup.max_link_load(), oracle.max_link_load);
    for (std::size_t i = 0; i < added.size(); ++i) {
      const auto& [pair, bytes] = added[i];
      if (pair.first == pair.second) {
        EXPECT_EQ(lookup.foreign_bytes(pair.first, pair.second), 0u);
        continue;
      }
      const std::uint64_t foreign = oracle.foreign.at(pair);
      contended += foreign > 0 ? 1 : 0;
      EXPECT_EQ(indexed.flow_foreign(flows[i]), foreign)
          << pair.first << " -> " << pair.second;
      EXPECT_EQ(indexed.flow_hops(flows[i]), oracle.hops.at(pair));
      EXPECT_EQ(indexed.flow_hops(flows[i]),
                t.hops(pair.first, pair.second));
      EXPECT_EQ(indexed.foreign_bytes(pair.first, pair.second), foreign);
      EXPECT_EQ(lookup.foreign_bytes(pair.first, pair.second), foreign);
    }
  }
  EXPECT_GT(unit_dims, 0u);
  EXPECT_GT(pair_dims, 0u);
  EXPECT_GT(ties, 0u);
  EXPECT_GT(wraps, 0u);
  EXPECT_GT(contended, 0u);
}

TEST(CommModel, RemoteLatencyIsExactPerHop) {
  const ProcessorConfig cfg = a64fx();
  const CommCostModel model(cfg, 8);
  EXPECT_DOUBLE_EQ(model.remote_latency_seconds(0),
                   cfg.net.base_latency_us * 1e-6);
  EXPECT_DOUBLE_EQ(model.remote_latency_seconds(3),
                   cfg.net.base_latency_us * 1e-6 +
                       3.0 * cfg.net.hop_latency_ns * 1e-9);
  EXPECT_DOUBLE_EQ(model.link_bandwidth(), cfg.net.link_bw);
  // The distance-class API assumes the diameter (3 hops on 2x2x2).
  EXPECT_DOUBLE_EQ(model.latency_seconds(topo::Distance::kRemoteNode),
                   model.remote_latency_seconds(3));
  EXPECT_GT(model.latency_seconds(topo::Distance::kRemoteNode),
            model.latency_seconds(topo::Distance::kSameNode));
}

TEST(CommModel, SingleNodeTorusDegeneratesToFlatFabric) {
  const CommCostModel model(a64fx());  // nodes = 1: pre-hierarchical model
  EXPECT_EQ(model.torus().diameter_hops(), 0);
  EXPECT_DOUBLE_EQ(model.latency_seconds(topo::Distance::kRemoteNode),
                   model.remote_latency_seconds(0));
}

TEST(CommModel, CmgRingLatencyIsShortestWayAround) {
  const ProcessorConfig cfg = a64fx();  // 1 socket x 4 CMGs
  const CommCostModel model(cfg);
  const double base = cfg.intra_node_msg_latency_ns * 1e-9;
  const double hop = cfg.inter_numa_latency_ns * 1e-9;
  EXPECT_DOUBLE_EQ(model.intra_socket_latency_seconds(0, 0), base);
  EXPECT_DOUBLE_EQ(model.intra_socket_latency_seconds(0, 1), base + hop);
  EXPECT_DOUBLE_EQ(model.intra_socket_latency_seconds(0, 2), base + 2 * hop);
  // 0 -> 3 wraps around the ring: one hop, not three.
  EXPECT_DOUBLE_EQ(model.intra_socket_latency_seconds(0, 3), base + hop);
  EXPECT_DOUBLE_EQ(model.intra_socket_latency_seconds(3, 1),
                   model.intra_socket_latency_seconds(1, 3));
}

TEST(Roofline, AsciiRenderContainsPointsAndLegend) {
  const ProcessorConfig cfg = a64fx();
  isa::WorkEstimate w;
  w.flops = 1.0;
  w.load_bytes = 2.0;
  const std::string fig =
      render_ascii(cfg, {make_point(cfg, "alpha", w, 100.0)});
  EXPECT_NE(fig.find("alpha"), std::string::npos);
  EXPECT_NE(fig.find("a:"), std::string::npos);
  EXPECT_NE(fig.find("roofline"), std::string::npos);
}

// ----- processor descriptors ----------------------------------------------

using BuiltinCtor = ProcessorConfig (*)();
const BuiltinCtor kBuiltins[] = {&a64fx, &skylake8168_dual, &thunderx2_dual,
                                 &broadwell_dual};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Replace the first occurrence of `from` (must exist) in the canonical
/// A64FX descriptor text.
std::string mutated_a64fx(const std::string& from, const std::string& to) {
  std::string text = to_descriptor(a64fx());
  const std::size_t pos = text.find(from);
  EXPECT_NE(pos, std::string::npos) << from;
  text.replace(pos, from.size(), to);
  return text;
}

/// The Error message parse_descriptor throws for `text` ("" = no throw).
std::string parse_error(const std::string& text) {
  try {
    (void)parse_descriptor(text);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(Descriptor, RoundTripIsBitExactForEveryBuiltin) {
  for (const BuiltinCtor ctor : kBuiltins) {
    const ProcessorConfig cfg = ctor();
    const std::string text = to_descriptor(cfg);
    const ProcessorConfig parsed = parse_descriptor(text);
    // Exact field-wise equality: the parsed config shares EvalCache entries
    // with the constructor's.
    EXPECT_TRUE(parsed == cfg) << cfg.name;
    EXPECT_EQ(to_descriptor(parsed), text) << cfg.name;
  }
}

TEST(Descriptor, RoundTripCoversPowerModeVariants) {
  for (const PowerMode mode : {PowerMode::kBoost, PowerMode::kEco}) {
    const ProcessorConfig cfg = with_power_mode(a64fx(), mode);
    const ProcessorConfig parsed = parse_descriptor(to_descriptor(cfg));
    EXPECT_TRUE(parsed == cfg) << cfg.name;
  }
}

TEST(Descriptor, GoldenFilesMatchTheConstructors) {
  const std::pair<const char*, BuiltinCtor> golden[] = {
      {"a64fx.json", &a64fx},
      {"skylake8168x2.json", &skylake8168_dual},
      {"thunderx2.json", &thunderx2_dual},
      {"broadwell.json", &broadwell_dual},
  };
  for (const auto& [file, ctor] : golden) {
    const std::string path = std::string(FIBERSIM_DESCRIPTOR_DIR "/") + file;
    const std::string text = slurp(path);
    EXPECT_EQ(text, to_descriptor(ctor())) << file;
    EXPECT_TRUE(load_descriptor_file(path) == ctor()) << file;
  }
}

TEST(Descriptor, FormatDoubleRoundTripsExactly) {
  // The L2 capacity is the nastiest builtin double: 8 MiB / 12 cores.
  for (const double v : {8.0 * 1024 * 1024 / 12.0, 2.2e9, 0.1, 1.0 / 3.0}) {
    EXPECT_EQ(std::strtod(format_double(v).c_str(), nullptr), v);
  }
}

TEST(Descriptor, RejectsOutOfRangeValuesByNameWithByteOffset) {
  // Range violations are reported with the validate() field name and the
  // byte offset of the offending value, and never return a partial config.
  const std::pair<std::string, std::string> cases[] = {
      {"\"numa_mem_bw\": ", "\"numa_mem_bw\": -"},  // negative bandwidth
      {"\"freq_hz\": 2e+09", "\"freq_hz\": 0"},
      {"\"fp_pipes\": 2", "\"fp_pipes\": 0"},
      {"\"vector_bits\": 512", "\"vector_bits\": 100"},
      {"\"mem_overlap\": ", "\"mem_overlap\": -"},
  };
  for (const auto& [from, to] : cases) {
    const std::string msg = parse_error(mutated_a64fx(from, to));
    ASSERT_FALSE(msg.empty()) << from;
    EXPECT_NE(msg.find("at byte"), std::string::npos) << msg;
  }
  EXPECT_NE(parse_error(mutated_a64fx("\"freq_hz\": 2e+09", "\"freq_hz\": 0"))
                .find("freq_hz"),
            std::string::npos);
  EXPECT_NE(parse_error(mutated_a64fx("\"numa_mem_bw\": ",
                                      "\"numa_mem_bw\": -"))
                .find("numa_mem_bw"),
            std::string::npos);
}

TEST(Descriptor, RejectsMalformedDocuments) {
  const std::string valid = to_descriptor(a64fx());
  // Unknown key.
  EXPECT_NE(parse_error(mutated_a64fx("  \"name\"", "  \"bogus\": 1,\n  \"name\""))
                .find("bogus"),
            std::string::npos);
  // Missing required field (a typo'd key is reported as both).
  EXPECT_NE(parse_error(mutated_a64fx("\"fp_pipes\"", "\"fp_pies\""))
                .find("fp_pipes"),
            std::string::npos);
  // Wrong type.
  EXPECT_FALSE(
      parse_error(mutated_a64fx("\"fp_pipes\": 2", "\"fp_pipes\": \"two\""))
          .empty());
  // Duplicate key (the strict grammar rejects it before any field parses).
  EXPECT_FALSE(parse_error(mutated_a64fx("\"fp_pipes\": 2",
                                         "\"fp_pipes\": 2,\n  \"fp_pipes\": 2"))
                   .empty());
  // Wrong/missing format tag.
  EXPECT_NE(parse_error(mutated_a64fx("fibersim-processor/1",
                                      "fibersim-processor/9"))
                .find("format"),
            std::string::npos);
  // Truncation anywhere may not yield a config.
  for (const std::size_t keep :
       {std::size_t{0}, valid.size() / 4, valid.size() / 2,
        valid.size() - 2}) {
    EXPECT_FALSE(parse_error(valid.substr(0, keep)).empty()) << keep;
  }
  // Non-numeric garbage in a number slot.
  EXPECT_FALSE(
      parse_error(mutated_a64fx("\"freq_hz\": 2e+09", "\"freq_hz\": 2e+999"))
          .empty());
}

/// Byte offset of the value at descriptor `path` in canonical `text`, found
/// by text search (independent of the parser's own offsets).
std::size_t value_offset(const std::string& text, const std::string& path) {
  const std::size_t dot = path.find('.');
  std::string needle = "\n  \"" + path + "\": ";
  std::size_t from = 0;
  if (dot != std::string::npos) {
    from = text.find("\n  \"" + path.substr(0, dot) + "\": {");
    needle = "\n    \"" + path.substr(dot + 1) + "\": ";
  }
  const std::size_t at = text.find(needle, from);
  EXPECT_NE(at, std::string::npos) << path;
  return at + needle.size();
}

std::uint64_t journal_key(const ProcessorConfig& processor) {
  core::ExperimentConfig config;
  config.processor = processor;
  return core::SweepJournal::fingerprint(config);
}

/// Visit the `index`-th listed field of `cfg` only.
template <class Visit>
void visit_nth_field(ProcessorConfig& cfg, std::size_t index, Visit&& visit) {
  std::size_t k = 0;
  for_each_field(cfg, [&](const char* path, auto& value, const Bound& bound,
                          bool) {
    if (k++ == index) visit(path, value, bound);
  });
}

/// Parse `text`, expecting an error that names `path` at byte `offset`.
void expect_rejected_at(const std::string& text, const std::string& path,
                        std::size_t offset) {
  const std::string msg = parse_error(text);
  EXPECT_NE(msg.find(path), std::string::npos) << path << ": " << msg;
  EXPECT_NE(msg.find("(at byte " + std::to_string(offset) + ")"),
            std::string::npos)
      << path << ": " << msg;
}

TEST(Descriptor, EveryListedFieldRoundTripsAndKeysTheJournal) {
  // A single-socket machine may declare a socket link it never uses; with
  // one, shape.sockets has a valid perturbation on its own. The A64FX keeps
  // four fields at their defaults; moving them means parse (which starts
  // from the defaults) must set every field for the round trips to hold.
  ProcessorConfig base = a64fx();
  base.inter_socket_bw = base.inter_numa_bw;
  base.net.hop_latency_ns = 80.0;
  base.intra_node_msg_latency_ns = 250.0;
  base.freq_power_exponent = 2.5;
  base.eco_core_power_scale = 0.6;
  ASSERT_NO_THROW(base.validate());
  EXPECT_TRUE(parse_descriptor(to_descriptor(base)) == base);
  const std::string base_text = to_descriptor(base);
  std::size_t fields = 0;
  for_each_field(base, [&](const char*, const auto&, const Bound&, bool) {
    ++fields;
  });

  for (std::size_t i = 0; i < fields; ++i) {
    // A valid perturbation: the first candidate that still validates.
    ProcessorConfig cfg = base;
    std::string path;
    visit_nth_field(cfg, i, [&](const char* p, auto& value, const Bound&) {
      using T = std::decay_t<decltype(value)>;
      path = p;
      const T original = value;
      std::vector<T> candidates;
      if constexpr (std::is_same_v<T, std::string>) {
        candidates = {original + "x"};
      } else if constexpr (std::is_same_v<T, bool>) {
        candidates = {!original};
      } else {
        candidates = {static_cast<T>(original * 2), static_cast<T>(original + 1),
                      static_cast<T>(original / 2), static_cast<T>(original - 1)};
      }
      for (const T& candidate : candidates) {
        value = candidate;
        if (candidate == original) continue;
        try {
          cfg.validate();
          return;
        } catch (const Error&) {
        }
      }
      value = original;
    });
    ASSERT_FALSE(cfg == base) << path << ": no valid perturbation";
    const std::string text = to_descriptor(cfg);
    EXPECT_NE(text, base_text) << path;
    EXPECT_NE(journal_key(cfg), journal_key(base)) << path;
    EXPECT_TRUE(parse_descriptor(text) == cfg) << path;

    // Out of range: just past each finite end of the bound, rejected at
    // the value's offset.
    for (const bool past_hi : {false, true}) {
      ProcessorConfig bad = base;
      bool bounded = false;
      visit_nth_field(bad, i, [&](const char*, auto& value, const Bound& b) {
        using T = std::decay_t<decltype(value)>;
        if constexpr (std::is_same_v<T, std::string>) {
          bounded = !past_hi && b.lo > 0.0;
          value.clear();
        } else if constexpr (!std::is_same_v<T, bool>) {
          if (!past_hi && b.lo > -HUGE_VAL) {
            bounded = true;
            value = static_cast<T>(b.lo_open ? b.lo : b.lo - 1);
          } else if (past_hi && b.hi < HUGE_VAL) {
            bounded = true;
            value = static_cast<T>(b.hi_open ? b.hi : b.hi + 1);
          }
        }
      });
      if (!bounded) continue;
      EXPECT_THROW(bad.validate(), Error) << path;
      const std::string bad_text = to_descriptor(bad);
      expect_rejected_at(bad_text, path, value_offset(bad_text, path));
    }
  }

  // The cross-field rules cite the field each is charged to.
  ProcessorConfig eco = base;
  eco.eco_fp_pipes = eco.fp_pipes + 1;
  ProcessorConfig bits = base;
  bits.vec.vector_bits = 96;
  ProcessorConfig numa = base;
  numa.inter_numa_bw = 0.0;
  ProcessorConfig sockets = base;
  sockets.shape.sockets = 2;
  sockets.inter_socket_bw = 0.0;
  const std::pair<ProcessorConfig, const char*> rules[] = {
      {eco, "eco.fp_pipes"},
      {bits, "vec.vector_bits"},
      {numa, "inter_numa_bw"},
      {sockets, "inter_socket_bw"},
  };
  for (const auto& [cfg, path] : rules) {
    EXPECT_THROW(cfg.validate(), Error) << path;
    const std::string text = to_descriptor(cfg);
    expect_rejected_at(text, path, value_offset(text, path));
  }
}

TEST(Descriptor, MissingFileNamesThePath) {
  try {
    (void)load_descriptor_file("/nonexistent/machine.json");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent/machine.json"),
              std::string::npos);
  }
}

TEST(Descriptor, OptionalModesDefaultToAbsent) {
  std::string text = to_descriptor(skylake8168_dual());
  const ProcessorConfig parsed = parse_descriptor(text);
  EXPECT_EQ(parsed.boost_freq_hz, 0.0);
  EXPECT_EQ(parsed.eco_fp_pipes, 0);
  // A machine without the modes passes through with_power_mode unchanged.
  EXPECT_TRUE(with_power_mode(parsed, PowerMode::kBoost) == parsed);
  EXPECT_TRUE(with_power_mode(parsed, PowerMode::kEco) == parsed);
}

TEST(Processor, GenericPowerModesFollowTheDescriptorFields) {
  ProcessorConfig cfg = skylake8168_dual();
  cfg.boost_freq_hz = 3.0e9;
  cfg.eco_fp_pipes = 1;
  cfg.eco_core_power_scale = 0.5;
  const ProcessorConfig boost = with_power_mode(cfg, PowerMode::kBoost);
  EXPECT_EQ(boost.name, "Skylake-8168x2-boost");
  EXPECT_DOUBLE_EQ(boost.freq_hz, 3.0e9);
  const ProcessorConfig eco = with_power_mode(cfg, PowerMode::kEco);
  EXPECT_EQ(eco.fp_pipes, 1);
  EXPECT_DOUBLE_EQ(eco.watts_per_core_active, cfg.watts_per_core_active * 0.5);
}

// ----- processor registry -------------------------------------------------

/// Every registry test restores the built-ins on exit: the registry is
/// process-global and load_file/resolve(path) mutate it.
struct RegistryGuard {
  ~RegistryGuard() { ProcessorRegistry::instance().reset(); }
};

TEST(Registry, BuiltinsResolveByKeyAndNameCaseInsensitive) {
  RegistryGuard guard;
  ProcessorRegistry& reg = ProcessorRegistry::instance();
  EXPECT_TRUE(reg.resolve("a64fx") == a64fx());
  EXPECT_TRUE(reg.resolve("A64FX") == a64fx());
  EXPECT_TRUE(reg.resolve("skylake") == skylake8168_dual());
  EXPECT_TRUE(reg.resolve("Skylake-8168x2") == skylake8168_dual());
  EXPECT_TRUE(reg.resolve("broadwell") == broadwell_dual());
}

TEST(Registry, PowerModeSuffixesResolveOnlyWhenDeclared) {
  RegistryGuard guard;
  ProcessorRegistry& reg = ProcessorRegistry::instance();
  EXPECT_TRUE(reg.resolve("a64fx-boost") ==
              with_power_mode(a64fx(), PowerMode::kBoost));
  EXPECT_TRUE(reg.resolve("a64fx-eco") ==
              with_power_mode(a64fx(), PowerMode::kEco));
  EXPECT_THROW((void)reg.resolve("skylake-boost"), Error);
  EXPECT_THROW((void)reg.resolve("skylake-eco"), Error);
}

TEST(Registry, UnknownTokenListsTheKnownKeys) {
  RegistryGuard guard;
  try {
    (void)ProcessorRegistry::instance().resolve("epyc");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("epyc"), std::string::npos);
    EXPECT_NE(msg.find("a64fx"), std::string::npos);
  }
}

TEST(Registry, ComparisonSetsMatchTheRoles) {
  RegistryGuard guard;
  const std::vector<ProcessorConfig> cmp =
      ProcessorRegistry::instance().comparison_set();
  ASSERT_EQ(cmp.size(), 3u);
  EXPECT_TRUE(cmp[0] == a64fx());
  EXPECT_TRUE(cmp[1] == skylake8168_dual());
  EXPECT_TRUE(cmp[2] == thunderx2_dual());
  const std::vector<ProcessorConfig> ext =
      ProcessorRegistry::instance().extended_comparison_set();
  ASSERT_EQ(ext.size(), 4u);
  EXPECT_TRUE(ext[3] == broadwell_dual());
}

TEST(Registry, LoadFileReplacesSameNamePreservingKeyAndRole) {
  RegistryGuard guard;
  ProcessorRegistry& reg = ProcessorRegistry::instance();
  ProcessorConfig fast = a64fx();
  fast.freq_hz = 2.4e9;
  const std::string path =
      ::testing::TempDir() + "/registry_replace_a64fx.json";
  {
    std::ofstream out(path, std::ios::binary);
    out << to_descriptor(fast);
  }
  EXPECT_TRUE(reg.load_file(path) == fast);
  // The old key still resolves — to the replacement — and the comparison set
  // picked it up without any call-site change.
  EXPECT_TRUE(reg.resolve("a64fx") == fast);
  EXPECT_TRUE(reg.comparison_set()[0] == fast);
  reg.reset();
  EXPECT_TRUE(reg.resolve("a64fx") == a64fx());
}

TEST(Registry, ResolvingAPathLoadsAndRegistersIt) {
  RegistryGuard guard;
  ProcessorRegistry& reg = ProcessorRegistry::instance();
  ProcessorConfig custom = thunderx2_dual();
  custom.name = "TX2-custom";
  custom.freq_hz = 2.2e9;
  const std::string path = ::testing::TempDir() + "/registry_custom.json";
  {
    std::ofstream out(path, std::ios::binary);
    out << to_descriptor(custom);
  }
  EXPECT_TRUE(reg.resolve(path) == custom);
  // Registered under its name now; no path needed the second time.
  EXPECT_TRUE(reg.resolve("TX2-custom") == custom);
}

// ----- calibration --------------------------------------------------------

TEST(Calibrate, FitIsDeterministicAndSelfConsistent) {
  const CalibrationOptions opt;
  const CalibrationMeasurements m = synthetic_measurements(a64fx(), 42, 0.02);
  const ProcessorConfig a = fit_descriptor(m, opt);
  const ProcessorConfig b = fit_descriptor(m, opt);
  EXPECT_TRUE(a == b);
  EXPECT_EQ(to_descriptor(a), to_descriptor(b));
  // The fitted descriptor survives emit -> parse field for field, and the
  // parsed config re-emits the same bytes.
  const std::string emitted = to_descriptor(a);
  const ProcessorConfig reparsed = parse_descriptor(emitted);
  EXPECT_TRUE(reparsed == a);
  EXPECT_EQ(to_descriptor(reparsed), emitted);
  // Synthetic measurements are themselves a pure function of (cfg, seed).
  EXPECT_TRUE(m == synthetic_measurements(a64fx(), 42, 0.02));
  EXPECT_FALSE(m == synthetic_measurements(a64fx(), 43, 0.02));
}

TEST(Calibrate, SyntheticFitLandsNearTheAnalyticCeilings) {
  const CalibrationOptions opt;
  const ProcessorConfig analytic = a64fx();
  const ProcessorConfig fitted =
      fit_descriptor(synthetic_measurements(analytic, 42, 0.02), opt);
  // 2% injected noise + 3-significant-digit quantisation: 5% gate.
  EXPECT_NEAR(fitted.freq_hz / analytic.freq_hz, 1.0, 0.05);
  EXPECT_NEAR(fitted.node_mem_bw() / analytic.node_mem_bw(), 1.0, 0.05);
  EXPECT_EQ(fitted.cores(), analytic.cores());
  EXPECT_EQ(fitted.shape.numa_per_node(), analytic.shape.numa_per_node());
}

TEST(Calibrate, MeasurementsJsonRoundTripsAndRejectsGarbage) {
  const CalibrationMeasurements m = synthetic_measurements(a64fx(), 7, 0.02);
  const std::string text = measurements_to_json(m);
  EXPECT_TRUE(parse_measurements(text) == m);
  EXPECT_THROW((void)parse_measurements("{}"), Error);
  EXPECT_THROW((void)parse_measurements(text + "trailing"), Error);
  std::string negative = text;
  const std::size_t pos = negative.find("\"freq_hz\": ");
  ASSERT_NE(pos, std::string::npos);
  negative.insert(pos + std::string("\"freq_hz\": ").size(), "-");
  EXPECT_THROW((void)parse_measurements(negative), Error);
}

}  // namespace
}  // namespace fibersim::machine
