// The byte-identity contract of collapsed simulation (DESIGN.md "Collapsed
// simulation and the hierarchical network model"): wherever a full
// simulation is feasible, executing one representative rank per symmetry
// class and replicating the rest analytically must reproduce the full run's
// trace, its prediction and its report output bit for bit — across every
// miniapp and dataset. These tests pin that contract at rank counts where
// both paths run, which is what licenses trusting the collapsed path at
// 10^5-10^6 ranks where the full path cannot.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/hash.hpp"
#include "core/reports.hpp"
#include "core/runner.hpp"
#include "machine/network_model.hpp"
#include "miniapps/miniapp.hpp"
#include "mp/job.hpp"
#include "mp/symmetry.hpp"
#include "native_trace.hpp"
#include "oracle_predict.hpp"
#include "trace/canonical.hpp"
#include "trace/collapsed.hpp"
#include "trace/predict.hpp"
#include "trace/recorder.hpp"
#include "trace/trace_store.hpp"

namespace fibersim {
namespace {

namespace fs = std::filesystem;

/// Unique scratch directory, removed on destruction.
struct TempDir {
  explicit TempDir(const std::string& tag) {
    static std::atomic<int> counter{0};
    path = fs::temp_directory_path() /
           ("fibersim-test-" + tag + "-" +
            std::to_string(static_cast<long>(::getpid())) + "-" +
            std::to_string(counter.fetch_add(1)));
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  fs::path path;
  std::string str() const { return path.string(); }
};

using oracle::expect_identical;
using oracle::same_bits;

// 16 ranks is the smallest count where every app in the suite collapses:
// the 3-D cart apps (ffvc, ffb) land on a 4x2x2 grid with interior x
// coordinates (12 classes), the 1-D counts apps all divide evenly (1 class).
constexpr int kRanks = 16;
constexpr int kThreads = 2;
constexpr int kIterations = 1;
constexpr std::uint64_t kSeed = 42;

trace::JobTrace run_full(const std::string& name, apps::Dataset dataset) {
  return record_native(name, kRanks, kThreads, dataset, kIterations, kSeed)
      .trace;
}

trace::CollapsedTrace run_collapsed(const std::string& name,
                                    apps::Dataset dataset,
                                    int ranks = kRanks) {
  const mp::CollapseSpec spec =
      apps::create_miniapp(name)->collapse_spec(dataset, /*weak_scale=*/1);
  EXPECT_TRUE(spec.collapsible()) << name << " declares no collapse spec";
  mp::RankSymmetry symmetry = mp::RankSymmetry::build(spec, ranks);
  trace::JobTrace reps(static_cast<std::size_t>(symmetry.classes()));
  mp::Job::run_collapsed(symmetry, [&](mp::Comm& comm) {
    trace::Recorder rec(&comm);
    (void)run_rank(comm, rec, name, kThreads, dataset, kIterations, kSeed);
    reps[static_cast<std::size_t>(symmetry.class_of(comm.rank()))] =
        rec.phases();
  });
  return trace::CollapsedTrace::assemble(std::move(symmetry), reps);
}

struct CollapseCase {
  std::string app;
  apps::Dataset dataset;
};

void PrintTo(const CollapseCase& c, std::ostream* os) {
  *os << c.app << "_"
      << (c.dataset == apps::Dataset::kSmall ? "small" : "large");
}

std::vector<CollapseCase> all_cases() {
  std::vector<CollapseCase> cases;
  for (const auto& name : apps::registry_names()) {
    cases.push_back({name, apps::Dataset::kSmall});
    cases.push_back({name, apps::Dataset::kLarge});
  }
  return cases;
}

class CollapseByteIdentity : public ::testing::TestWithParam<CollapseCase> {};

/// Whether any phase of `trace` routes two distinct inter-node pairs over one
/// torus link — the only case in which contention charges foreign bytes.
bool routes_share_a_link(const trace::JobTrace& trace,
                         const topo::Binding& binding,
                         const machine::TorusMap& torus) {
  for (std::size_t p = 0; p < trace.front().size(); ++p) {
    std::map<int, std::set<std::pair<int, int>>> pairs_on_link;
    for (int r = 0; r < binding.ranks(); ++r) {
      for (const auto& [dst, traffic] :
           trace[static_cast<std::size_t>(r)][p].comm.sends) {
        const int a = binding.node_of(r);
        const int b = binding.node_of(dst);
        if (a == b || traffic.bytes == 0) continue;
        std::vector<int> links;
        torus.route_links(a, b, &links);
        for (const int link : links) pairs_on_link[link].insert({a, b});
      }
    }
    for (const auto& [link, pairs] : pairs_on_link) {
      if (pairs.size() > 1) return true;
    }
  }
  return false;
}

// The core contract: CollapsedTrace::expand() equals the JobTrace a full
// run records, bit for bit, for every rank and phase.
TEST_P(CollapseByteIdentity, ExpandEqualsFullRun) {
  const CollapseCase c = GetParam();
  const trace::JobTrace full = run_full(c.app, c.dataset);
  const trace::CollapsedTrace collapsed = run_collapsed(c.app, c.dataset);
  EXPECT_GT(collapsed.native_ranks(), 0);
  EXPECT_LT(collapsed.native_ranks(), kRanks)
      << c.app << " collapse saved nothing at " << kRanks << " ranks";
  SCOPED_TRACE(c.app);
  expect_traces_identical(collapsed.expand(), full);
}

// The collapsed prediction path never materialises the expansion; it must
// still produce bit-identical numbers to the naive and canonical paths — on
// one node, across four (torus hops, and routes that share links so
// contention charges foreign bytes) and across sixteen (one rank per node,
// several flows per source node), with and without a memo shared by both
// class-replay paths and every binding — on a packed A64FX and on a
// dual-socket Skylake with cyclic ranks and scattered threads.
TEST_P(CollapseByteIdentity, PredictionBitsAgreeAcrossAllThreePaths) {
  const CollapseCase c = GetParam();
  const trace::JobTrace full = run_full(c.app, c.dataset);
  const trace::CollapsedTrace collapsed = run_collapsed(c.app, c.dataset);
  const trace::CanonicalTrace canonical = trace::CanonicalTrace::build(full);

  const auto opts = cg::CompileOptions::simd_sched();
  machine::EvalCache stage1;
  const trace::PredictMemo memo{&stage1};

  // A64FX packed, and a dual-socket Skylake with cyclic ranks and scattered
  // threads, so the engine's flat placement arrays carry every case the
  // naive path distinguishes.
  struct Placement {
    machine::ProcessorConfig cfg;
    topo::RankAllocPolicy alloc;
    topo::ThreadBindPolicy bind;
  };
  for (const Placement& placement :
       {Placement{machine::a64fx(), topo::RankAllocPolicy::kBlock,
                  topo::ThreadBindPolicy::compact()},
        Placement{machine::skylake8168_dual(), topo::RankAllocPolicy::kCyclic,
                  topo::ThreadBindPolicy::scatter()}}) {
    const machine::ProcessorConfig& cfg = placement.cfg;
    const bool scattered = placement.bind == topo::ThreadBindPolicy::scatter();
    for (const int nodes : {1, 4, kRanks}) {
      SCOPED_TRACE(cfg.name + ", " + std::to_string(nodes) + " node(s)");
      const topo::Topology topo(cfg.shape, nodes);
      const topo::Binding binding = topo::Binding::make(
          topo, kRanks, kThreads, placement.alloc, placement.bind);
      if (nodes == 1) {
        // A64FX: ranks in different CMGs of the socket (ring latency).
        // Skylake: teams across the socket link (kSameNode barrier), whose
        // second thread's DRAM domain is not the rank's home.
        bool same_socket_ranks = false;
        bool cross_socket_team = false;
        bool split_team = false;
        for (int r = 0; r < kRanks; ++r) {
          same_socket_ranks |=
              binding.rank_distance(0, r) == topo::Distance::kSameSocket;
          cross_socket_team |=
              binding.team_span(r) == topo::Distance::kSameNode;
          split_team |= binding.thread_numa(r, 1) != binding.home_numa(r);
        }
        EXPECT_EQ(same_socket_ranks, !scattered);
        EXPECT_EQ(cross_socket_team, scattered);
        EXPECT_EQ(split_team, scattered);
      }
      if (nodes > 1) {
        // Ranks fill nodes in consecutive blocks: the first and the last
        // rank sit on different nodes.
        ASSERT_EQ(binding.rank_distance(0, kRanks - 1),
                  topo::Distance::kRemoteNode);
      }
      if (nodes == kRanks) {
        // One rank per node on a 4x2x2 torus: every send is remote, and each
        // source node's flows form a multi-entry chain.
        for (int r = 0; r < kRanks; ++r) ASSERT_EQ(binding.node_of(r), r);
      }

      const auto naive = oracle::predict_job(cfg, opts, binding, full);
      const auto canonical_bare =
          trace::predict_job(cfg, opts, binding, canonical);
      const auto collapsed_bare =
          trace::predict_job(cfg, opts, binding, collapsed);
      const auto canonical_memo =
          trace::predict_job(cfg, opts, binding, canonical, memo);
      const auto collapsed_memo =
          trace::predict_job(cfg, opts, binding, collapsed, memo);

      SCOPED_TRACE(c.app);
      for (const auto* pred : {&canonical_bare, &collapsed_bare,
                               &canonical_memo, &collapsed_memo}) {
        expect_identical(*pred, naive);
      }

      if (nodes == kRanks) {
        // Only foreign bytes on shared links are charged at net.link_bw, so
        // halving it moves comm_s exactly when some phase routes two node
        // pairs over one link (recounted here from the routes alone) — on
        // every path, by the same bits.
        machine::ProcessorConfig slow = cfg;
        slow.net.link_bw /= 2;
        const auto slow_naive = oracle::predict_job(slow, opts, binding, full);
        if (routes_share_a_link(full, binding, machine::TorusMap(nodes))) {
          EXPECT_GT(slow_naive.comm_s, naive.comm_s);
        } else {
          EXPECT_TRUE(same_bits(slow_naive.comm_s, naive.comm_s));
        }
        for (const auto& pred :
             {trace::predict_job(slow, opts, binding, canonical, memo),
              trace::predict_job(slow, opts, binding, collapsed, memo)}) {
          EXPECT_TRUE(same_bits(pred.comm_s, slow_naive.comm_s));
          EXPECT_TRUE(same_bits(pred.total_s, slow_naive.total_s));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllAppsAllDatasets, CollapseByteIdentity,
                         ::testing::ValuesIn(all_cases()),
                         ::testing::PrintToStringParamName());

/// The apps whose ranks exchange point-to-point halos on a cartesian grid.
std::vector<std::string> cart_apps() {
  std::vector<std::string> names;
  for (const auto& name : apps::registry_names()) {
    if (apps::create_miniapp(name)
            ->collapse_spec(apps::Dataset::kSmall, /*weak_scale=*/1)
            .kind == mp::CollapseSpec::Kind::kCart) {
      names.push_back(name);
    }
  }
  return names;
}

// send_view must agree with the per-rank maps of the expansion (same dsts,
// same counts, ascending order) — the prediction path consumes it directly.
// At 16 ranks periodic dimensions of 2 make the +1 and -1 steps land on one
// rank (merged); at 2 ranks dimensions of 1 make both land on the rank
// itself. Members off the periodic edge read the class template; the rest
// take the sort-and-merge fallback, and both must match.
TEST(CollapsedTrace, RankSendsMatchExpandedRecords) {
  const std::vector<std::string> names = cart_apps();
  ASSERT_EQ(names.size(), 5u);
  for (const std::string& name : names) {
    for (const apps::Dataset dataset :
         {apps::Dataset::kSmall, apps::Dataset::kLarge}) {
      for (const int ranks : {kRanks, 2}) {
        SCOPED_TRACE(name + (dataset == apps::Dataset::kSmall ? " small "
                                                              : " large ") +
                     std::to_string(ranks) + " ranks");
        const trace::CollapsedTrace collapsed =
            run_collapsed(name, dataset, ranks);
        const trace::JobTrace expanded = collapsed.expand();
        std::vector<trace::CollapsedTrace::RankSend> scratch;
        for (std::size_t p = 0; p < collapsed.phase_count(); ++p) {
          for (int r = 0; r < collapsed.ranks(); ++r) {
            const auto& map =
                expanded[static_cast<std::size_t>(r)][p].comm.sends;
            const trace::CollapsedTrace::SendView view =
                collapsed.send_view(p, r, &scratch);
            ASSERT_EQ(view.sends.size(), map.size())
                << "rank " << r << " phase " << p;
            std::size_t i = 0;
            for (const auto& [dst, flow] : map) {
              EXPECT_EQ(view.base + view.sends[i].dst, dst);
              EXPECT_EQ(view.sends[i].messages, flow.messages);
              EXPECT_EQ(view.sends[i].bytes, flow.bytes);
              ++i;
            }
          }
        }
      }
    }
  }
}

// A remote send of zero bytes (a bare synchronisation message) to a node
// pair that also carries bytes pays that pair's foreign bytes on both paths:
// the engine registers the pair in pass A without adding to its bytes.
TEST(ClassReplay, ZeroByteRemoteSendCostsLikeTheNaivePath) {
  trace::JobTrace full = run_full("ffvc", apps::Dataset::kSmall);
  const auto cfg = machine::a64fx();
  const auto opts = cg::CompileOptions::simd_sched();
  const topo::Topology topo(cfg.shape, 4);  // ranks 4n .. 4n+3 on node n
  const topo::Binding binding = topo::Binding::make(
      topo, kRanks, kThreads, topo::RankAllocPolicy::kBlock,
      topo::ThreadBindPolicy::compact());
  ASSERT_EQ(binding.node_of(1), 0);
  ASSERT_EQ(binding.node_of(6), 1);
  // Rank 0 -> 4 is an x step of the 4x2x2 grid carrying bytes from node 0
  // to node 1 in every exchange phase; rank 1 -> 6 adds a zero-byte send
  // on that pair beside it, and rank 1 -> 15 one to a pair nothing loads.
  std::size_t touched = 0;
  for (std::size_t p = 0; p < full.front().size(); ++p) {
    const auto& sends0 = full[0][p].comm.sends;
    const auto it = sends0.find(4);
    if (it == sends0.end() || it->second.bytes == 0) continue;
    auto& sends1 = full[1][p].comm.sends;
    ASSERT_EQ(sends1.count(6), 0u);
    sends1[6] = mp::PeerTraffic{3, 0};
    sends1[15] = mp::PeerTraffic{2, 0};
    ++touched;
  }
  ASSERT_GT(touched, 0u);
  // The loaded pair shares a link with another pair in some phase, so the
  // zero-byte send is charged nonzero foreign bytes there.
  const machine::TorusMap torus(topo.nodes());
  bool contended = false;
  for (std::size_t p = 0; p < full.front().size(); ++p) {
    machine::LinkContention contention(&torus);
    for (int r = 0; r < kRanks; ++r) {
      for (const auto& [dst, traffic] :
           full[static_cast<std::size_t>(r)][p].comm.sends) {
        const int a = binding.node_of(r);
        const int b = binding.node_of(dst);
        if (a != b) contention.add_flow(a, b, traffic.bytes);
      }
    }
    contention.seal();
    contended |= full[1][p].comm.sends.count(6) != 0 &&
                 contention.foreign_bytes(0, 1) > 0;
  }
  EXPECT_TRUE(contended);
  const trace::CanonicalTrace canonical = trace::CanonicalTrace::build(full);
  const auto naive = oracle::predict_job(cfg, opts, binding, full);
  expect_identical(trace::predict_job(cfg, opts, binding, canonical), naive);
}

// A destination outside the job (a damaged store entry, say) is rejected
// with an error on both paths, never read past the placement arrays.
TEST(ClassReplay, RejectsASendOutsideTheJob) {
  trace::JobTrace full = run_full("ffvc", apps::Dataset::kSmall);
  full[3][0].comm.sends[kRanks] = mp::PeerTraffic{1, 8};
  const auto cfg = machine::a64fx();
  const auto opts = cg::CompileOptions::simd_sched();
  const topo::Topology topo(cfg.shape, 4);
  const topo::Binding binding = topo::Binding::make(
      topo, kRanks, kThreads, topo::RankAllocPolicy::kBlock,
      topo::ThreadBindPolicy::compact());
  EXPECT_THROW(oracle::predict_job(cfg, opts, binding, full), Error);
  EXPECT_THROW(trace::predict_job(cfg, opts, binding,
                                  trace::CanonicalTrace::build(full)),
               Error);
}

// A phase in which no rank sends point to point (ffvc's init and project,
// every mvmc and ngsa phase) skips pass A, the seal and the per-rank comm
// stream: its comm_s is the max over classes of 0.0 plus the class's
// collective terms, the stream's own fold, so the bits match the naive path.
TEST(ClassReplay, SendFreePhasesCostLikeTheNaivePath) {
  const auto cfg = machine::a64fx();
  const auto opts = cg::CompileOptions::simd_sched();
  const topo::Topology topo(cfg.shape, 4);
  const topo::Binding binding = topo::Binding::make(
      topo, kRanks, kThreads, topo::RankAllocPolicy::kBlock,
      topo::ThreadBindPolicy::compact());
  std::size_t send_free_with_comm = 0;
  for (const std::string app : {"ffvc", "mvmc", "ngsa"}) {
    SCOPED_TRACE(app);
    const trace::JobTrace full = run_full(app, apps::Dataset::kSmall);
    const trace::CanonicalTrace canonical = trace::CanonicalTrace::build(full);
    const trace::CollapsedTrace collapsed =
        run_collapsed(app, apps::Dataset::kSmall);
    const auto naive = oracle::predict_job(cfg, opts, binding, full);
    std::size_t send_free = 0;
    for (std::size_t p = 0; p < naive.phases.size(); ++p) {
      bool sends = false;
      for (const trace::RankTrace& rank : full) {
        sends |= !rank[p].comm.sends.empty();
      }
      if (sends) continue;
      ++send_free;
      if (naive.phases[p].comm_s > 0.0) ++send_free_with_comm;
    }
    EXPECT_GT(send_free, 0u);
    for (const auto& replay :
         {trace::predict_job(cfg, opts, binding, canonical),
          trace::predict_job(cfg, opts, binding, collapsed)}) {
      expect_identical(replay, naive);
    }
  }
  EXPECT_GT(send_free_with_comm, 0u)
      << "no send-free phase pays collectives: the test proves nothing";

  // Classes with several collective terms each, and a different slowest
  // class per phase: each class folds its terms in order from 0.0, and the
  // phase takes the max over classes.
  trace::JobTrace full = run_full("mvmc", apps::Dataset::kSmall);
  for (int r = 0; r < kRanks; ++r) {
    for (std::size_t p = 0; p < full.front().size(); ++p) {
      auto& coll = full[static_cast<std::size_t>(r)][p].comm.collectives;
      if (r % 2 == 0) {
        coll[mp::CollectiveKind::kBcast] = {2, 4096u << p};
        coll[mp::CollectiveKind::kScan] = {3, 24};
      } else {
        coll[mp::CollectiveKind::kAlltoall] = {1, 65536u >> p};
      }
    }
  }
  const auto naive = oracle::predict_job(cfg, opts, binding, full);
  const auto replay = trace::predict_job(cfg, opts, binding,
                                         trace::CanonicalTrace::build(full));
  expect_identical(replay, naive);
}

// ----- class replay above the phase fan-out threshold -----

// The class-replay engine predicts the phases of a job concurrently from
// 2^14 thread slots (ranks x threads, kPhaseFanOutSlots in
// src/trace/predict.cpp). 342 ranks, one per A64FX node of a 19x6x3 torus
// (wrap-around routes, an even ring), with 48 threads each stream 16416
// slots; 342 ranks x 1 thread stream 342 and stay on the serial loop. The
// work of a rank does not depend on its team size, so both bindings replay
// one single-threaded native run of ffvc, whose trace holds point-to-point
// phases and send-free ones.
constexpr int kFanOutRanks = 342;
constexpr int kFanOutThreads = 48;
static_assert(kFanOutRanks * kFanOutThreads >= (1 << 14));
static_assert(kFanOutRanks * 1 < (1 << 14));

struct FanOutJob {
  trace::JobTrace full;
  trace::CollapsedTrace collapsed;
};

const FanOutJob& fan_out_job() {
  static const FanOutJob job{
      record_native("ffvc", kFanOutRanks, 1).trace,
      record_collapsed("ffvc", kFanOutRanks, 1)};
  return job;
}

topo::Binding fan_out_binding(const topo::Topology& topo, int threads) {
  return topo::Binding::make(topo, kFanOutRanks, threads,
                             topo::RankAllocPolicy::kBlock,
                             topo::ThreadBindPolicy::compact());
}

TEST(PhaseFanOut, EveryEngineMatchesTheNaivePathBitForBit) {
  const FanOutJob& job = fan_out_job();
  const trace::CanonicalTrace canonical =
      trace::CanonicalTrace::build(job.full);
  const auto cfg = machine::a64fx();
  const topo::Topology topo(cfg.shape, kFanOutRanks);
  const topo::Binding binding = fan_out_binding(topo, kFanOutThreads);
  ASSERT_EQ(machine::TorusMap(kFanOutRanks).dims(),
            (std::array<int, 3>{19, 6, 3}));
  machine::EvalCache stage1;
  const trace::PredictMemo memo{&stage1};

  const std::vector<cg::CompileOptions> presets = {
      cg::CompileOptions::as_is(), cg::CompileOptions::simd_enhanced(),
      cg::CompileOptions::simd_sched()};
  std::vector<trace::JobPrediction> naive;
  for (const cg::CompileOptions& opts : presets) {
    naive.push_back(oracle::predict_job(cfg, opts, binding, job.full));
  }
  bool send_free = false;
  bool point_to_point = false;
  for (std::size_t p = 0; p < job.full.front().size(); ++p) {
    bool sends = false;
    for (const trace::RankTrace& rank : job.full) {
      sends |= !rank[p].comm.sends.empty();
    }
    (sends ? point_to_point : send_free) = true;
  }
  EXPECT_TRUE(send_free);
  EXPECT_TRUE(point_to_point);
  EXPECT_GT(naive.back().comm_s, 0.0);

  for (std::size_t k = 0; k < presets.size(); ++k) {
    SCOPED_TRACE("preset " + std::to_string(k));
    expect_identical(
        trace::predict_job(cfg, presets[k], binding, canonical), naive[k]);
    expect_identical(
        trace::predict_job(cfg, presets[k], binding, job.collapsed), naive[k]);
    expect_identical(
        trace::predict_job(cfg, presets[k], binding, canonical, memo),
        naive[k]);
    expect_identical(
        trace::predict_job(cfg, presets[k], binding, job.collapsed, memo),
        naive[k]);
  }
  for (const auto& all :
       {trace::predict_presets(cfg, presets, binding, canonical, memo),
        trace::predict_presets(cfg, presets, binding, job.collapsed, memo)}) {
    ASSERT_EQ(all.size(), presets.size());
    for (std::size_t k = 0; k < presets.size(); ++k) {
      SCOPED_TRACE("predict_presets " + std::to_string(k));
      expect_identical(all[k], naive[k]);
    }
  }
}

/// The message a predict throws, or "" when it returns.
template <typename Fn>
std::string thrown_by(Fn&& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

// A failing phase surfaces above the threshold exactly as on the serial
// loop: the first failing phase's error, not a later one's.
TEST(PhaseFanOut, TheFirstFailingPhaseThrowsAsOnTheSerialPath) {
  trace::JobTrace full = fan_out_job().full;
  const std::size_t phases = full.front().size();
  ASSERT_GE(phases, 3u);
  // Sends outside the job in phase 1 and in the last phase.
  full[3][1].comm.sends[kFanOutRanks] = mp::PeerTraffic{1, 8};
  full[5][phases - 1].comm.sends[kFanOutRanks + 1] = mp::PeerTraffic{1, 8};
  const trace::CanonicalTrace canonical = trace::CanonicalTrace::build(full);
  const auto cfg = machine::a64fx();
  const auto opts = cg::CompileOptions::simd_sched();
  const topo::Topology topo(cfg.shape, kFanOutRanks);
  const topo::Binding serial = fan_out_binding(topo, 1);
  const topo::Binding fanned = fan_out_binding(topo, kFanOutThreads);

  const std::string expected = thrown_by(
      [&] { (void)trace::predict_job(cfg, opts, serial, canonical); });
  EXPECT_NE(expected.find("in phase " + full[0][1].name), std::string::npos)
      << expected;
  EXPECT_EQ(thrown_by([&] {
              (void)trace::predict_job(cfg, opts, fanned, canonical);
            }),
            expected);
  const std::vector<cg::CompileOptions> presets = {opts, opts};
  EXPECT_EQ(thrown_by([&] {
              (void)trace::predict_presets(cfg, presets, fanned, canonical);
            }),
            expected);
}

// The cancel token is thread-local to the caller; the phase contexts check
// the caller's token, so an expired or cancelled one stops a fanned-out
// predict with checkpoint()'s own message.
TEST(PhaseFanOut, ACancelledTokenStopsItAsOnTheSerialPath) {
  const FanOutJob& job = fan_out_job();
  const auto cfg = machine::a64fx();
  const auto opts = cg::CompileOptions::simd_sched();
  const topo::Topology topo(cfg.shape, kFanOutRanks);
  const topo::Binding serial = fan_out_binding(topo, 1);
  const topo::Binding fanned = fan_out_binding(topo, kFanOutThreads);

  auto expired = std::make_shared<cancel::Token>();
  expired->set_deadline(cancel::Token::Clock::now() - std::chrono::seconds(1));
  auto cancelled = std::make_shared<cancel::Token>();
  cancelled->cancel("client gone");
  for (const auto& [token, message] :
       {std::pair{expired, "cancelled: deadline exceeded"},
        std::pair{cancelled, "cancelled: client gone"}}) {
    cancel::Scope scope(token);
    for (const topo::Binding* binding : {&serial, &fanned}) {
      EXPECT_EQ(thrown_by([&] {
                  (void)trace::predict_job(cfg, opts, *binding,
                                           job.collapsed);
                }),
                message);
    }
  }
  // Without the token the same predict runs.
  EXPECT_EQ(thrown_by([&] {
              (void)trace::predict_job(cfg, opts, fanned, job.collapsed);
            }),
            "");
}

// ----- rank symmetry -----

/// The map-based RankSymmetry::build the flat build replaced, kept as its
/// oracle: one heap signature per rank, classes numbered by first appearance
/// through a std::map lookup.
std::vector<int> oracle_class_of(const mp::CollapseSpec& spec, int size) {
  std::optional<mp::CartGrid> grid;
  if (spec.kind == mp::CollapseSpec::Kind::kCart) {
    grid.emplace(mp::dims_create(size, spec.ndims), spec.periodic);
  }
  auto split_extent = [](std::int64_t total, int n, int coord) {
    return total / n + (coord < total % n ? 1 : 0);
  };
  std::vector<int> class_of;
  std::map<std::vector<std::int64_t>, int> index;
  for (int rank = 0; rank < size; ++rank) {
    std::vector<std::int64_t> sig;
    if (spec.kind == mp::CollapseSpec::Kind::kCart) {
      const mp::CartCoords coords = grid->coords_of(rank);
      for (int d = 0; d < spec.ndims; ++d) {
        const std::size_t ud = static_cast<std::size_t>(d);
        const int n = grid->dims()[ud];
        sig.push_back(split_extent(spec.global[ud], n, coords[ud]));
        if (!spec.periodic) {
          sig.push_back(coords[ud] == 0 ? 1 : 0);
          sig.push_back(coords[ud] == n - 1 ? 1 : 0);
        }
      }
    } else {
      if (spec.cyclic_total > 0) {
        sig.push_back(spec.cyclic_total / size +
                      (rank < spec.cyclic_total % size ? 1 : 0));
      }
      if (spec.block_total > 0) {
        sig.push_back(split_extent(spec.block_total, size, rank));
      }
      if (spec.slice_total > 0) {
        sig.push_back(spec.slice_total * (rank + 1) / size -
                      spec.slice_total * rank / size);
      }
    }
    const auto [it, inserted] =
        index.emplace(sig, static_cast<int>(index.size()));
    class_of.push_back(it->second);
  }
  return class_of;
}

// The flat build partitions and numbers ranks exactly as the map-based one
// did (so fingerprints and stored collapsed traces do not move), for every
// app's spec, at the weak-scaling factor E2X uses too; and each class
// member's edge mask says exactly which grid steps leave the plain
// rank + step_offset arithmetic.
TEST(RankSymmetry, FlatBuildMatchesTheMapOracle) {
  for (const auto& name : apps::registry_names()) {
    const auto app = apps::create_miniapp(name);
    for (const int ranks : {16, 1024, 102400}) {
      for (const auto& [dataset, weak] :
           {std::pair{apps::Dataset::kSmall, 1},
            std::pair{apps::Dataset::kLarge, 1},
            std::pair{apps::Dataset::kLarge, ranks / 4}}) {
        SCOPED_TRACE(name + " " + std::to_string(ranks) + " ranks, weak x" +
                     std::to_string(weak));
        const mp::CollapseSpec spec = app->collapse_spec(dataset, weak);
        const mp::RankSymmetry sym = mp::RankSymmetry::build(spec, ranks);
        const std::vector<int> expected = oracle_class_of(spec, ranks);
        std::vector<int> got(static_cast<std::size_t>(ranks));
        std::int64_t members = 0;
        for (int c = 0; c < sym.classes(); ++c) {
          ASSERT_FALSE(sym.members(c).empty());
          EXPECT_EQ(sym.representative(c), sym.members(c).front());
          members += sym.weight(c);
          for (const int m : sym.members(c)) {
            got[static_cast<std::size_t>(m)] = c;
          }
        }
        EXPECT_EQ(members, ranks);
        for (int r = 0; r < ranks; ++r) {
          ASSERT_EQ(sym.class_of(r), expected[static_cast<std::size_t>(r)])
              << "rank " << r;
          ASSERT_EQ(got[static_cast<std::size_t>(r)], sym.class_of(r));
        }
        if (spec.kind != mp::CollapseSpec::Kind::kCart || ranks > 1024) {
          continue;
        }
        const mp::CartGrid grid(mp::dims_create(ranks, spec.ndims),
                                spec.periodic);
        for (int r = 0; r < ranks; ++r) {
          const mp::CartCoords coords = grid.coords_of(r);
          for (int d = 0; d < spec.ndims; ++d) {
            const int c = coords[static_cast<std::size_t>(d)];
            const int n = grid.dims()[static_cast<std::size_t>(d)];
            for (const int dir : {+1, -1}) {
              const bool leaves = dir > 0 ? c == n - 1 : c == 0;
              const bool edge =
                  (sym.edge_mask(r) & mp::RankSymmetry::step_bit(d, dir)) != 0;
              EXPECT_EQ(edge, leaves) << "rank " << r << " step " << d << "/"
                                      << dir;
              if (!leaves) {
                EXPECT_EQ(sym.neighbor_of(r, d, dir),
                          r + sym.step_offset(d, dir));
              }
            }
          }
        }
      }
    }
  }
}

// ----- collapsed data plane -----

// Every collective of a collapsed run on a non-periodic 2-D grid of 24 ranks
// (6x4; 9 classes of 1, 2, 4 or 8 members), each class contributing distinct
// values, with the rooted collectives at a non-zero representative. The
// FNV-1a over every output buffer of every slot is the value the collapsed
// data plane produced when first pinned: a weighted fold run in another
// order or a block expanded by the wrong class moves it, so a change here is
// a change of collapsed results, never a refactor.
TEST(CollapsedDataPlane, EveryCollectiveOutputIsPinned) {
  mp::CollapseSpec spec;
  spec.kind = mp::CollapseSpec::Kind::kCart;
  spec.ndims = 2;
  spec.periodic = false;
  spec.global = {17, 19, 0, 0};
  const mp::RankSymmetry sym = mp::RankSymmetry::build(spec, 24);
  ASSERT_EQ(sym.classes(), 9);
  const int root = sym.representative(4);
  ASSERT_NE(root, 0);
  ASSERT_EQ(sym.weight(4), 8);
  const int n = sym.size();
  const std::size_t un = static_cast<std::size_t>(n);

  std::vector<std::uint64_t> slot_hashes(
      static_cast<std::size_t>(sym.classes()));
  mp::Job::run_collapsed(sym, [&](mp::Comm& comm) {
    const int me = comm.rank();
    const double x = 1.0 / (3.0 + me) + 0.1 * me;
    Fnv1a h;
    const auto out = [&h](std::span<const double> data) {
      h.u64(data.size());
      for (const double v : data) h.f64(v);
    };

    std::vector<double> bcast = {x, 2.0 * x, -x};
    if (me != root) std::fill(bcast.begin(), bcast.end(), 0.0);
    comm.bcast(std::span<double>(bcast), root);
    out(bcast);

    std::vector<double> reduced = {x, x * x, -x};
    comm.reduce_sum(reduced, root);
    out(reduced);

    const std::vector<double> block = {x, static_cast<double>(me)};
    std::vector<double> gathered(me == root ? 2 * un : 0);
    comm.gather_bytes(block.data(), 2 * sizeof(double), gathered.data(),
                      root);
    out(gathered);

    std::vector<double> summed = {x, 1.0 / x, x * x};
    comm.allreduce_sum(std::span<double>(summed));
    out(summed);
    const double signed_x = (me % 2 == 0 ? -3.0 : 3.0) * x;
    const std::vector<double> scalars = {
        comm.allreduce_sum(x), comm.allreduce_max(signed_x),
        comm.allreduce_min(signed_x),
        static_cast<double>(comm.allreduce_sum_u64(
            static_cast<std::uint64_t>(1000 * me + 7))),
        comm.scan_sum(x)};
    out(scalars);

    std::vector<double> all(2 * un);
    comm.allgather_bytes(block.data(), 2 * sizeof(double), all.data());
    out(all);

    std::vector<double> to_each(2 * un);
    for (std::size_t i = 0; i < un; ++i) {
      to_each[2 * i] = x + static_cast<double>(i);
      to_each[2 * i + 1] = x * static_cast<double>(i);
    }
    std::vector<double> from_each(2 * un);
    comm.alltoall_bytes(to_each.data(), 2 * sizeof(double), from_each.data());
    out(from_each);

    std::vector<double> slices(2 * un);
    for (std::size_t j = 0; j < slices.size(); ++j) {
      slices[j] = x * static_cast<double>(j + 1) / 7.0;
    }
    std::vector<double> mine(2);
    comm.reduce_scatter_sum(slices, mine);
    out(mine);

    comm.barrier();
    slot_hashes[static_cast<std::size_t>(sym.class_of(me))] = h.value();
  });
  Fnv1a all_slots;
  for (const std::uint64_t v : slot_hashes) all_slots.u64(v);
  EXPECT_EQ(all_slots.value(), 0x845dad678c7ce76eull);
}

// ----- runner integration -----

core::ExperimentConfig collapse_config(const std::string& app,
                                       bool collapse) {
  core::ExperimentConfig cfg;
  cfg.app = app;
  cfg.dataset = apps::Dataset::kSmall;
  cfg.ranks = kRanks;
  cfg.threads = kThreads;
  cfg.iterations = kIterations;
  cfg.collapse = collapse;
  return cfg;
}

TEST(RunnerCollapse, PredictionMatchesFullRunBitForBit) {
  core::Runner runner;
  const auto full = runner.run(collapse_config("ffvc", false));
  const auto coll = runner.run(collapse_config("ffvc", true));
  EXPECT_TRUE(coll.verified);
  EXPECT_TRUE(same_bits(coll.seconds(), full.seconds()));
  EXPECT_TRUE(same_bits(coll.prediction.comm_s, full.prediction.comm_s));
  EXPECT_TRUE(same_bits(coll.prediction.flops, full.prediction.flops));
  // Distinct cache keys: the two runs must not have shared an execution.
  EXPECT_EQ(runner.native_runs(), 2u);
}

TEST(RunnerCollapse, CountersReportClassesAndReplicatedRanks) {
  core::Runner runner;
  (void)runner.run(collapse_config("ffvc", true));
  const std::size_t classes = runner.collapse_classes();
  EXPECT_GT(classes, 0u);
  EXPECT_LT(classes, static_cast<std::size_t>(kRanks));
  EXPECT_EQ(runner.collapse_native_ranks(), classes);
  EXPECT_EQ(runner.collapse_replicated_ranks(),
            static_cast<std::size_t>(kRanks) - classes);
  // A full run must not move the collapse counters.
  (void)runner.run(collapse_config("ffvc", false));
  EXPECT_EQ(runner.collapse_classes(), classes);
}

TEST(RunnerCollapse, StoreRoundTripRehydratesCollapsedExecution) {
  TempDir dir("collapse-store");
  const auto store = std::make_shared<trace::TraceStore>(dir.str());

  core::Runner cold;
  cold.set_trace_store(store);
  const auto first = cold.run(collapse_config("modylas", true));
  EXPECT_EQ(cold.native_runs(), 1u);
  EXPECT_EQ(cold.disk_writes(), 1u);
  const std::size_t classes = cold.collapse_classes();
  EXPECT_GT(classes, 0u);

  // A warm runner loads the representative traces from disk, re-derives the
  // symmetry and replicates — no native execution, identical prediction.
  core::Runner warm;
  warm.set_trace_store(store);
  const auto second = warm.run(collapse_config("modylas", true));
  EXPECT_EQ(warm.native_runs(), 0u);
  EXPECT_EQ(warm.disk_hits(), 1u);
  EXPECT_TRUE(same_bits(second.seconds(), first.seconds()));
  EXPECT_EQ(warm.collapse_classes(), classes);
  EXPECT_EQ(warm.collapse_native_ranks(), 0u);  // nothing executed natively
  EXPECT_EQ(warm.collapse_replicated_ranks(),
            static_cast<std::size_t>(kRanks) - classes);

  // Rehydration assembles from the stored slots' canonical.expand(); the
  // warm trace must match the cold one and a full native run.
  const core::ExperimentConfig cfg = collapse_config("modylas", true);
  const trace::JobTrace warm_trace = warm.expanded_trace(cfg);
  expect_traces_identical(warm_trace, cold.expanded_trace(cfg));
  expect_traces_identical(warm_trace, run_full("modylas", cfg.dataset));
}

TEST(RunnerCollapse, CollapsedAndFullStoreEntriesAreDistinct) {
  TempDir dir("collapse-key");
  const auto store = std::make_shared<trace::TraceStore>(dir.str());
  core::Runner runner;
  runner.set_trace_store(store);
  (void)runner.run(collapse_config("ffvc", true));
  (void)runner.run(collapse_config("ffvc", false));
  // The collapse flag is part of the store key: two writes, no false hit.
  EXPECT_EQ(runner.disk_writes(), 2u);
  EXPECT_EQ(runner.disk_hits(), 0u);
}

// ----- report byte-identity -----

std::string render(const TextTable& t) {
  std::ostringstream os;
  t.print(os);
  return os.str();
}

// The choke point every report funnels through (run_experiments_resilient)
// flips ExperimentConfig::collapse; the rendered bytes must not move. CI
// diffs full reports the same way — this is the in-process pin.
TEST(ReportCollapse, RenderedBytesIdenticalWithAndWithoutCollapse) {
  core::Runner runner;
  core::ReportContext ctx;
  ctx.runner = &runner;
  ctx.app_names = {"ffvc", "modylas"};
  ctx.dataset = apps::Dataset::kSmall;
  ctx.iterations = 1;

  const std::string full = render(core::multinode_scaling_table(ctx, {1, 2}));
  ctx.collapse = true;
  const std::string collapsed =
      render(core::multinode_scaling_table(ctx, {1, 2}));
  EXPECT_EQ(full, collapsed);
  EXPECT_GT(runner.collapse_classes(), 0u);

  ctx.collapse = false;
  const std::string weak_full =
      render(core::weak_scaling_table(ctx, {1, 2}));
  ctx.collapse = true;
  const std::string weak_collapsed =
      render(core::weak_scaling_table(ctx, {1, 2}));
  EXPECT_EQ(weak_full, weak_collapsed);
}

}  // namespace
}  // namespace fibersim
