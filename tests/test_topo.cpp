// Unit and property tests for the topology and binding module.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/error.hpp"
#include "machine/processor.hpp"
#include "topo/binding.hpp"
#include "topo/topology.hpp"

namespace fibersim::topo {
namespace {

NodeShape a64fx_shape() { return {1, 4, 12}; }
NodeShape dual_socket() { return {2, 1, 24}; }

TEST(Topology, A64fxShapeDerivedCounts) {
  const Topology t(a64fx_shape());
  EXPECT_EQ(t.cores_per_node(), 48);
  EXPECT_EQ(t.numa_per_node(), 4);
  EXPECT_EQ(t.total_cores(), 48);
  EXPECT_EQ(t.total_numa_domains(), 4);
}

TEST(Topology, NumaAndSocketOfCore) {
  const Topology t(a64fx_shape());
  EXPECT_EQ(t.numa_of(0), 0);
  EXPECT_EQ(t.numa_of(11), 0);
  EXPECT_EQ(t.numa_of(12), 1);
  EXPECT_EQ(t.numa_of(47), 3);
  EXPECT_EQ(t.socket_of(47), 0);

  const Topology d(dual_socket());
  EXPECT_EQ(d.socket_of(0), 0);
  EXPECT_EQ(d.socket_of(24), 1);
}

TEST(Topology, DistanceClasses) {
  const Topology t(a64fx_shape(), 2);
  EXPECT_EQ(t.distance({0, 3}, {0, 3}), Distance::kSameCore);
  EXPECT_EQ(t.distance({0, 3}, {0, 8}), Distance::kSameNuma);
  EXPECT_EQ(t.distance({0, 3}, {0, 13}), Distance::kSameSocket);
  EXPECT_EQ(t.distance({0, 3}, {1, 3}), Distance::kRemoteNode);

  const Topology d(dual_socket());
  EXPECT_EQ(d.distance({0, 0}, {0, 30}), Distance::kSameNode);
}

TEST(Topology, RejectsBadShapes) {
  EXPECT_THROW(Topology(NodeShape{0, 1, 1}), Error);
  EXPECT_THROW(Topology(a64fx_shape(), 0), Error);
  const Topology t(a64fx_shape());
  EXPECT_THROW(t.numa_of(48), Error);
  EXPECT_THROW(t.numa_of(-1), Error);
}

TEST(Topology, DescribeMentionsEveryLevel) {
  const std::string d = Topology(a64fx_shape(), 2).describe();
  EXPECT_NE(d.find("2 node"), std::string::npos);
  EXPECT_NE(d.find("4 numa"), std::string::npos);
}

// ----- binding order -----

TEST(BindingOrder, CompactIsIdentity) {
  const auto order = binding_order(a64fx_shape(), ThreadBindPolicy::compact());
  for (int i = 0; i < 48; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(BindingOrder, Stride4InterleavesCmgs) {
  const auto order = binding_order(a64fx_shape(), ThreadBindPolicy::strided(4));
  // First 12 slots: cores 0, 4, 8, ..., 44 — three per CMG.
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i * 4);
  }
}

TEST(BindingOrder, ScatterIsMaximalStride) {
  const auto order = binding_order(a64fx_shape(), ThreadBindPolicy::scatter());
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 12);
  EXPECT_EQ(order[2], 24);
  EXPECT_EQ(order[3], 36);
  EXPECT_EQ(order[4], 1);
}

class BindingOrderBijection : public ::testing::TestWithParam<int> {};

TEST_P(BindingOrderBijection, EveryCoreExactlyOnce) {
  const auto order =
      binding_order(a64fx_shape(), ThreadBindPolicy::strided(GetParam()));
  std::set<int> cores(order.begin(), order.end());
  EXPECT_EQ(cores.size(), 48u);
  EXPECT_EQ(*cores.begin(), 0);
  EXPECT_EQ(*cores.rbegin(), 47);
}

INSTANTIATE_TEST_SUITE_P(Strides, BindingOrderBijection,
                         ::testing::Values(1, 2, 3, 4, 6, 8, 12, 16, 24, 48));

TEST(BindingOrder, RejectsNonDividingStride) {
  EXPECT_THROW(binding_order(a64fx_shape(), ThreadBindPolicy::strided(5)),
               Error);
  EXPECT_THROW(binding_order(a64fx_shape(), ThreadBindPolicy::strided(0)),
               Error);
}

TEST(BindingOrder, PolicyNames) {
  EXPECT_EQ(ThreadBindPolicy::compact().name(), "compact");
  EXPECT_EQ(ThreadBindPolicy::strided(4).name(), "stride-4");
  EXPECT_EQ(ThreadBindPolicy::scatter().name(), "scatter");
}

// ----- full bindings -----

struct BindingCase {
  int ranks;
  int threads;
  RankAllocPolicy alloc;
  ThreadBindPolicy bind;
};

class BindingProperty : public ::testing::TestWithParam<BindingCase> {};

TEST_P(BindingProperty, NoCoreSharedAndAllInRange) {
  const BindingCase c = GetParam();
  const Topology t(a64fx_shape());
  const Binding b = Binding::make(t, c.ranks, c.threads, c.alloc, c.bind);
  std::set<std::pair<int, int>> used;
  for (int r = 0; r < c.ranks; ++r) {
    for (int th = 0; th < c.threads; ++th) {
      const CoreId core = b.core_of(r, th);
      EXPECT_GE(core.core, 0);
      EXPECT_LT(core.core, 48);
      EXPECT_TRUE(used.insert({core.node, core.core}).second)
          << "core shared by two threads";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, BindingProperty,
    ::testing::Values(
        BindingCase{48, 1, RankAllocPolicy::kBlock, ThreadBindPolicy::compact()},
        BindingCase{4, 12, RankAllocPolicy::kBlock, ThreadBindPolicy::compact()},
        BindingCase{4, 12, RankAllocPolicy::kBlock, ThreadBindPolicy::strided(4)},
        BindingCase{8, 6, RankAllocPolicy::kCyclic, ThreadBindPolicy::compact()},
        BindingCase{8, 6, RankAllocPolicy::kScatter, ThreadBindPolicy::scatter()},
        BindingCase{1, 48, RankAllocPolicy::kBlock, ThreadBindPolicy::strided(2)},
        BindingCase{3, 5, RankAllocPolicy::kCyclic, ThreadBindPolicy::compact()},
        BindingCase{2, 24, RankAllocPolicy::kScatter,
                    ThreadBindPolicy::strided(12)}));

// make() stamps one layout per ranks-per-node count and the flat per-rank
// arrays are read without going back to core_of(); every node must hold a
// one-node job of its rank count, and every flat value must equal what the
// Topology primitives give on core_of(). Uneven rank counts
// (5 on 3 nodes, 10 and 14 on 4, 15 on 2) mix the wide and narrow layouts,
// whose round-robin chunk assignments differ (14 on 4 for two sockets, 15
// on 2 for four CMGs); the 2x2x6 shape makes every distance class live
// between masters.
TEST(Binding, FlatPlacementMatchesTopologyPrimitives) {
  const NodeShape shapes[] = {a64fx_shape(), machine::skylake8168_dual().shape,
                              NodeShape{2, 2, 6}};
  const RankAllocPolicy allocs[] = {RankAllocPolicy::kBlock,
                                    RankAllocPolicy::kCyclic,
                                    RankAllocPolicy::kScatter};
  const ThreadBindPolicy binds[] = {ThreadBindPolicy::compact(),
                                    ThreadBindPolicy::scatter()};
  struct Layout {
    int ranks;
    int nodes;
  };
  const Layout layouts[] = {{8, 2},  {16, 4}, {5, 3},
                            {10, 4}, {14, 4}, {15, 2}};
  for (const NodeShape& shape : shapes) {
    for (const Layout& layout : layouts) {
      const Topology t(shape, layout.nodes);
      for (const int threads : {1, 3}) {
        for (const RankAllocPolicy alloc : allocs) {
          for (const ThreadBindPolicy bind : binds) {
            SCOPED_TRACE(t.describe() + " " + std::to_string(layout.ranks) +
                         " ranks x " + std::to_string(threads) + " " +
                         rank_alloc_name(alloc) + " " + bind.name());
            const Binding b =
                Binding::make(t, layout.ranks, threads, alloc, bind);
            const std::size_t tpr = static_cast<std::size_t>(threads);
            // Each node holds what a one-node job of its rank count holds.
            const Topology one_node(shape);
            int first = 0;
            for (int node = 0; node < layout.nodes; ++node) {
              const int local = layout.ranks / layout.nodes +
                                (node < layout.ranks % layout.nodes ? 1 : 0);
              const Binding alone =
                  Binding::make(one_node, local, threads, alloc, bind);
              for (int lr = 0; lr < local; ++lr) {
                for (int th = 0; th < threads; ++th) {
                  EXPECT_EQ(b.core_of(first + lr, th),
                            (CoreId{node, alone.core_of(lr, th).core}));
                }
              }
              first += local;
            }
            Distance job_span = Distance::kSameNuma;
            for (int r = 0; r < layout.ranks; ++r) {
              const std::size_t ri = static_cast<std::size_t>(r);
              const CoreId master = b.core_of(r, 0);
              EXPECT_EQ(b.node_of(r), master.node);
              EXPECT_EQ(b.rank_nodes()[ri], master.node);
              EXPECT_EQ(b.home_numa(r), t.global_numa(master));
              EXPECT_EQ(b.home_numas()[ri], t.global_numa(master));
              Distance team_span = Distance::kSameCore;
              for (int th = 0; th < threads; ++th) {
                const CoreId core = b.core_of(r, th);
                EXPECT_EQ(b.thread_numa(r, th), t.global_numa(core));
                EXPECT_EQ(b.thread_numas()[ri * tpr +
                                           static_cast<std::size_t>(th)],
                          t.global_numa(core));
                team_span = std::max(team_span, t.distance(master, core));
              }
              team_span = std::max(team_span, Distance::kSameNuma);
              EXPECT_EQ(b.team_span(r), team_span);
              EXPECT_EQ(b.team_spans()[ri], team_span);
              for (int other = 0; other < layout.ranks; ++other) {
                ASSERT_EQ(b.rank_distance(r, other),
                          t.distance(master, b.core_of(other, 0)))
                    << "ranks " << r << ", " << other;
              }
              if (r > 0) job_span = std::max(job_span, b.rank_distance(0, r));
            }
            EXPECT_EQ(b.job_span(), job_span);
          }
        }
      }
    }
  }
}

TEST(Binding, CompactTeamsStayInOneCmg) {
  const Topology t(a64fx_shape());
  const Binding b = Binding::make(t, 4, 12, RankAllocPolicy::kBlock,
                                  ThreadBindPolicy::compact());
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(b.numa_span(r), 1);
    EXPECT_EQ(b.team_span(r), Distance::kSameNuma);
    EXPECT_EQ(b.home_numa(r), r);
  }
}

TEST(Binding, ScatterTeamsSpanAllCmgs) {
  const Topology t(a64fx_shape());
  const Binding b = Binding::make(t, 4, 12, RankAllocPolicy::kBlock,
                                  ThreadBindPolicy::scatter());
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(b.numa_span(r), 4);
    EXPECT_EQ(b.team_span(r), Distance::kSameSocket);
  }
}

TEST(Binding, Stride4TeamsSpanAllCmgs) {
  const Topology t(a64fx_shape());
  const Binding b = Binding::make(t, 4, 12, RankAllocPolicy::kBlock,
                                  ThreadBindPolicy::strided(4));
  EXPECT_EQ(b.numa_span(0), 4);
}

TEST(Binding, CyclicAllocRoundRobinsRanksOverCmgs) {
  const Topology t(a64fx_shape());
  const Binding b = Binding::make(t, 8, 6, RankAllocPolicy::kCyclic,
                                  ThreadBindPolicy::compact());
  // Ranks 0..3 land in distinct CMGs, ranks 4..7 fill the second halves.
  std::set<int> homes;
  for (int r = 0; r < 4; ++r) homes.insert(b.home_numa(r));
  EXPECT_EQ(homes.size(), 4u);
  // Every team still stays within one CMG: threads are contiguous.
  for (int r = 0; r < 8; ++r) EXPECT_EQ(b.numa_span(r), 1);
}

TEST(Binding, RankDistanceAndJobSpan) {
  const Topology t(a64fx_shape());
  const Binding b = Binding::make(t, 4, 12, RankAllocPolicy::kBlock,
                                  ThreadBindPolicy::compact());
  EXPECT_EQ(b.rank_distance(0, 1), Distance::kSameSocket);
  EXPECT_EQ(b.job_span(), Distance::kSameSocket);

  const Binding single = Binding::make(t, 2, 6, RankAllocPolicy::kBlock,
                                       ThreadBindPolicy::compact());
  EXPECT_EQ(single.rank_distance(0, 1), Distance::kSameNuma);
}

TEST(Binding, MultiNodeSpreadsRanks) {
  const Topology t(a64fx_shape(), 2);
  const Binding b = Binding::make(t, 8, 12, RankAllocPolicy::kBlock,
                                  ThreadBindPolicy::compact());
  EXPECT_EQ(b.node_of(0), 0);
  EXPECT_EQ(b.node_of(4), 1);
  EXPECT_EQ(b.rank_distance(0, 4), Distance::kRemoteNode);
  EXPECT_EQ(b.job_span(), Distance::kRemoteNode);
}

TEST(Binding, MultiNodeUnevenRankCounts) {
  const Topology t(a64fx_shape(), 3);
  const Binding b = Binding::make(t, 5, 12, RankAllocPolicy::kBlock,
                                  ThreadBindPolicy::compact());
  // 5 ranks over 3 nodes: 2 + 2 + 1.
  EXPECT_EQ(b.node_of(0), 0);
  EXPECT_EQ(b.node_of(1), 0);
  EXPECT_EQ(b.node_of(2), 1);
  EXPECT_EQ(b.node_of(4), 2);
}

TEST(Binding, RejectsOversubscription) {
  const Topology t(a64fx_shape());
  EXPECT_THROW(Binding::make(t, 49, 1, RankAllocPolicy::kBlock,
                             ThreadBindPolicy::compact()),
               Error);
  EXPECT_THROW(Binding::make(t, 4, 13, RankAllocPolicy::kBlock,
                             ThreadBindPolicy::compact()),
               Error);
}

TEST(Binding, RejectsBadIndices) {
  const Topology t(a64fx_shape());
  const Binding b = Binding::make(t, 2, 2, RankAllocPolicy::kBlock,
                                  ThreadBindPolicy::compact());
  EXPECT_THROW(b.core_of(2, 0), Error);
  EXPECT_THROW(b.core_of(0, 2), Error);
  EXPECT_THROW(b.core_of(-1, 0), Error);
}

TEST(Binding, ScatterAllocEqualsCyclicOnSingleSocket) {
  // The paper's "little impact" finding on A64FX has a structural reason:
  // socket round-robin degenerates on a one-socket machine.
  const Topology t(a64fx_shape());
  const Binding cyc = Binding::make(t, 8, 6, RankAllocPolicy::kCyclic,
                                    ThreadBindPolicy::compact());
  const Binding sct = Binding::make(t, 8, 6, RankAllocPolicy::kScatter,
                                    ThreadBindPolicy::compact());
  // kScatter on one socket falls back to block order.
  EXPECT_EQ(sct.core_of(1, 0).core, 6);
  EXPECT_NE(cyc.core_of(1, 0).core, sct.core_of(1, 0).core);
}

}  // namespace
}  // namespace fibersim::topo
