// Unit and property tests for the thread-team runtime.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <limits>
#include <numeric>
#include <set>
#include <vector>

#include "common/error.hpp"
#include "rt/thread_team.hpp"

namespace fibersim::rt {
namespace {

TEST(Team, SizeOneRunsInline) {
  ThreadTeam team(1);
  int hits = 0;
  team.parallel([&](int tid) {
    EXPECT_EQ(tid, 0);
    ++hits;
  });
  EXPECT_EQ(hits, 1);
}

TEST(Team, EveryThreadRunsOnce) {
  ThreadTeam team(4);
  std::vector<std::atomic<int>> hits(4);
  team.parallel([&](int tid) { hits[static_cast<std::size_t>(tid)]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Team, ReusableAcrossRegions) {
  ThreadTeam team(3);
  std::atomic<int> total{0};
  for (int r = 0; r < 50; ++r) {
    team.parallel([&](int) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 150);
  EXPECT_EQ(team.regions_executed(), 50u);
}

TEST(Team, ExceptionPropagatesAfterJoin) {
  ThreadTeam team(4);
  EXPECT_THROW(team.parallel([&](int tid) {
                 if (tid == 2) throw Error("worker failure");
               }),
               Error);
  // The team must still be usable afterwards.
  std::atomic<int> ok{0};
  team.parallel([&](int) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 4);
}

TEST(Team, RejectsBadSizes) {
  EXPECT_THROW(ThreadTeam(0), Error);
  EXPECT_THROW(ThreadTeam(-2), Error);
}

TEST(Team, BarrierSynchronisesPhases) {
  ThreadTeam team(4);
  std::vector<int> stage_a(4, 0);
  std::atomic<int> violations{0};
  team.parallel([&](int tid) {
    stage_a[static_cast<std::size_t>(tid)] = 1;
    team.barrier();
    for (int v : stage_a) {
      if (v != 1) violations.fetch_add(1);
    }
  });
  EXPECT_EQ(violations.load(), 0);
}

TEST(Team, BarrierReusableManyTimes) {
  ThreadTeam team(3);
  std::atomic<int> counter{0};
  team.parallel([&](int) {
    for (int i = 0; i < 20; ++i) {
      counter.fetch_add(1);
      team.barrier();
    }
  });
  EXPECT_EQ(counter.load(), 60);
}

// ----- parallel_for coverage: every index exactly once, any schedule -----

struct ForCase {
  int team;
  std::int64_t begin;
  std::int64_t end;
  Schedule schedule;
  std::int64_t chunk;
};

class ParallelForCoverage : public ::testing::TestWithParam<ForCase> {};

TEST_P(ParallelForCoverage, EachIndexExactlyOnce) {
  const ForCase c = GetParam();
  ThreadTeam team(c.team);
  const auto n = static_cast<std::size_t>(c.end - c.begin);
  std::vector<std::atomic<int>> hits(n);
  team.parallel_for(c.begin, c.end, c.schedule, c.chunk,
                    [&](std::int64_t lo, std::int64_t hi, int tid) {
                      EXPECT_GE(tid, 0);
                      EXPECT_LT(tid, c.team);
                      EXPECT_LE(c.begin, lo);
                      EXPECT_LE(hi, c.end);
                      for (std::int64_t i = lo; i < hi; ++i) {
                        hits[static_cast<std::size_t>(i - c.begin)]++;
                      }
                    });
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ParallelForCoverage,
    ::testing::Values(ForCase{1, 0, 100, Schedule::kStatic, 0},
                      ForCase{4, 0, 100, Schedule::kStatic, 0},
                      ForCase{4, 0, 100, Schedule::kStatic, 7},
                      ForCase{4, 0, 3, Schedule::kStatic, 0},
                      ForCase{3, 5, 104, Schedule::kStatic, 0},
                      ForCase{4, 0, 100, Schedule::kDynamic, 0},
                      ForCase{4, 0, 100, Schedule::kDynamic, 3},
                      ForCase{2, -10, 35, Schedule::kDynamic, 1},
                      ForCase{4, 0, 100, Schedule::kGuided, 0},
                      ForCase{8, 0, 1000, Schedule::kGuided, 5},
                      ForCase{4, 0, 0, Schedule::kStatic, 0},
                      ForCase{5, 7, 8, Schedule::kGuided, 0}));

TEST(ParallelFor, RejectsInvertedRange) {
  ThreadTeam team(2);
  EXPECT_THROW(team.parallel_for(5, 2, Schedule::kStatic, 0,
                                 [](std::int64_t, std::int64_t, int) {}),
               Error);
}

TEST(ParallelFor, StaticDefaultGivesContiguousBalancedBlocks) {
  ThreadTeam team(4);
  std::vector<std::pair<std::int64_t, std::int64_t>> blocks(4, {-1, -1});
  team.parallel_for(0, 10, Schedule::kStatic, 0,
                    [&](std::int64_t lo, std::int64_t hi, int tid) {
                      blocks[static_cast<std::size_t>(tid)] = {lo, hi};
                    });
  // 10 over 4: 3,3,2,2.
  EXPECT_EQ(blocks[0], (std::pair<std::int64_t, std::int64_t>{0, 3}));
  EXPECT_EQ(blocks[1], (std::pair<std::int64_t, std::int64_t>{3, 6}));
  EXPECT_EQ(blocks[2], (std::pair<std::int64_t, std::int64_t>{6, 8}));
  EXPECT_EQ(blocks[3], (std::pair<std::int64_t, std::int64_t>{8, 10}));
}

TEST(Reduce, MatchesSerialSum) {
  ThreadTeam team(4);
  const double got = team.parallel_reduce_sum(
      1, 1001, [](std::int64_t i) { return static_cast<double>(i); });
  EXPECT_DOUBLE_EQ(got, 500500.0);
}

TEST(Reduce, EmptyRangeIsZero) {
  ThreadTeam team(3);
  EXPECT_DOUBLE_EQ(
      team.parallel_reduce_sum(5, 5, [](std::int64_t) { return 1.0; }), 0.0);
}

TEST(Reduce, NonTrivialTerms) {
  ThreadTeam team(5);
  const double got = team.parallel_reduce_sum(0, 200, [](std::int64_t i) {
    return 1.0 / static_cast<double>(i + 1);
  });
  double want = 0.0;
  for (int i = 0; i < 200; ++i) want += 1.0 / (i + 1);
  EXPECT_NEAR(got, want, 1e-9);
}

TEST(Reduce, BitIdenticalToTidOrderedBlockSums) {
  // Terms of wildly different magnitude make the sum order-sensitive:
  // 1.0 vanishes next to 1e16 unless the ones are summed first. The
  // reduction must be exactly the static blocks summed in index order, then
  // combined in thread-id order.
  const auto term = [](std::int64_t i) {
    if (i % 5 == 0) return (i / 5) % 2 == 0 ? 1e16 : -1e16;
    return i % 5 == 1 ? 1.0 : 0.25 * static_cast<double>(i % 7);
  };
  for (int size = 1; size <= 7; ++size) {
    ThreadTeam team(size);
    for (const std::int64_t begin : {std::int64_t{0}, std::int64_t{3}}) {
      for (const std::int64_t len : {1, 5, 13, 64, 101, 997}) {
        const std::int64_t end = begin + len;
        double want = 0.0;
        for (int tid = 0; tid < size; ++tid) {
          const std::int64_t base = len / size;
          const std::int64_t extra = len % size;
          const std::int64_t lo =
              begin + tid * base + std::min<std::int64_t>(tid, extra);
          const std::int64_t hi = lo + base + (tid < extra ? 1 : 0);
          double block = 0.0;
          for (std::int64_t i = lo; i < hi; ++i) block += term(i);
          want += block;
        }
        const double got = team.parallel_reduce_sum(begin, end, term);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                  std::bit_cast<std::uint64_t>(want))
            << "team " << size << ", range [" << begin << ", " << end
            << "): got " << got << ", want " << want;
      }
    }
  }
}

TEST(Schedule, Names) {
  EXPECT_STREQ(schedule_name(Schedule::kStatic), "static");
  EXPECT_STREQ(schedule_name(Schedule::kDynamic), "dynamic");
  EXPECT_STREQ(schedule_name(Schedule::kGuided), "guided");
}

// ----- nested-parallel detection -----

TEST(Team, NestedParallelThrowsInsteadOfDeadlocking) {
  ThreadTeam team(4);
  EXPECT_THROW(team.parallel([&](int) {
                 team.parallel([](int) {});
               }),
               Error);
  // The protocol state must survive the rejected nesting.
  std::atomic<int> hits{0};
  team.parallel([&](int) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 4);
}

TEST(Team, NestedParallelForThrows) {
  ThreadTeam team(3);
  EXPECT_THROW(team.parallel([&](int) {
                 team.parallel_for(0, 10,
                                   [](std::int64_t, std::int64_t, int) {});
               }),
               Error);
}

TEST(Team, NestedParallelThrowsOnSizeOneTeamToo) {
  // A team of 1 would not deadlock, but allowing nesting only there would
  // make programs break the moment the team grows; the contract is uniform.
  ThreadTeam team(1);
  EXPECT_THROW(team.parallel([&](int) { team.parallel([](int) {}); }), Error);
  int ok = 0;
  team.parallel([&](int) { ++ok; });
  EXPECT_EQ(ok, 1);
}

TEST(Team, SequentialRegionsAreNotNesting) {
  ThreadTeam team(2);
  for (int i = 0; i < 3; ++i) team.parallel([](int) {});
  team.parallel_for(0, 8, [](std::int64_t, std::int64_t, int) {});
  EXPECT_EQ(team.regions_executed(), 4u);
}

// ----- induction-variable overflow guards -----

TEST(ParallelFor, ChunkedStaticNearInt64MaxDoesNotWrap) {
  constexpr std::int64_t kEnd = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kBegin = kEnd - 100;
  ThreadTeam team(4);
  std::vector<std::atomic<int>> hits(100);
  // The old round-robin induction (`c += chunk * size_`) wrapped past the
  // int64 maximum here and re-dispatched negative ranges forever.
  team.parallel_for(kBegin, kEnd, Schedule::kStatic, 7,
                    [&](std::int64_t lo, std::int64_t hi, int) {
                      ASSERT_GE(lo, kBegin);
                      ASSERT_LE(hi, kEnd);
                      for (std::int64_t i = lo; i < hi; ++i) {
                        hits[static_cast<std::size_t>(i - kBegin)]++;
                      }
                    });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, DynamicNearInt64MaxDoesNotWrap) {
  constexpr std::int64_t kEnd = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kBegin = kEnd - 50;
  ThreadTeam team(3);
  std::vector<std::atomic<int>> hits(50);
  team.parallel_for(kBegin, kEnd, Schedule::kDynamic, 3,
                    [&](std::int64_t lo, std::int64_t hi, int) {
                      for (std::int64_t i = lo; i < hi; ++i) {
                        hits[static_cast<std::size_t>(i - kBegin)]++;
                      }
                    });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, RejectsRangeWiderThanInt64) {
  ThreadTeam team(2);
  EXPECT_THROW(
      team.parallel_for(std::numeric_limits<std::int64_t>::min(),
                        std::numeric_limits<std::int64_t>::max(),
                        Schedule::kStatic, 1,
                        [](std::int64_t, std::int64_t, int) {}),
      Error);
}

}  // namespace
}  // namespace fibersim::rt
