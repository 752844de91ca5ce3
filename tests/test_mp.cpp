// Unit and property tests for the message-passing runtime: point-to-point
// semantics, collectives, traffic logging, failure unwinding, Cartesian
// grids.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "fault/fault.hpp"
#include "mp/cart.hpp"
#include "mp/job.hpp"
#include "mp/mailbox.hpp"
#include "rt/fiber.hpp"
#include "rt/thread_team.hpp"

namespace fibersim::mp {
namespace {

TEST(Job, SingleRankRuns) {
  int visits = 0;
  Job::run(1, [&](Comm& comm) {
    EXPECT_EQ(comm.rank(), 0);
    EXPECT_EQ(comm.size(), 1);
    ++visits;
  });
  EXPECT_EQ(visits, 1);
}

TEST(Job, RejectsBadArguments) {
  EXPECT_THROW(Job::run(0, [](Comm&) {}), Error);
  EXPECT_THROW(Job::run(2, Job::RankFn{}), Error);
}

TEST(P2p, SendRecvValue) {
  Job::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 5, 12345);
    } else {
      EXPECT_EQ(comm.recv_value<int>(0, 5), 12345);
    }
  });
}

TEST(P2p, FifoOrderingPerSourceAndTag) {
  Job::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 20; ++i) comm.send_value(1, 3, i);
    } else {
      for (int i = 0; i < 20; ++i) {
        EXPECT_EQ(comm.recv_value<int>(0, 3), i);
      }
    }
  });
}

// A payload packed with Buffer::build is handed to the receiver itself: the
// receiver's Buffer is the sender's allocation, and the send is logged like
// send_bytes of the same size. A size mismatch is refused as on recv_bytes.
TEST(P2p, SendBufferHandsThePayloadOverWithoutACopy) {
  std::atomic<const std::byte*> sent{nullptr};
  auto logs = Job::run_logged(2, [&](Comm& comm) {
    if (comm.rank() == 0) {
      Buffer payload = Buffer::build(3 * sizeof(double), [](std::byte* out) {
        const double values[3] = {1.5, -2.0, 4.25};
        std::memcpy(out, values, sizeof(values));
      });
      sent.store(payload.data());
      comm.send_buffer(1, 7, std::move(payload));
      comm.send_buffer(1, 8, Buffer::copy_of("ab", 2));
    } else {
      const Buffer got = comm.recv_buffer(0, 7, 3 * sizeof(double));
      EXPECT_EQ(got.data(), sent.load());
      double values[3];
      got.copy_to(values);
      EXPECT_EQ(values[0], 1.5);
      EXPECT_EQ(values[1], -2.0);
      EXPECT_EQ(values[2], 4.25);
      EXPECT_THROW((void)comm.recv_buffer(0, 8, 3), Error);
    }
  });
  EXPECT_EQ(logs[0].sends.at(1).messages, 2u);
  EXPECT_EQ(logs[0].sends.at(1).bytes, 3 * sizeof(double) + 2);
}

TEST(P2p, TagSelectsMessage) {
  Job::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 1, 100);
      comm.send_value(1, 2, 200);
    } else {
      // Receive in reverse tag order.
      EXPECT_EQ(comm.recv_value<int>(0, 2), 200);
      EXPECT_EQ(comm.recv_value<int>(0, 1), 100);
    }
  });
}

TEST(P2p, AnySourceAndAnyTag) {
  Job::run(3, [](Comm& comm) {
    if (comm.rank() != 0) {
      comm.send_value(0, comm.rank(), comm.rank() * 10);
    } else {
      int sum = 0;
      sum += comm.recv_value<int>(kAnySource, kAnyTag);
      sum += comm.recv_value<int>(kAnySource, kAnyTag);
      EXPECT_EQ(sum, 30);
    }
  });
}

TEST(P2p, SizeMismatchIsError) {
  EXPECT_THROW(Job::run(2,
                        [](Comm& comm) {
                          if (comm.rank() == 0) {
                            comm.send_value(1, 0, 1.0);  // 8 bytes
                          } else {
                            (void)comm.recv_value<int>(0, 0);  // 4 bytes
                          }
                        }),
               Error);
}

TEST(P2p, SendrecvExchangesSymmetrically) {
  Job::run(2, [](Comm& comm) {
    std::vector<double> mine(8, static_cast<double>(comm.rank()));
    std::vector<double> theirs(8, -1.0);
    const int peer = 1 - comm.rank();
    comm.sendrecv<double>(peer, std::span<const double>(mine), peer,
                          std::span<double>(theirs));
    for (double v : theirs) {
      EXPECT_DOUBLE_EQ(v, static_cast<double>(peer));
    }
  });
}

TEST(P2p, SelfSendIsLegal) {
  Job::run(1, [](Comm& comm) {
    comm.send_value(0, 9, 77);
    EXPECT_EQ(comm.recv_value<int>(0, 9), 77);
  });
}

TEST(P2p, ProbeSeesQueuedMessage) {
  Job::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 4, 1);
      comm.barrier();
    } else {
      comm.barrier();  // after this the message must be queued
      EXPECT_TRUE(comm.probe(0, 4));
      EXPECT_FALSE(comm.probe(0, 5));
      (void)comm.recv_value<int>(0, 4);
    }
  });
}

TEST(P2p, RejectsReservedTags) {
  EXPECT_THROW(Job::run(1,
                        [](Comm& comm) {
                          const int tag = 1 << 24;
                          comm.send_value(0, tag, 1);
                        }),
               Error);
}

TEST(Job, ExceptionInOneRankUnblocksOthers) {
  EXPECT_THROW(Job::run(3,
                        [](Comm& comm) {
                          if (comm.rank() == 0) {
                            throw Error("rank 0 died");
                          }
                          // These ranks block forever unless poisoned.
                          (void)comm.recv_value<int>(0, 0);
                        }),
               Error);
}

TEST(Job, ThrowingRankUnwindsPeersParkedInRecvWithItsOwnError) {
  // Every peer parks in recv on the failing rank before it throws; the poison
  // unwinds them all, and the job reports the root cause, not the poison.
  std::atomic<int> parked{0};
  try {
    Job::run(8, [&](Comm& comm) {
      if (comm.rank() == 3) {
        while (parked.load() < 7) rt::sleep_for(std::chrono::milliseconds(1));
        rt::sleep_for(std::chrono::milliseconds(5));
        throw Error("rank 3 failed");
      }
      parked.fetch_add(1);
      (void)comm.recv_value<int>(3, 0);
    });
    FAIL() << "the job did not rethrow";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "rank 3 failed");
    EXPECT_EQ(fault::classify(e.what()), fault::ErrorClass::kOther);
  }
}

TEST(Job, RanksAndTeamsFarBeyondTheWorkerCount) {
  // 48 ranks x 48 team threads: 2304 logical threads on a pool of
  // hardware_concurrency() workers, every tid looping through barriers.
  constexpr int kRanks = 48;
  constexpr int kThreads = 48;
  constexpr int kRounds = 20;
  std::atomic<int> violations{0};
  Job::run(kRanks, [&](Comm& comm) {
    rt::ThreadTeam team(kThreads);
    std::vector<int> stage(kThreads, 0);
    team.parallel([&](int tid) {
      for (int round = 1; round <= kRounds; ++round) {
        stage[static_cast<std::size_t>(tid)] = round;
        team.barrier();
        for (int v : stage) {
          if (v != round) violations.fetch_add(1);
        }
        team.barrier();
      }
    });
    const double sum = comm.allreduce_sum(static_cast<double>(comm.rank()));
    if (sum != kRanks * (kRanks - 1) / 2) violations.fetch_add(1);
  });
  EXPECT_EQ(violations.load(), 0);
  EXPECT_LE(rt::detail::cached_stacks(), rt::detail::kStackCacheLimit);
}

// ----- collectives, parameterised over communicator size -----

class CollectiveTest : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveTest, Bcast) {
  for (int root = 0; root < std::min(GetParam(), 3); ++root) {
    Job::run(GetParam(), [root](Comm& comm) {
      std::vector<double> data(5, comm.rank() == root ? 3.25 : 0.0);
      comm.bcast(std::span<double>(data), root);
      for (double v : data) EXPECT_DOUBLE_EQ(v, 3.25);
    });
  }
}

TEST_P(CollectiveTest, ReduceSumToRoot) {
  const int n = GetParam();
  for (int root : {0, n - 1}) {
    Job::run(n, [root, n](Comm& comm) {
      std::vector<double> data{static_cast<double>(comm.rank()), 1.0};
      comm.reduce_sum(std::span<double>(data), root);
      if (comm.rank() == root) {
        EXPECT_DOUBLE_EQ(data[0], n * (n - 1) / 2.0);
        EXPECT_DOUBLE_EQ(data[1], n);
      }
    });
  }
}

TEST_P(CollectiveTest, AllreduceSumMaxMin) {
  const int n = GetParam();
  Job::run(n, [n](Comm& comm) {
    const double r = comm.rank();
    EXPECT_DOUBLE_EQ(comm.allreduce_sum(r), n * (n - 1) / 2.0);
    EXPECT_DOUBLE_EQ(comm.allreduce_max(r), n - 1.0);
    EXPECT_DOUBLE_EQ(comm.allreduce_min(r + 5.0), 5.0);
    EXPECT_EQ(comm.allreduce_sum_u64(2), static_cast<std::uint64_t>(2 * n));
  });
}

TEST_P(CollectiveTest, AllreduceVector) {
  const int n = GetParam();
  Job::run(n, [n](Comm& comm) {
    std::vector<double> v{1.0, static_cast<double>(comm.rank()), -2.0};
    comm.allreduce_sum(std::span<double>(v));
    EXPECT_DOUBLE_EQ(v[0], n);
    EXPECT_DOUBLE_EQ(v[1], n * (n - 1) / 2.0);
    EXPECT_DOUBLE_EQ(v[2], -2.0 * n);
  });
}

TEST_P(CollectiveTest, GatherToRoot) {
  const int n = GetParam();
  Job::run(n, [n](Comm& comm) {
    const int mine = 100 + comm.rank();
    std::vector<int> all(static_cast<std::size_t>(n), -1);
    comm.gather_bytes(&mine, sizeof(int), all.data(), 0);
    if (comm.rank() == 0) {
      for (int r = 0; r < n; ++r) {
        EXPECT_EQ(all[static_cast<std::size_t>(r)], 100 + r);
      }
    }
  });
}

TEST_P(CollectiveTest, AllgatherRing) {
  const int n = GetParam();
  Job::run(n, [n](Comm& comm) {
    const double mine = comm.rank() * 1.5;
    std::vector<double> all(static_cast<std::size_t>(n), -1.0);
    comm.allgather(mine, std::span<double>(all));
    for (int r = 0; r < n; ++r) {
      EXPECT_DOUBLE_EQ(all[static_cast<std::size_t>(r)], r * 1.5);
    }
  });
}

TEST_P(CollectiveTest, AlltoallPersonalised) {
  const int n = GetParam();
  Job::run(n, [n](Comm& comm) {
    // Send block j = rank * 100 + j; expect to receive i * 100 + rank.
    std::vector<int> send(static_cast<std::size_t>(n));
    std::vector<int> recv(static_cast<std::size_t>(n), -1);
    for (int j = 0; j < n; ++j) {
      send[static_cast<std::size_t>(j)] = comm.rank() * 100 + j;
    }
    comm.alltoall_bytes(send.data(), sizeof(int), recv.data());
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(recv[static_cast<std::size_t>(i)], i * 100 + comm.rank());
    }
  });
}

TEST_P(CollectiveTest, ReduceScatterSum) {
  const int n = GetParam();
  Job::run(n, [n](Comm& comm) {
    // Block j element k = rank + j*10 + k; after reduce+scatter rank r holds
    // sum over ranks of (rank + r*10 + k).
    constexpr std::size_t kBlock = 3;
    std::vector<double> send(static_cast<std::size_t>(n) * kBlock);
    for (int j = 0; j < n; ++j) {
      for (std::size_t k = 0; k < kBlock; ++k) {
        send[static_cast<std::size_t>(j) * kBlock + k] =
            comm.rank() + j * 10.0 + static_cast<double>(k);
      }
    }
    std::vector<double> recv(kBlock, -1.0);
    comm.reduce_scatter_sum(std::span<const double>(send),
                            std::span<double>(recv));
    const double rank_sum = n * (n - 1) / 2.0;
    for (std::size_t k = 0; k < kBlock; ++k) {
      EXPECT_DOUBLE_EQ(recv[k],
                       rank_sum + n * (comm.rank() * 10.0 +
                                       static_cast<double>(k)));
    }
  });
}

TEST(Collectives, ReduceScatterRejectsBadSizes) {
  EXPECT_THROW(Job::run(2,
                        [](Comm& comm) {
                          std::vector<double> send(3);  // not 2 blocks
                          std::vector<double> recv(2);
                          comm.reduce_scatter_sum(
                              std::span<const double>(send),
                              std::span<double>(recv));
                        }),
               Error);
}

TEST_P(CollectiveTest, InclusiveScan) {
  const int n = GetParam();
  Job::run(n, [](Comm& comm) {
    const double got = comm.scan_sum(static_cast<double>(comm.rank() + 1));
    const double want = (comm.rank() + 1) * (comm.rank() + 2) / 2.0;
    EXPECT_DOUBLE_EQ(got, want);
  });
}

TEST_P(CollectiveTest, BarrierCompletes) {
  Job::run(GetParam(), [](Comm& comm) {
    for (int i = 0; i < 5; ++i) comm.barrier();
  });
}

TEST_P(CollectiveTest, BackToBackCollectivesDoNotCrossMatch) {
  const int n = GetParam();
  Job::run(n, [n](Comm& comm) {
    for (int round = 0; round < 10; ++round) {
      const double s = comm.allreduce_sum(1.0);
      EXPECT_DOUBLE_EQ(s, n);
      double v = static_cast<double>(comm.rank() + round);
      comm.bcast(std::span<double>(&v, 1), round % n);
      EXPECT_DOUBLE_EQ(v, (round % n) + round);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, CollectiveTest,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 9, 16));

// ----- mailbox matching (the indexed buckets behind send/recv) -----

namespace mbox {

Message make(int source, int tag, int value) {
  Message m;
  m.source = source;
  m.tag = tag;
  m.payload = Buffer::copy_of(&value, sizeof(int));
  return m;
}

int value_of(const Message& m) {
  int v = 0;
  std::memcpy(&v, m.payload.data(), sizeof(int));
  return v;
}

}  // namespace mbox

TEST(Mailbox, ExactMatchSkipsOtherKeys) {
  Mailbox box;
  box.push(mbox::make(0, 1, 10));
  box.push(mbox::make(1, 1, 20));
  box.push(mbox::make(0, 2, 30));
  EXPECT_EQ(mbox::value_of(box.pop(0, 2)), 30);
  EXPECT_EQ(mbox::value_of(box.pop(1, 1)), 20);
  EXPECT_EQ(mbox::value_of(box.pop(0, 1)), 10);
  EXPECT_EQ(box.pending(), 0u);
}

TEST(Mailbox, AnySourceAnyTagFollowsArrivalOrderAcrossBuckets) {
  Mailbox box;
  box.push(mbox::make(2, 7, 1));
  box.push(mbox::make(0, 3, 2));
  box.push(mbox::make(2, 7, 3));
  box.push(mbox::make(1, 7, 4));
  for (int want : {1, 2, 3, 4}) {
    EXPECT_EQ(mbox::value_of(box.pop(kAnySource, kAnyTag)), want);
  }
}

TEST(Mailbox, AnySourceFixedTagOldestFirst) {
  Mailbox box;
  box.push(mbox::make(3, 9, 1));
  box.push(mbox::make(1, 5, 2));
  box.push(mbox::make(0, 9, 3));
  EXPECT_EQ(mbox::value_of(box.pop(kAnySource, 9)), 1);  // not source order
  EXPECT_EQ(mbox::value_of(box.pop(kAnySource, 9)), 3);
  EXPECT_EQ(mbox::value_of(box.pop(1, kAnyTag)), 2);
}

TEST(Mailbox, FixedSourceAnyTagOldestFirst) {
  Mailbox box;
  box.push(mbox::make(1, 8, 1));
  box.push(mbox::make(1, 2, 2));
  box.push(mbox::make(0, 1, 99));
  EXPECT_EQ(mbox::value_of(box.pop(1, kAnyTag)), 1);
  EXPECT_EQ(mbox::value_of(box.pop(1, kAnyTag)), 2);
  EXPECT_TRUE(box.probe(0, 1));
  EXPECT_FALSE(box.probe(1, kAnyTag));
  EXPECT_TRUE(box.probe(kAnySource, kAnyTag));
}

TEST(Mailbox, ContendedAnySourceAnyTagStress) {
  // Many producers, several distinct (source, tag) streams, consumers
  // draining with wildcards: every message must arrive exactly once and
  // per-stream FIFO order must hold.
  constexpr int kProducers = 6;
  constexpr int kPerProducer = 500;
  Mailbox box;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&box, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        box.push(mbox::make(p, p % 3, p * kPerProducer + i));
      }
    });
  }

  std::vector<std::vector<int>> seen(kProducers);
  std::mutex seen_mutex;
  std::vector<std::thread> consumers;
  std::atomic<int> remaining{kProducers * kPerProducer};
  for (int c = 0; c < 4; ++c) {
    consumers.emplace_back([&] {
      while (remaining.fetch_sub(1) > 0) {
        const Message m = box.pop(kAnySource, kAnyTag);
        std::lock_guard<std::mutex> lock(seen_mutex);
        seen[static_cast<std::size_t>(m.source)].push_back(mbox::value_of(m));
      }
    });
  }
  for (auto& t : producers) t.join();
  for (auto& t : consumers) t.join();

  EXPECT_EQ(box.pending(), 0u);
  for (int p = 0; p < kProducers; ++p) {
    auto& vals = seen[static_cast<std::size_t>(p)];
    ASSERT_EQ(vals.size(), static_cast<std::size_t>(kPerProducer));
    // Wildcard pops may interleave across consumers, but each producer's
    // stream is one (source, tag) bucket: sorted == FIFO was preserved
    // per consumer; globally every value appears exactly once.
    std::sort(vals.begin(), vals.end());
    for (int i = 0; i < kPerProducer; ++i) {
      EXPECT_EQ(vals[static_cast<std::size_t>(i)], p * kPerProducer + i);
    }
  }
}

TEST(Mailbox, ContendedExactMatchStress) {
  // One consumer per (source, tag) stream popping exact keys while all
  // producers push concurrently — the indexed hot path under contention.
  constexpr int kStreams = 5;
  constexpr int kPerStream = 400;
  Mailbox box;
  std::vector<std::thread> threads;
  for (int s = 0; s < kStreams; ++s) {
    threads.emplace_back([&box, s] {
      for (int i = 0; i < kPerStream; ++i) {
        box.push(mbox::make(s, s + 10, i));
      }
    });
    threads.emplace_back([&box, s] {
      for (int i = 0; i < kPerStream; ++i) {
        EXPECT_EQ(mbox::value_of(box.pop(s, s + 10)), i);  // strict FIFO
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(box.pending(), 0u);
}

TEST(Mailbox, PoisonUnblocksWildcardWaiter) {
  Mailbox box;
  std::thread waiter([&box] {
    EXPECT_THROW((void)box.pop(kAnySource, kAnyTag), Error);
  });
  box.poison();
  waiter.join();
  EXPECT_THROW((void)box.pop(0, 0), Error);
}

TEST(Mailbox, PlainThreadReceivesFromAParkedSender) {
  // A receiver outside the pool blocks its OS thread on the same wait list
  // the contexts park on; the sender is a context that parks on a timer.
  Mailbox box;
  std::thread sender([&box] {
    rt::fork_join(1, [&box](int) {
      EXPECT_TRUE(rt::in_context());
      rt::sleep_for(std::chrono::milliseconds(20));
      box.push(Message{7, 3, Buffer()});
    });
  });
  EXPECT_FALSE(rt::in_context());
  const Message m = box.pop(7, 3);
  EXPECT_EQ(m.source, 7);
  EXPECT_EQ(m.payload.size(), 0u);
  sender.join();
  EXPECT_EQ(box.pending(), 0u);
}

// ----- comm log -----

TEST(CommLog, RecordsP2pPerPeer) {
  auto logs = Job::run_logged(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 0, 1.0);
      comm.send_value(1, 0, 2.0);
    } else {
      (void)comm.recv_value<double>(0, 0);
      (void)comm.recv_value<double>(0, 0);
    }
  });
  EXPECT_EQ(logs[0].total_p2p_messages(), 2u);
  EXPECT_EQ(logs[0].total_p2p_bytes(), 16u);
  EXPECT_EQ(logs[1].total_p2p_messages(), 0u);
  EXPECT_EQ(logs[0].sends.at(1).messages, 2u);
}

TEST(CommLog, CollectivesAreNotDoubleCountedAsP2p) {
  auto logs = Job::run_logged(4, [](Comm& comm) {
    (void)comm.allreduce_sum(1.0);
    comm.barrier();
  });
  for (const auto& log : logs) {
    EXPECT_EQ(log.total_p2p_messages(), 0u);
    EXPECT_EQ(log.collectives.at(CollectiveKind::kAllreduce).calls, 1u);
    EXPECT_EQ(log.collectives.at(CollectiveKind::kBarrier).calls, 1u);
  }
}

TEST(CommLog, DiffComputesDeltas) {
  CommLog before;
  before.record_send(1, 100);
  before.record_collective(CollectiveKind::kBcast, 64);
  CommLog after = before;
  after.record_send(1, 50);
  after.record_send(2, 10);
  after.record_collective(CollectiveKind::kBcast, 64);
  const CommLog delta = after.diff(before);
  EXPECT_EQ(delta.sends.at(1).bytes, 50u);
  EXPECT_EQ(delta.sends.at(2).messages, 1u);
  EXPECT_EQ(delta.collectives.at(CollectiveKind::kBcast).calls, 1u);
  EXPECT_EQ(delta.sends.count(0), 0u);
}

TEST(CommLog, SummaryMentionsTraffic) {
  CommLog log;
  log.record_send(3, 256);
  log.record_collective(CollectiveKind::kAlltoall, 1024);
  const std::string s = log.summary();
  EXPECT_NE(s.find("p2p"), std::string::npos);
  EXPECT_NE(s.find("alltoall"), std::string::npos);
}

// ----- Cartesian grids -----

TEST(Cart, DimsCreateBalancedFactorisation) {
  for (int size : {1, 2, 4, 6, 8, 12, 16, 24, 36, 48, 60, 64, 97}) {
    for (int nd : {1, 2, 3, 4}) {
      const auto dims = dims_create(size, nd);
      ASSERT_EQ(static_cast<int>(dims.size()), nd);
      int prod = 1;
      for (int d : dims) prod *= d;
      EXPECT_EQ(prod, size) << size << " over " << nd;
      EXPECT_TRUE(std::is_sorted(dims.rbegin(), dims.rend()));
    }
  }
}

TEST(Cart, DimsCreate48Over4IsBalanced) {
  const auto dims = dims_create(48, 4);
  // 48 = 2^4 * 3: most balanced 4-way split has max dimension <= 4.
  EXPECT_LE(dims[0], 4);
}

TEST(Cart, CoordsRoundTrip) {
  const CartGrid grid({3, 4, 2}, false);
  for (int r = 0; r < grid.size(); ++r) {
    const auto coords = grid.coords_of(r);
    EXPECT_EQ(grid.rank_of(coords), r);
  }
}

TEST(Cart, NonPeriodicBoundaryIsMinusOne) {
  const CartGrid grid({2, 2}, false);
  EXPECT_EQ(grid.neighbor(0, 0, -1), -1);
  EXPECT_EQ(grid.neighbor(3, 1, +1), -1);
  EXPECT_EQ(grid.neighbor(0, 0, +1), 2);
}

TEST(Cart, PeriodicWrapsAround) {
  const CartGrid grid({3}, true);
  EXPECT_EQ(grid.neighbor(0, 0, -1), 2);
  EXPECT_EQ(grid.neighbor(2, 0, +1), 0);
}

TEST(Cart, NeighborsAreMutual) {
  const CartGrid grid({4, 3}, true);
  for (int r = 0; r < grid.size(); ++r) {
    for (int d = 0; d < grid.ndims(); ++d) {
      const int fwd = grid.neighbor(r, d, +1);
      ASSERT_GE(fwd, 0);
      EXPECT_EQ(grid.neighbor(fwd, d, -1), r);
    }
  }
}

TEST(Cart, CoordsAreFixedSizeUpToEightDims) {
  const CartGrid grid(std::vector<int>(8, 2), true);
  const CartCoords coords = grid.coords_of(grid.size() - 1);
  ASSERT_EQ(coords.size(), 8u);
  for (const int c : coords) EXPECT_EQ(c, 1);
  EXPECT_EQ(grid.rank_of(coords), grid.size() - 1);
  EXPECT_EQ(grid.neighbor(0, 7, -1), 1);
  EXPECT_THROW(CartGrid(std::vector<int>(9, 1), false), Error);
}

TEST(Cart, Validation) {
  EXPECT_THROW(CartGrid({0}, false), Error);
  EXPECT_THROW(dims_create(0, 2), Error);
  const CartGrid grid({2, 2}, false);
  EXPECT_THROW(grid.coords_of(4), Error);
  EXPECT_THROW(grid.neighbor(0, 2, 1), Error);
  EXPECT_THROW(grid.neighbor(0, 0, 2), Error);
}

}  // namespace
}  // namespace fibersim::mp
