// Property tests for the N-dimensional halo grid: decomposition, indexing,
// and ghost-exchange correctness against a globally assembled reference.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <mutex>
#include <vector>

#include "common/error.hpp"
#include "miniapps/halo_grid.hpp"
#include "mp/job.hpp"

namespace fibersim::apps {
namespace {

TEST(HaloGrid, EvenDecomposition2D) {
  const mp::CartGrid grid({2, 2}, false);
  const HaloGrid<2> hg(grid, 3, {8, 8}, 1);
  EXPECT_EQ(hg.local(0), 4);
  EXPECT_EQ(hg.local(1), 4);
  EXPECT_EQ(hg.offset(0), 4);
  EXPECT_EQ(hg.offset(1), 4);
  EXPECT_EQ(hg.volume(), 16);
}

TEST(HaloGrid, UnevenDecompositionCoversExactly) {
  const mp::CartGrid grid({3}, false);
  std::int64_t total = 0;
  std::int64_t expected_offset = 0;
  for (int r = 0; r < 3; ++r) {
    const HaloGrid<1> hg(grid, r, {10}, 1);
    EXPECT_EQ(hg.offset(0), expected_offset);
    expected_offset += hg.local(0);
    total += hg.volume();
  }
  EXPECT_EQ(total, 10);
}

TEST(HaloGrid, FieldSizeIncludesGhosts) {
  const mp::CartGrid grid({1, 1}, false);
  const HaloGrid<2> hg(grid, 0, {4, 4}, 1);
  EXPECT_EQ(hg.field_size(1), 36);  // (4+2)^2
  EXPECT_EQ(hg.field_size(3), 108);
}

TEST(HaloGrid, SiteIndexCoversGhostRange) {
  const mp::CartGrid grid({1}, false);
  const HaloGrid<1> hg(grid, 0, {5}, 2);
  EXPECT_EQ(hg.site_index({-2}), 0);
  EXPECT_EQ(hg.site_index({0}), 2);
  EXPECT_EQ(hg.site_index({6}), 8);
}

TEST(HaloGrid, StrideMatchesIndexSteps) {
  const mp::CartGrid grid({1, 1, 1}, false);
  const HaloGrid<3> hg(grid, 0, {4, 5, 6}, 1);
  EXPECT_EQ(hg.site_index({1, 0, 0}) - hg.site_index({0, 0, 0}), hg.stride(0));
  EXPECT_EQ(hg.site_index({0, 1, 0}) - hg.site_index({0, 0, 0}), hg.stride(1));
  EXPECT_EQ(hg.stride(2), 1);
}

TEST(HaloGrid, RejectsBadConstruction) {
  const mp::CartGrid grid({4}, false);
  EXPECT_THROW((HaloGrid<1>(grid, 0, {3}, 1)), Error);  // extent < parts
  const mp::CartGrid grid2({2, 2}, false);
  EXPECT_THROW((HaloGrid<1>(grid2, 0, {8}, 1)), Error);  // ndims mismatch
}

/// Exchange property: after one exchange, every ghost site holds the value
/// its owner assigned, where values encode global coordinates uniquely.
struct ExchangeCase {
  std::vector<int> dims;
  bool periodic;
  int ncomp;
};

class ExchangeProperty2D : public ::testing::TestWithParam<ExchangeCase> {};

double encode(std::int64_t gi, std::int64_t gj, int comp) {
  return static_cast<double>(gi * 1000 + gj * 10 + comp);
}

TEST_P(ExchangeProperty2D, GhostsMatchOwners) {
  const ExchangeCase c = GetParam();
  const mp::CartGrid grid(c.dims, c.periodic);
  const std::int64_t gx = 9;
  const std::int64_t gy = 7;
  mp::Job::run(grid.size(), [&](mp::Comm& comm) {
    const HaloGrid<2> hg(grid, comm.rank(), {gx, gy}, 1);
    std::vector<double> field(static_cast<std::size_t>(hg.field_size(c.ncomp)),
                              -1.0);
    for (int i = 0; i < hg.local(0); ++i) {
      for (int j = 0; j < hg.local(1); ++j) {
        for (int k = 0; k < c.ncomp; ++k) {
          field[static_cast<std::size_t>(hg.site_index({i, j}) * c.ncomp + k)] =
              encode(hg.offset(0) + i, hg.offset(1) + j, k);
        }
      }
    }
    hg.exchange(comm, std::span<double>(field), c.ncomp);
    // Check every ghost site, including corners.
    for (int i = -1; i <= hg.local(0); ++i) {
      for (int j = -1; j <= hg.local(1); ++j) {
        const bool interior =
            i >= 0 && i < hg.local(0) && j >= 0 && j < hg.local(1);
        if (interior) continue;
        std::int64_t gi = hg.offset(0) + i;
        std::int64_t gj = hg.offset(1) + j;
        bool exists = true;
        if (c.periodic) {
          gi = (gi + gx) % gx;
          gj = (gj + gy) % gy;
        } else if (gi < 0 || gi >= gx || gj < 0 || gj >= gy) {
          exists = false;
        }
        for (int k = 0; k < c.ncomp; ++k) {
          const double got = field[static_cast<std::size_t>(
              hg.site_index({i, j}) * c.ncomp + k)];
          if (exists) {
            EXPECT_DOUBLE_EQ(got, encode(gi, gj, k))
                << "ghost (" << i << "," << j << ") comp " << k << " rank "
                << comm.rank();
          } else {
            EXPECT_DOUBLE_EQ(got, -1.0) << "domain-boundary ghost touched";
          }
        }
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ExchangeProperty2D,
    ::testing::Values(ExchangeCase{{1, 1}, false, 1},
                      ExchangeCase{{2, 2}, false, 1},
                      ExchangeCase{{2, 2}, true, 1},
                      ExchangeCase{{3, 2}, false, 2},
                      ExchangeCase{{3, 2}, true, 3},
                      ExchangeCase{{4, 1}, true, 1},
                      ExchangeCase{{1, 4}, false, 2},
                      ExchangeCase{{9, 1}, true, 1}));

/// Per-site halo exchange: the slab walk, pack and unpack HaloGrid used
/// before it copied whole innermost runs, kept as the oracle for exchange().
/// Sends on its own tags so it cannot match HaloGrid's messages.
template <int N>
class PerSiteExchange {
 public:
  using Coord = typename HaloGrid<N>::Coord;

  explicit PerSiteExchange(const HaloGrid<N>& hg) : hg_(hg) {}

  void exchange(mp::Comm& comm, std::span<double> field, int ncomp) const {
    const int ghost = hg_.ghost();
    for (int d = 0; d < N; ++d) {
      const int lo_nbr = hg_.grid().neighbor(hg_.rank(), d, -1);
      const int hi_nbr = hg_.grid().neighbor(hg_.rank(), d, +1);
      const int tag_lo = 300 + 2 * d;
      const int tag_hi = 300 + 2 * d + 1;
      std::vector<double> send_lo, send_hi, recv_lo, recv_hi;
      if (lo_nbr >= 0) {
        pack(field, ncomp, d, 0, send_lo);
        comm.send(lo_nbr, tag_lo, std::span<const double>(send_lo));
      }
      if (hi_nbr >= 0) {
        pack(field, ncomp, d, hg_.local(d) - ghost, send_hi);
        comm.send(hi_nbr, tag_hi, std::span<const double>(send_hi));
      }
      if (hi_nbr >= 0) {
        recv_hi.resize(slab_doubles(ncomp, d));
        comm.recv(hi_nbr, tag_lo, std::span<double>(recv_hi));
        unpack(field, ncomp, d, hg_.local(d), recv_hi);
      }
      if (lo_nbr >= 0) {
        recv_lo.resize(slab_doubles(ncomp, d));
        comm.recv(lo_nbr, tag_hi, std::span<double>(recv_lo));
        unpack(field, ncomp, d, -ghost, recv_lo);
      }
    }
  }

 private:
  template <typename Fn>
  void for_each_slab(int d, int start_d, Fn&& fn) const {
    const int ghost = hg_.ghost();
    Coord lo{};
    Coord hi{};
    for (int e = 0; e < N; ++e) {
      const auto ue = static_cast<std::size_t>(e);
      if (e == d) {
        lo[ue] = start_d;
        hi[ue] = start_d + ghost;
      } else if (e < d) {
        lo[ue] = -ghost;
        hi[ue] = hg_.local(e) + ghost;
      } else {
        lo[ue] = 0;
        hi[ue] = hg_.local(e);
      }
    }
    Coord c = lo;
    while (true) {
      fn(c);
      int e = N - 1;
      while (e >= 0) {
        if (++c[static_cast<std::size_t>(e)] < hi[static_cast<std::size_t>(e)]) break;
        c[static_cast<std::size_t>(e)] = lo[static_cast<std::size_t>(e)];
        --e;
      }
      if (e < 0) break;
    }
  }

  std::size_t slab_doubles(int ncomp, int d) const {
    std::size_t count = 0;
    for_each_slab(d, 0, [&](const Coord&) { count += static_cast<std::size_t>(ncomp); });
    return count;
  }

  void pack(std::span<const double> field, int ncomp, int d, int start_d,
            std::vector<double>& buffer) const {
    buffer.clear();
    for_each_slab(d, start_d, [&](const Coord& c) {
      const std::int64_t base = hg_.site_index(c) * ncomp;
      for (int k = 0; k < ncomp; ++k) {
        buffer.push_back(field[static_cast<std::size_t>(base + k)]);
      }
    });
  }

  void unpack(std::span<double> field, int ncomp, int d, int start_d,
              std::span<const double> buffer) const {
    std::size_t pos = 0;
    for_each_slab(d, start_d, [&](const Coord& c) {
      const std::int64_t base = hg_.site_index(c) * ncomp;
      for (int k = 0; k < ncomp; ++k) {
        field[static_cast<std::size_t>(base + k)] = buffer[pos++];
      }
    });
    ASSERT_EQ(pos, buffer.size());
  }

  const HaloGrid<N>& hg_;
};

/// Run exchange() and the per-site oracle on identical fields, every
/// double (ghosts included) distinct, and require bit-identical results.
template <int N>
void expect_exchange_matches_per_site(const std::vector<int>& dims,
                                      const typename HaloGrid<N>::Extent& global,
                                      int ghost, int ncomp, bool periodic) {
  const mp::CartGrid grid(dims, periodic);
  mp::Job::run(grid.size(), [&](mp::Comm& comm) {
    const HaloGrid<N> hg(grid, comm.rank(), global, ghost);
    std::vector<double> fast(static_cast<std::size_t>(hg.field_size(ncomp)));
    for (std::size_t i = 0; i < fast.size(); ++i) {
      fast[i] = comm.rank() * 1e6 + static_cast<double>(i) + 0.25;
    }
    std::vector<double> oracle = fast;
    hg.exchange(comm, std::span<double>(fast), ncomp);
    PerSiteExchange<N>(hg).exchange(comm, std::span<double>(oracle), ncomp);
    ASSERT_EQ(fast.size(), oracle.size());
    EXPECT_EQ(std::memcmp(fast.data(), oracle.data(),
                          fast.size() * sizeof(double)),
              0)
        << N << "-D, ghost " << ghost << ", ncomp " << ncomp
        << (periodic ? ", periodic" : ", open") << ", rank " << comm.rank();
  });
}

TEST(HaloGrid, ExchangeMatchesPerSiteOracle) {
  for (const int ghost : {1, 2}) {
    for (const int ncomp : {1, 3}) {
      for (const bool periodic : {false, true}) {
        // Even splits, then uneven ones (a remainder on some axis).
        expect_exchange_matches_per_site<1>({3}, {12}, ghost, ncomp, periodic);
        expect_exchange_matches_per_site<1>({3}, {13}, ghost, ncomp, periodic);
        expect_exchange_matches_per_site<2>({2, 3}, {8, 9}, ghost, ncomp,
                                            periodic);
        expect_exchange_matches_per_site<2>({2, 3}, {9, 11}, ghost, ncomp,
                                            periodic);
        expect_exchange_matches_per_site<3>({2, 1, 2}, {6, 5, 8}, ghost, ncomp,
                                            periodic);
        expect_exchange_matches_per_site<3>({2, 1, 2}, {7, 5, 9}, ghost, ncomp,
                                            periodic);
        expect_exchange_matches_per_site<4>({2, 1, 1, 2}, {4, 3, 5, 6}, ghost,
                                            ncomp, periodic);
        expect_exchange_matches_per_site<4>({2, 1, 1, 2}, {5, 4, 5, 7}, ghost,
                                            ncomp, periodic);
      }
    }
  }
}

TEST(HaloGrid, Exchange4DFillsFaceGhosts) {
  const mp::CartGrid grid({2, 1, 1, 1}, true);
  mp::Job::run(2, [&](mp::Comm& comm) {
    const HaloGrid<4> hg(grid, comm.rank(), {4, 3, 3, 3}, 1);
    std::vector<double> field(static_cast<std::size_t>(hg.field_size(1)), -1.0);
    for (int a = 0; a < hg.local(0); ++a) {
      for (int b = 0; b < hg.local(1); ++b) {
        for (int c = 0; c < hg.local(2); ++c) {
          for (int d = 0; d < hg.local(3); ++d) {
            field[static_cast<std::size_t>(hg.site_index({a, b, c, d}))] =
                static_cast<double>(hg.offset(0) + a);
          }
        }
      }
    }
    hg.exchange(comm, std::span<double>(field), 1);
    // Dim-0 ghosts: the neighbouring block's boundary plane (periodic).
    const double left = field[static_cast<std::size_t>(
        hg.site_index({-1, 0, 0, 0}))];
    const double expected = comm.rank() == 0 ? 3.0 : 1.0;
    EXPECT_DOUBLE_EQ(left, expected);
  });
}

TEST(HaloGrid, ExchangeBytesMatchesLoggedTraffic) {
  const mp::CartGrid grid({2, 2}, true);
  auto logs = mp::Job::run_logged(4, [&](mp::Comm& comm) {
    const HaloGrid<2> hg(grid, comm.rank(), {8, 8}, 1);
    std::vector<double> field(static_cast<std::size_t>(hg.field_size(2)), 0.0);
    hg.exchange(comm, std::span<double>(field), 2);
  });
  const mp::CartGrid check({2, 2}, true);
  for (int r = 0; r < 4; ++r) {
    const HaloGrid<2> hg(check, r, {8, 8}, 1);
    EXPECT_EQ(logs[static_cast<std::size_t>(r)].total_p2p_bytes(),
              static_cast<std::uint64_t>(hg.exchange_bytes(2)));
  }
}

TEST(HaloGrid, GhostWidthTwoExchangesBothLayers) {
  const mp::CartGrid grid({2}, true);
  mp::Job::run(2, [&](mp::Comm& comm) {
    const HaloGrid<1> hg(grid, comm.rank(), {12}, 2);
    std::vector<double> field(static_cast<std::size_t>(hg.field_size(1)), -1.0);
    for (int i = 0; i < hg.local(0); ++i) {
      field[static_cast<std::size_t>(hg.site_index({i}))] =
          static_cast<double>(hg.offset(0) + i);
    }
    hg.exchange(comm, std::span<double>(field), 1);
    const std::int64_t gx = 12;
    for (int i : {-2, -1, hg.local(0), hg.local(0) + 1}) {
      const std::int64_t global = (hg.offset(0) + i + gx) % gx;
      EXPECT_DOUBLE_EQ(field[static_cast<std::size_t>(hg.site_index({i}))],
                       static_cast<double>(global))
          << "ghost " << i << " on rank " << comm.rank();
    }
  });
}

TEST(HaloGrid, RepeatedExchangesAreStable) {
  const mp::CartGrid grid({2}, true);
  mp::Job::run(2, [&](mp::Comm& comm) {
    const HaloGrid<1> hg(grid, comm.rank(), {6}, 1);
    std::vector<double> field(static_cast<std::size_t>(hg.field_size(1)), 0.0);
    for (int i = 0; i < hg.local(0); ++i) {
      field[static_cast<std::size_t>(hg.site_index({i}))] =
          static_cast<double>(comm.rank());
    }
    hg.exchange(comm, std::span<double>(field), 1);
    const double first = field[static_cast<std::size_t>(hg.site_index({-1}))];
    for (int round = 0; round < 5; ++round) {
      hg.exchange(comm, std::span<double>(field), 1);
    }
    EXPECT_DOUBLE_EQ(field[static_cast<std::size_t>(hg.site_index({-1}))],
                     first);
  });
}

}  // namespace
}  // namespace fibersim::apps
