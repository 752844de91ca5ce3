// HaloGrid<N> — N-dimensional block-decomposed grid with ghost exchange.
//
// Shared substrate for the structured miniapps (ffvc: 3-D, nicam: 2-D
// columns, ccs_qcd: 4-D, modylas: 3-D cells). Owns the decomposition
// bookkeeping (possibly uneven block split), ghost-aware indexing and the
// dimension-by-dimension ghost exchange. Exchanging dimension d iterates the
// already-exchanged dimensions over their ghost range too, so corner/edge
// ghosts are filled correctly — the standard trick that makes a face-only
// exchange sufficient for 9/27-point stencils.
//
// Fields are caller-owned spans of doubles with `ncomp` interleaved
// components per site, sized field_size(ncomp).
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <span>

#include "common/error.hpp"
#include "mp/cart.hpp"
#include "mp/comm.hpp"

namespace fibersim::apps {

template <int N>
class HaloGrid {
  static_assert(N >= 1 && N <= 4, "HaloGrid supports 1..4 dimensions");

 public:
  using Coord = std::array<int, N>;
  using Extent = std::array<std::int64_t, N>;

  /// Decompose `global` extents over `grid` (one grid dimension per axis);
  /// `rank` selects this rank's block. `ghost` is the ghost width per side.
  HaloGrid(const mp::CartGrid& grid, int rank, const Extent& global, int ghost)
      : grid_(grid), rank_(rank), ghost_(ghost) {
    FS_REQUIRE(grid.ndims() == N, "grid dimensionality mismatch");
    FS_REQUIRE(ghost >= 0, "ghost width must be non-negative");
    const mp::CartCoords coords = grid.coords_of(rank);
    for (int d = 0; d < N; ++d) {
      const int parts = grid.dims()[static_cast<std::size_t>(d)];
      FS_REQUIRE(global[static_cast<std::size_t>(d)] >= parts,
                 "grid extent smaller than its process-grid dimension");
      const std::int64_t base = global[static_cast<std::size_t>(d)] / parts;
      const std::int64_t extra = global[static_cast<std::size_t>(d)] % parts;
      const int c = coords[static_cast<std::size_t>(d)];
      local_[static_cast<std::size_t>(d)] =
          static_cast<int>(base + (c < extra ? 1 : 0));
      offset_[static_cast<std::size_t>(d)] =
          base * c + std::min<std::int64_t>(c, extra);
      FS_REQUIRE(local_[static_cast<std::size_t>(d)] >= ghost || ghost == 0,
                 "local block thinner than the ghost width");
    }
    // Storage strides (row-major, last dimension fastest), with ghosts.
    std::int64_t stride = 1;
    for (int d = N - 1; d >= 0; --d) {
      stride_[static_cast<std::size_t>(d)] = stride;
      stride *= local_[static_cast<std::size_t>(d)] + 2 * ghost_;
    }
    sites_with_ghosts_ = stride;
  }

  int rank() const { return rank_; }
  int ghost() const { return ghost_; }
  const mp::CartGrid& grid() const { return grid_; }
  /// Local extent (without ghosts) in dimension d.
  int local(int d) const { return local_[static_cast<std::size_t>(d)]; }
  /// Global offset of this block in dimension d.
  std::int64_t offset(int d) const { return offset_[static_cast<std::size_t>(d)]; }
  /// Interior sites of this rank.
  std::int64_t volume() const {
    std::int64_t v = 1;
    for (int d = 0; d < N; ++d) v *= local_[static_cast<std::size_t>(d)];
    return v;
  }
  /// Doubles needed to store a field of `ncomp` components per site.
  std::int64_t field_size(int ncomp) const {
    return sites_with_ghosts_ * ncomp;
  }

  /// Storage index of a site; coordinates may range over [-ghost,
  /// local+ghost) per dimension.
  std::int64_t site_index(const Coord& c) const {
    std::int64_t idx = 0;
    for (int d = 0; d < N; ++d) {
      const std::int64_t shifted = c[static_cast<std::size_t>(d)] + ghost_;
      idx += shifted * stride_[static_cast<std::size_t>(d)];
    }
    return idx;
  }

  /// Storage stride of one step in dimension d (in sites).
  std::int64_t stride(int d) const { return stride_[static_cast<std::size_t>(d)]; }

  /// Exchange ghosts of `field` (ncomp doubles per site) with the face
  /// neighbours. Non-periodic boundaries keep their ghost values untouched.
  void exchange(mp::Comm& comm, std::span<double> field, int ncomp) const {
    FS_REQUIRE(static_cast<std::int64_t>(field.size()) == field_size(ncomp),
               "field size does not match the grid");
    FS_REQUIRE(ghost_ > 0, "exchange on a grid without ghosts");
    for (int d = 0; d < N; ++d) {
      exchange_dim(comm, field, ncomp, d);
    }
  }

  /// Bytes one full exchange moves out of this rank (both directions, all
  /// dims) — convenience for work accounting and tests.
  std::int64_t exchange_bytes(int ncomp) const {
    std::int64_t total = 0;
    for (int d = 0; d < N; ++d) {
      std::int64_t face = 1;
      for (int e = 0; e < N; ++e) {
        const std::int64_t ext = local_[static_cast<std::size_t>(e)] +
                                 (e < d ? 2 * ghost_ : 0);
        if (e != d) face *= ext;
      }
      for (int dir : {-1, +1}) {
        if (grid_.neighbor(rank_, d, dir) >= 0) {
          total += face * ghost_ * ncomp * static_cast<std::int64_t>(sizeof(double));
        }
      }
    }
    return total;
  }

 private:
  /// Iterate a hyper-slab as contiguous runs along the innermost dimension:
  /// dims e != d run [lo_e, hi_e); dim d runs the `depth` ghost/boundary
  /// layers starting at `start_d`. `fn(first, sites)` receives the storage
  /// index of each run's first site and the run length; the innermost
  /// stride is 1, so a run is sites * ncomp consecutive doubles.
  template <typename Fn>
  void for_each_run(int d, int start_d, int depth, Fn&& fn) const {
    Coord lo{};
    Coord hi{};
    for (int e = 0; e < N; ++e) {
      if (e == d) {
        lo[static_cast<std::size_t>(e)] = start_d;
        hi[static_cast<std::size_t>(e)] = start_d + depth;
      } else if (e < d) {
        // Dimensions already exchanged: include their ghosts so corners fill.
        lo[static_cast<std::size_t>(e)] = -ghost_;
        hi[static_cast<std::size_t>(e)] = local_[static_cast<std::size_t>(e)] + ghost_;
      } else {
        lo[static_cast<std::size_t>(e)] = 0;
        hi[static_cast<std::size_t>(e)] = local_[static_cast<std::size_t>(e)];
      }
    }
    const std::int64_t run = hi[N - 1] - lo[N - 1];
    Coord c = lo;
    while (true) {
      fn(site_index(c), run);
      int e = N - 2;
      while (e >= 0) {
        if (++c[static_cast<std::size_t>(e)] < hi[static_cast<std::size_t>(e)]) break;
        c[static_cast<std::size_t>(e)] = lo[static_cast<std::size_t>(e)];
        --e;
      }
      if (e < 0) break;
    }
  }

  /// The slab's runs packed straight into a new message payload.
  mp::Buffer pack(std::span<const double> field, int ncomp, int d,
                  int start_d) const {
    const std::size_t bytes =
        static_cast<std::size_t>(slab_doubles(d, ncomp)) * sizeof(double);
    return mp::Buffer::build(bytes, [&](std::byte* out) {
      std::byte* next = out;
      for_each_run(d, start_d, ghost_,
                   [&](std::int64_t first, std::int64_t sites) {
                     const std::size_t run =
                         static_cast<std::size_t>(sites * ncomp) *
                         sizeof(double);
                     std::memcpy(next, field.data() + first * ncomp, run);
                     next += run;
                   });
      FS_ASSERT(next == out + bytes, "halo pack size mismatch");
    });
  }

  /// The received payload's runs copied into the slab.
  void unpack(std::span<double> field, int ncomp, int d, int start_d,
              const mp::Buffer& payload) const {
    const std::byte* next = payload.data();
    for_each_run(d, start_d, ghost_, [&](std::int64_t first, std::int64_t sites) {
      const std::size_t run =
          static_cast<std::size_t>(sites * ncomp) * sizeof(double);
      std::memcpy(field.data() + first * ncomp, next, run);
      next += run;
    });
    FS_ASSERT(next == payload.data() + payload.size(),
              "halo unpack size mismatch");
  }

  void exchange_dim(mp::Comm& comm, std::span<double> field, int ncomp,
                    int d) const {
    const int lo_nbr = grid_.neighbor(rank_, d, -1);
    const int hi_nbr = grid_.neighbor(rank_, d, +1);
    const int tag_lo = 100 + 2 * d;      // travelling toward -d
    const int tag_hi = 100 + 2 * d + 1;  // travelling toward +d
    const std::size_t slab_bytes =
        static_cast<std::size_t>(slab_doubles(d, ncomp)) * sizeof(double);

    // Send my low boundary to the low neighbour, high boundary to the high
    // neighbour; receive their boundaries into my ghost layers.
    if (lo_nbr >= 0) {
      comm.send_buffer(lo_nbr, tag_lo, pack(field, ncomp, d, 0));
    }
    if (hi_nbr >= 0) {
      comm.send_buffer(
          hi_nbr, tag_hi,
          pack(field, ncomp, d, local_[static_cast<std::size_t>(d)] - ghost_));
    }
    if (hi_nbr >= 0) {
      unpack(field, ncomp, d, local_[static_cast<std::size_t>(d)],
             comm.recv_buffer(hi_nbr, tag_lo, slab_bytes));
    }
    if (lo_nbr >= 0) {
      unpack(field, ncomp, d, -ghost_,
             comm.recv_buffer(lo_nbr, tag_hi, slab_bytes));
    }
  }

  std::int64_t slab_doubles(int d, int ncomp) const {
    std::int64_t sites = ghost_;
    for (int e = 0; e < N; ++e) {
      if (e == d) continue;
      sites *= local_[static_cast<std::size_t>(e)] + (e < d ? 2 * ghost_ : 0);
    }
    return sites * ncomp;
  }

  mp::CartGrid grid_;
  int rank_;
  int ghost_;
  Coord local_{};
  Extent offset_{};
  std::array<std::int64_t, N> stride_{};
  std::int64_t sites_with_ghosts_ = 0;
};

}  // namespace fibersim::apps
