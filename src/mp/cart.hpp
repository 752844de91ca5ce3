// Cartesian process-grid helper (MPI_Dims_create / MPI_Cart_* equivalent).
//
// Every halo-exchanging miniapp decomposes its domain with this grid so the
// decomposition logic is tested once.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <vector>

namespace fibersim::mp {

/// Most dimensions a grid may have (dims_create's cap).
inline constexpr int kMaxCartDims = 8;

/// Coordinates of one rank: a fixed array, so grid arithmetic never
/// allocates. Converts to the std::span<const int> rank_of() takes.
class CartCoords {
 public:
  explicit CartCoords(std::size_t ndims) : size_(ndims) {}

  std::size_t size() const { return size_; }
  const int* data() const { return c_.data(); }
  const int* begin() const { return c_.data(); }
  const int* end() const { return c_.data() + size_; }
  int& operator[](std::size_t d) { return c_[d]; }
  int operator[](std::size_t d) const { return c_[d]; }

 private:
  std::array<int, kMaxCartDims> c_{};
  std::size_t size_;
};

/// Factor `size` into `ndims` near-equal dimensions, largest first (the
/// MPI_Dims_create contract: product == size, dims as balanced as possible).
std::vector<int> dims_create(int size, int ndims);

class CartGrid {
 public:
  /// `periodic` applies to every dimension; at most kMaxCartDims dims.
  CartGrid(std::vector<int> dims, bool periodic);

  int ndims() const { return static_cast<int>(dims_.size()); }
  const std::vector<int>& dims() const { return dims_; }
  int size() const { return size_; }
  bool periodic() const { return periodic_; }

  /// Row-major coordinates of a rank.
  CartCoords coords_of(int rank) const;
  /// Rank of coordinates (periodic wrap if enabled); -1 when outside a
  /// non-periodic grid.
  int rank_of(std::span<const int> coords) const;
  /// Neighbouring rank along `dim` in direction `dir` (+1/-1); -1 at a
  /// non-periodic boundary.
  int neighbor(int rank, int dim, int dir) const;

 private:
  std::vector<int> dims_;
  bool periodic_;
  int size_;
};

}  // namespace fibersim::mp
