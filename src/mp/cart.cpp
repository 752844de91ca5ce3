#include "mp/cart.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace fibersim::mp {

std::vector<int> dims_create(int size, int ndims) {
  FS_REQUIRE(size >= 1, "grid size must be >= 1");
  FS_REQUIRE(ndims >= 1 && ndims <= kMaxCartDims, "ndims out of range");
  std::vector<int> dims(static_cast<std::size_t>(ndims), 1);
  // Greedy: repeatedly assign the largest remaining prime factor to the
  // currently smallest dimension, then sort descending.
  std::vector<int> factors;
  int n = size;
  for (int p = 2; p * p <= n; ++p) {
    while (n % p == 0) {
      factors.push_back(p);
      n /= p;
    }
  }
  if (n > 1) factors.push_back(n);
  std::sort(factors.rbegin(), factors.rend());
  for (int f : factors) {
    auto smallest = std::min_element(dims.begin(), dims.end());
    *smallest *= f;
  }
  std::sort(dims.rbegin(), dims.rend());
  return dims;
}

CartGrid::CartGrid(std::vector<int> dims, bool periodic)
    : dims_(std::move(dims)), periodic_(periodic), size_(1) {
  FS_REQUIRE(!dims_.empty(), "grid needs at least one dimension");
  FS_REQUIRE(dims_.size() <= static_cast<std::size_t>(kMaxCartDims),
             "grid has too many dimensions");
  for (int d : dims_) {
    FS_REQUIRE(d >= 1, "grid dimensions must be >= 1");
    size_ *= d;
  }
}

CartCoords CartGrid::coords_of(int rank) const {
  FS_REQUIRE(rank >= 0 && rank < size_, "rank outside the grid");
  CartCoords coords(dims_.size());
  int rem = rank;
  for (int d = ndims() - 1; d >= 0; --d) {
    coords[static_cast<std::size_t>(d)] = rem % dims_[static_cast<std::size_t>(d)];
    rem /= dims_[static_cast<std::size_t>(d)];
  }
  return coords;
}

int CartGrid::rank_of(std::span<const int> coords) const {
  FS_REQUIRE(static_cast<int>(coords.size()) == ndims(),
             "coordinate arity mismatch");
  int rank = 0;
  for (int d = 0; d < ndims(); ++d) {
    int c = coords[static_cast<std::size_t>(d)];
    const int extent = dims_[static_cast<std::size_t>(d)];
    if (c < 0 || c >= extent) {
      if (!periodic_) return -1;
      c = ((c % extent) + extent) % extent;
    }
    rank = rank * extent + c;
  }
  return rank;
}

int CartGrid::neighbor(int rank, int dim, int dir) const {
  FS_REQUIRE(dim >= 0 && dim < ndims(), "dimension out of range");
  FS_REQUIRE(dir == 1 || dir == -1, "direction must be +1 or -1");
  CartCoords coords = coords_of(rank);
  coords[static_cast<std::size_t>(dim)] += dir;
  return rank_of(coords);
}

}  // namespace fibersim::mp
