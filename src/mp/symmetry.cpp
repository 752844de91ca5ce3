#include "mp/symmetry.hpp"

#include <algorithm>
#include <array>

#include "common/error.hpp"
#include "common/hash.hpp"

namespace fibersim::mp {

namespace {

/// Local extent of the uneven split `total` over `n` parts at `coord`
/// (base + 1 for the first total%n coordinates — HaloGrid's rule).
std::int64_t split_extent(std::int64_t total, int n, int coord) {
  const std::int64_t base = total / n;
  const std::int64_t extra = total % n;
  return base + (coord < extra ? 1 : 0);
}

/// Numbering of one component of the rank signature: values are numbered in
/// order of first appearance, so equal numbers mean equal values.
template <typename Value>
int number_of(std::vector<Value>* seen, const Value& value) {
  const auto it = std::find(seen->begin(), seen->end(), value);
  if (it != seen->end()) return static_cast<int>(it - seen->begin());
  seen->push_back(value);
  return static_cast<int>(seen->size()) - 1;
}

/// Structural signature keys of every rank under the spec: two ranks get
/// equal keys iff they execute identical work and record identical traces
/// up to a relabelling of grid neighbours. Keys lie in [0, *key_count).
///
/// A kCart signature is, per dimension, the coordinate's split extent and,
/// on a non-periodic grid, its boundary pattern (a periodic dimension gives
/// every coordinate both neighbours). Each dimension's slices are numbered
/// once per coordinate, so a rank's key is the mixed-radix tuple of its
/// coordinates' slice numbers. A kCounts signature is up to three element
/// counts, each of which takes one of two adjacent values.
std::vector<int> signature_keys(const CollapseSpec& spec, const CartGrid* grid,
                                int size, int* key_count,
                                std::vector<std::uint8_t>* edge) {
  std::vector<int> keys(static_cast<std::size_t>(size));
  switch (spec.kind) {
    case CollapseSpec::Kind::kCart: {
      const int ndims = spec.ndims;
      std::array<std::vector<int>, 4> slice_of;  // [dim][coord]
      std::array<int, 4> radix = {0, 0, 0, 0};
      *key_count = 1;
      for (int d = ndims - 1; d >= 0; --d) {
        const std::size_t ud = static_cast<std::size_t>(d);
        const int n = grid->dims()[ud];
        std::vector<std::array<std::int64_t, 3>> slices;
        slice_of[ud].resize(static_cast<std::size_t>(n));
        for (int c = 0; c < n; ++c) {
          std::array<std::int64_t, 3> slice = {
              split_extent(spec.global[ud], n, c), 0, 0};
          if (!spec.periodic) {
            slice[1] = c == 0 ? 1 : 0;
            slice[2] = c == n - 1 ? 1 : 0;
          }
          slice_of[ud][static_cast<std::size_t>(c)] =
              number_of(&slices, slice);
        }
        radix[ud] = *key_count;
        *key_count *= static_cast<int>(slices.size());
      }
      // Walk the coordinates as an odometer (last dimension fastest, the
      // row-major rank order).
      edge->resize(static_cast<std::size_t>(size));
      std::array<int, 4> coords = {0, 0, 0, 0};
      for (int rank = 0; rank < size; ++rank) {
        int key = 0;
        std::uint8_t mask = 0;
        for (int d = 0; d < ndims; ++d) {
          const std::size_t ud = static_cast<std::size_t>(d);
          const int c = coords[ud];
          key += slice_of[ud][static_cast<std::size_t>(c)] * radix[ud];
          if (c == grid->dims()[ud] - 1) mask |= RankSymmetry::step_bit(d, +1);
          if (c == 0) mask |= RankSymmetry::step_bit(d, -1);
        }
        keys[static_cast<std::size_t>(rank)] = key;
        (*edge)[static_cast<std::size_t>(rank)] = mask;
        for (int d = ndims - 1; d >= 0; --d) {
          const std::size_t ud = static_cast<std::size_t>(d);
          if (++coords[ud] < grid->dims()[ud]) break;
          coords[ud] = 0;
        }
      }
      break;
    }
    case CollapseSpec::Kind::kCounts: {
      // Each count is base or base + 1; bit k of the key says which.
      *key_count = 8;
      for (int rank = 0; rank < size; ++rank) {
        int key = 0;
        if (spec.cyclic_total > 0) {
          // #{g in [0, total): g % size == rank} = total/size + (1 or 0)
          key |= rank < spec.cyclic_total % size ? 1 : 0;
        }
        if (spec.block_total > 0) {
          key |= (rank < spec.block_total % size ? 1 : 0) << 1;
        }
        if (spec.slice_total > 0) {
          const std::int64_t lo = spec.slice_total * rank / size;
          const std::int64_t hi = spec.slice_total * (rank + 1) / size;
          const std::int64_t above = hi - lo - spec.slice_total / size;
          FS_ASSERT(above == 0 || above == 1, "slice count out of range");
          key |= static_cast<int>(above) << 2;
        }
        keys[static_cast<std::size_t>(rank)] = key;
      }
      break;
    }
    case CollapseSpec::Kind::kNone:
      *key_count = 1;
      break;
  }
  return keys;
}

}  // namespace

RankSymmetry RankSymmetry::build(const CollapseSpec& spec, int size) {
  FS_REQUIRE(size >= 1, "symmetry needs at least one rank");
  FS_REQUIRE(spec.collapsible(), "spec declares no decomposition");
  if (spec.kind == CollapseSpec::Kind::kCart) {
    FS_REQUIRE(spec.ndims >= 1 && spec.ndims <= 4,
               "cartesian spec dimensionality out of range");
    for (int d = 0; d < spec.ndims; ++d) {
      FS_REQUIRE(spec.global[static_cast<std::size_t>(d)] >= 1,
                 "cartesian spec needs positive global extents");
    }
  }

  RankSymmetry sym;
  sym.spec_ = spec;
  sym.size_ = size;
  if (spec.kind == CollapseSpec::Kind::kCart) {
    sym.grid_.emplace(dims_create(size, spec.ndims), spec.periodic);
  }
  const CartGrid* grid = sym.grid_ ? &*sym.grid_ : nullptr;

  // Classes are numbered by first appearance of their key.
  int key_count = 0;
  sym.class_of_ = signature_keys(spec, grid, size, &key_count, &sym.edge_);
  std::vector<int> class_of_key(static_cast<std::size_t>(key_count), -1);
  for (int rank = 0; rank < size; ++rank) {
    int& key_or_class = sym.class_of_[static_cast<std::size_t>(rank)];
    int& cls = class_of_key[static_cast<std::size_t>(key_or_class)];
    if (cls < 0) {
      cls = static_cast<int>(sym.reps_.size());
      sym.reps_.push_back(rank);
      sym.members_.emplace_back();
    }
    key_or_class = cls;
    sym.members_[static_cast<std::size_t>(cls)].push_back(rank);
  }
  return sym;
}

std::int64_t RankSymmetry::members_at_most(int cls, int bound) const {
  const std::vector<int>& m = members(cls);
  return std::upper_bound(m.begin(), m.end(), bound) - m.begin();
}

std::optional<std::pair<int, int>> RankSymmetry::factor_dst(int cls,
                                                            int dst) const {
  if (!grid_) return std::nullopt;
  const int rep = representative(cls);
  for (int d = 0; d < grid_->ndims(); ++d) {
    for (const int dir : {+1, -1}) {
      if (grid_->neighbor(rep, d, dir) == dst) return std::make_pair(d, dir);
    }
  }
  return std::nullopt;
}

int RankSymmetry::neighbor_of(int rank, int dim, int dir) const {
  FS_REQUIRE(grid_.has_value(), "neighbor_of needs a cartesian spec");
  return grid_->neighbor(rank, dim, dir);
}

int RankSymmetry::step_offset(int dim, int dir) const {
  FS_REQUIRE(grid_.has_value(), "step_offset needs a cartesian spec");
  FS_REQUIRE(dim >= 0 && dim < grid_->ndims(), "dimension out of range");
  int stride = 1;
  for (int d = dim + 1; d < grid_->ndims(); ++d) {
    stride *= grid_->dims()[static_cast<std::size_t>(d)];
  }
  return dir * stride;
}

std::uint64_t RankSymmetry::fingerprint() const {
  Fnv1a h;
  h.i32(static_cast<int>(spec_.kind))
      .i32(spec_.ndims)
      .i32(spec_.periodic ? 1 : 0)
      .u64(static_cast<std::uint64_t>(spec_.cyclic_total))
      .u64(static_cast<std::uint64_t>(spec_.block_total))
      .u64(static_cast<std::uint64_t>(spec_.slice_total))
      .i32(size_);
  for (const std::int64_t g : spec_.global) {
    h.u64(static_cast<std::uint64_t>(g));
  }
  for (const int c : class_of_) h.i32(c);
  return h.value();
}

}  // namespace fibersim::mp
