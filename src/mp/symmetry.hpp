// Rank-symmetry detection for collapsed simulation.
//
// Every miniapp decomposes its problem by a deterministic rule (a cartesian
// halo grid, a cyclic population split, a block row split, a proportional
// slice).  Two ranks whose position under that rule is structurally
// identical — same local extents, same boundary pattern, same element
// counts — execute bitwise-identical work and record bitwise-identical
// traces up to a relabelling of point-to-point neighbours.  A CollapseSpec
// names the rule; RankSymmetry::build turns it into an explicit partition
// of [0, ranks) into equivalence classes, and the runner then executes only
// one representative rank per class (mp::Job::run_collapsed) while the
// remaining members are replicated analytically (trace::CollapsedTrace).
//
// The contract is byte-identity: wherever a full simulation is feasible,
// the collapsed one must reproduce its canonical trace, its prediction and
// its report output bit for bit.  That is only sound because every work
// estimate in the suite is a pure function of the structural parameters the
// class signature captures — never of data values — and is enforced by
// tests across every miniapp x dataset.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "mp/cart.hpp"

namespace fibersim::mp {

/// Declarative description of a miniapp's rank decomposition, reported by
/// the app itself (Miniapp::collapse_spec) so detection can never drift
/// from the decomposition the app actually executes.
struct CollapseSpec {
  enum class Kind {
    kNone,    ///< app declares no decomposition; collapse unavailable
    kCart,    ///< cartesian halo grid over dims_create(ranks, ndims)
    kCounts,  ///< 1-D population splits (cyclic / block / slice)
  };
  Kind kind = Kind::kNone;

  // kCart: the global extents split per dimension (uneven split
  // base + (coord < extra), exactly as miniapps::HaloGrid does).
  int ndims = 0;
  bool periodic = false;
  std::array<std::int64_t, 4> global = {0, 0, 0, 0};

  // kCounts: up to three independent splits; 0 disables a component.
  /// Cyclic: rank r owns #{g in [0, total) : g % ranks == r} elements.
  std::int64_t cyclic_total = 0;
  /// Block rows: rank r owns total/ranks + (r < total%ranks ? 1 : 0).
  std::int64_t block_total = 0;
  /// Proportional slice: rank r owns [total*r/ranks, total*(r+1)/ranks).
  std::int64_t slice_total = 0;

  bool collapsible() const { return kind != Kind::kNone; }
};

/// The explicit partition of [0, size) into structural equivalence classes.
/// Classes are numbered in order of first appearance (rank ascending), so
/// class c's representative — its lowest member — is ascending in c, and
/// rank 0 is always the representative of class 0.
class RankSymmetry {
 public:
  static RankSymmetry build(const CollapseSpec& spec, int size);

  int size() const { return size_; }
  int classes() const { return static_cast<int>(reps_.size()); }
  int class_of(int rank) const {
    return class_of_[static_cast<std::size_t>(rank)];
  }
  int representative(int cls) const {
    return reps_[static_cast<std::size_t>(cls)];
  }
  /// Member count of a class (the replication weight of its representative).
  std::int64_t weight(int cls) const {
    return static_cast<std::int64_t>(members(cls).size());
  }
  /// Members of a class, ascending.
  const std::vector<int>& members(int cls) const {
    return members_[static_cast<std::size_t>(cls)];
  }
  /// Number of members of `cls` with rank id <= bound (prefix weight; the
  /// collapsed scan_sum needs it).
  std::int64_t members_at_most(int cls, int bound) const;

  /// Factor a representative's p2p destination as a (dim, dir) step on the
  /// cartesian grid, so the same send can be replayed from any member of
  /// the class: member's destination = neighbor(member, dim, dir).
  /// nullopt when the destination is not a grid neighbour of the
  /// representative (the send cannot be collapsed).
  std::optional<std::pair<int, int>> factor_dst(int cls, int dst) const;
  /// Grid neighbour of `rank` along (dim, dir); requires a kCart spec.
  int neighbor_of(int rank, int dim, int dir) const;
  /// Rank offset of a (dim, dir) grid step that does not wrap:
  /// neighbor_of(rank, dim, dir) == rank + step_offset(dim, dir) whenever
  /// edge_mask(rank) lacks step_bit(dim, dir). Requires a kCart spec.
  int step_offset(int dim, int dir) const;
  /// The edge_mask() bit of a (dim, dir) step (dim < 4).
  static std::uint8_t step_bit(int dim, int dir) {
    return static_cast<std::uint8_t>(1u << (2 * dim + (dir > 0 ? 0 : 1)));
  }
  /// step_bit(dim, dir) is set for every step that would leave (or, on a
  /// periodic grid, wrap around) the grid from `rank`: +1 from the last
  /// coordinate of a dimension, -1 from the first. Zero without a grid.
  std::uint8_t edge_mask(int rank) const {
    return edge_.empty() ? 0 : edge_[static_cast<std::size_t>(rank)];
  }

  const CollapseSpec& spec() const { return spec_; }
  /// FNV-1a over the spec, size and the class partition.
  std::uint64_t fingerprint() const;

 private:
  CollapseSpec spec_;
  int size_ = 0;
  std::optional<CartGrid> grid_;  // kCart only
  std::vector<int> class_of_;
  std::vector<std::uint8_t> edge_;  // kCart only: edge_mask per rank
  std::vector<int> reps_;
  std::vector<std::vector<int>> members_;
};

}  // namespace fibersim::mp
