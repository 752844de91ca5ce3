// Thread-to-core binding and MPI rank allocation.
//
// This module reproduces the placement controls studied in the paper:
//   * ThreadBindPolicy — the OpenMP "thread stride": slot i of a node's
//     binding order is core (i / (N/s)) + (i % (N/s)) * s, so stride 1 packs
//     threads into consecutive cores (filling one CMG before the next) and
//     stride 4 on a 48-core A64FX interleaves threads across all four CMGs.
//     `scatter` is the maximal stride (= cores per NUMA domain).
//   * RankAllocPolicy — how MPI ranks claim chunks of that binding order:
//     block (consecutive), cyclic (interleaved per thread index), or scatter
//     (consecutive ranks pushed to different regions of the order).
//
// The resulting Binding is a pure data object consumed by the runtime (to pin
// simulated threads), by the machine model (NUMA homing, barrier span) and by
// the communication cost model (rank-to-rank distance).
#pragma once

#include <string>
#include <vector>

#include "topo/topology.hpp"

namespace fibersim::topo {

enum class BindKind { kCompact, kStrided, kScatter };

/// The OpenMP thread-stride policy.
struct ThreadBindPolicy {
  BindKind kind = BindKind::kCompact;
  int stride = 1;  ///< only meaningful for kStrided

  static ThreadBindPolicy compact() { return {BindKind::kCompact, 1}; }
  static ThreadBindPolicy strided(int s) { return {BindKind::kStrided, s}; }
  static ThreadBindPolicy scatter() { return {BindKind::kScatter, 0}; }

  /// Effective stride on a node with the given shape.
  int effective_stride(const NodeShape& shape) const;
  std::string name() const;

  friend bool operator==(const ThreadBindPolicy&,
                         const ThreadBindPolicy&) = default;
};

/// The MPI process allocation policy.
enum class RankAllocPolicy { kBlock, kCyclic, kScatter };

const char* rank_alloc_name(RankAllocPolicy policy);

/// Immutable placement of `ranks` x `threads_per_rank` onto a Topology.
class Binding {
 public:
  /// Builds the placement. Requires that the ranks fit: ranks are spread
  /// over nodes as evenly as possible (consecutive blocks of ranks per
  /// node) and each node must have enough cores for its local ranks'
  /// threads. The effective stride must divide the node core count.
  static Binding make(const Topology& topology, int ranks,
                      int threads_per_rank, RankAllocPolicy alloc,
                      ThreadBindPolicy bind);

  int ranks() const { return ranks_; }
  int threads_per_rank() const { return threads_per_rank_; }

  CoreId core_of(int rank, int thread) const;
  int node_of(int rank) const { return rank_nodes_[checked(rank)]; }
  /// Global NUMA domain of one thread's core.
  int thread_numa(int rank, int thread) const;
  /// Global NUMA domain of the rank's master thread — where rank-shared data
  /// is homed (serial first touch; see DESIGN.md).
  int home_numa(int rank) const { return home_numa_[checked(rank)]; }
  /// Number of distinct NUMA domains the rank's team spans.
  int numa_span(int rank) const;
  /// Widest topological distance between the rank's master core and any of
  /// its other threads' cores (drives the barrier cost).
  Distance team_span(int rank) const { return team_span_[checked(rank)]; }
  /// Widest distance between any two ranks' master cores (drives the
  /// collective cost).
  Distance job_span() const { return job_span_; }
  /// Topological distance between two ranks' master cores (drives the
  /// communication cost model).
  Distance rank_distance(int a, int b) const {
    return master_distance(checked(a), checked(b));
  }

  // Flat per-rank / per-thread placement, filled once by make(): the
  // prediction engine reads these directly in its per-rank loops.
  /// Node of each rank.
  const std::vector<int>& rank_nodes() const { return rank_nodes_; }
  /// Global NUMA domain of each rank's master core (its home domain).
  const std::vector<int>& home_numas() const { return home_numa_; }
  /// team_span() of each rank.
  const std::vector<Distance>& team_spans() const { return team_span_; }
  /// Global NUMA domain of each thread, [rank * threads_per_rank + thread].
  const std::vector<int>& thread_numas() const { return thread_numa_; }
  /// rank_distance() without the range check; both ranks must be valid.
  Distance master_distance(std::size_t a, std::size_t b) const {
    return topology_.distance_unchecked(
        CoreId{rank_nodes_[a], master_core_[a]},
        CoreId{rank_nodes_[b], master_core_[b]});
  }

  const Topology& topology() const { return topology_; }

 private:
  Binding(const Topology& topology, int ranks, int threads_per_rank)
      : topology_(topology), ranks_(ranks), threads_per_rank_(threads_per_rank) {}

  std::size_t index(int rank, int thread) const;
  /// `rank` as an index into the per-rank arrays, range-checked.
  std::size_t checked(int rank) const;

  /// The placement of one node's ranks: every node hosting the same number
  /// of ranks gets the same layout.
  struct NodeLayout {
    std::vector<int> cores;       // [local rank * threads + thread]
    std::vector<int> numa;        // node-local domain of each core
    std::vector<Distance> spans;  // team span of each local rank
  };

  Topology topology_;
  int ranks_;
  int threads_per_rank_;
  // Nodes [0, extra_) host base_ + 1 ranks with wide_'s layout, the rest
  // base_ ranks with narrow_'s; with extra_ == 0 every node uses wide_.
  int base_ = 0;
  int extra_ = 0;
  NodeLayout wide_;
  NodeLayout narrow_;
  std::vector<int> rank_nodes_;
  std::vector<int> master_core_;  // core of each rank's master, in its node
  std::vector<int> home_numa_;
  std::vector<Distance> team_span_;
  std::vector<int> thread_numa_;  // [rank * threads_per_rank + thread]
  Distance job_span_ = Distance::kSameNuma;
};

/// The binding order of one node: returns a permutation of [0, N) where entry
/// i is the core claimed by slot i. Exposed for tests and diagnostics.
std::vector<int> binding_order(const NodeShape& shape, ThreadBindPolicy bind);

}  // namespace fibersim::topo
