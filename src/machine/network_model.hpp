// Hierarchical inter-node network model: a Tofu-class 3-D torus with
// dimension-ordered routing and per-link contention.
//
// Nodes are laid out on a balanced 3-D torus (the same largest-first
// factorisation rule the rank grid uses, implemented locally so the machine
// layer stays independent of mp). A message from node a to node b takes the
// shortest-wrap route dimension by dimension (x, then y, then z; ties break
// to the positive direction), paying NetworkConfig::base_latency_us once
// plus hop_latency_ns per hop. Bytes cross the source node's injection port
// at injection_bw, and every directed torus link on the route at link_bw.
//
// Contention is modelled per phase: LinkContention aggregates every
// inter-node flow of the phase, and at seal time routes each distinct node
// pair once and computes the *foreign* bytes sharing the pair's busiest
// link — the bottleneck-link approximation — which every send of that pair
// is charged, and the pair's hop count (its route length). A route is at
// most three straight runs along torus rings, so seal() loads links by ring
// intervals (a difference array per ring, then a prefix sum) and reads each
// pair's busiest link as a range maximum per run (a sparse table per ring):
// O(pairs + links) per phase, whatever the route lengths. Flows live in a
// flat table chained per source node (a node talks to a handful of others
// per phase, so a chain is a few entries).
// Every load is a uint64_t sum, so the order flows arrive in cannot change
// a bit of any answer. More traffic on a shared link can only raise (never
// lower) a flow's cost; a monotonicity test in tests/test_machine.cpp pins
// that property.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "machine/processor.hpp"

namespace fibersim::machine {

/// Factor `nodes` into three balanced dimensions, largest first.
std::array<int, 3> balanced_dims3(int nodes);

/// Node coordinates and routes on the 3-D torus.
class TorusMap {
 public:
  explicit TorusMap(int nodes);

  int nodes() const { return nodes_; }
  const std::array<int, 3>& dims() const { return dims_; }
  std::array<int, 3> coords_of(int node) const;
  int node_of(const std::array<int, 3>& coords) const;

  /// Hop count of the dimension-ordered shortest-wrap route a -> b.
  int hops(int a, int b) const;
  /// Worst-case hop count between any two nodes.
  int diameter_hops() const;

  /// Directed link ids along the route a -> b, appended to `out` (not
  /// cleared). A link id is node * 6 + dim * 2 + (dir > 0 ? 0 : 1), where
  /// `node` is the link's source.
  void route_links(int a, int b, std::vector<int>* out) const;
  int link_count() const { return nodes_ * 6; }

 private:
  int nodes_ = 1;
  std::array<int, 3> dims_ = {1, 1, 1};
};

/// Per-phase link contention: aggregate flows, seal, then query each pair's
/// foreign bytes (the traffic it shares its busiest route link with). Each
/// distinct node pair is one entry of a flat table, chained from a head
/// index per source node; seal() routes every entry once, sums the link
/// loads and stores each pair's foreign bytes, so a query walks the
/// source's short chain with no routing, hashing or allocation.
class LinkContention {
 public:
  explicit LinkContention(const TorusMap* torus) : torus_(torus) {}

  /// Accumulate `bytes` flowing src_node -> dst_node (ignored when equal or
  /// zero). Both nodes must lie in [0, torus nodes).
  void add_flow(int src_node, int dst_node, std::uint64_t bytes);
  /// add_flow for two distinct nodes that also registers the pair when
  /// `bytes` is zero, and returns the pair's flow index: after seal(),
  /// flow_foreign() and flow_hops() answer for every send of the pair with
  /// no chain walk. A pair that never carries a byte loads no link and has
  /// zero foreign bytes, exactly as foreign_bytes() answers for a pair it
  /// never saw.
  int add_flow_index(int src_node, int dst_node, std::uint64_t bytes);
  /// Route every distinct pair once as ring runs, build per-link loads and
  /// store each pair's foreign bytes and route length. The tables live for
  /// the call only.
  void seal();
  bool sealed() const { return sealed_; }

  /// Bytes of *other* pairs' traffic on the busiest link of this pair's
  /// route: max over route links of (link load - this pair's bytes).
  /// Zero for self-flows, unknown or out-of-range pairs and single-node
  /// tori.
  std::uint64_t foreign_bytes(int src_node, int dst_node) const;

  /// foreign_bytes() of the pair add_flow_index() returned `flow` for
  /// (valid once sealed).
  std::uint64_t flow_foreign(int flow) const {
    return flows_[static_cast<std::size_t>(flow)].foreign;
  }
  /// Route length of flow `flow`: TorusMap::hops of its pair (valid once
  /// sealed).
  int flow_hops(int flow) const {
    return flows_[static_cast<std::size_t>(flow)].hops;
  }

  /// Total load of the most loaded directed link (diagnostics).
  std::uint64_t max_link_load() const { return max_link_load_; }

 private:
  /// A pair's aggregated bytes; seal() fills in its foreign bytes and hops.
  struct Flow {
    int src = 0;
    int dst = 0;
    int next = -1;  // the source's next flow in flows_, -1 ends the chain
    int hops = 0;
    std::uint64_t bytes = 0;
    std::uint64_t foreign = 0;
  };

  void check_flow(int src_node, int dst_node) const;
  /// Index of the (src, dst) entry, appended when new; adds `bytes`.
  int find_or_add(int src_node, int dst_node, std::uint64_t bytes);

  const TorusMap* torus_;
  /// First flow of each source node (-1: none). Sized on the first flow, so
  /// a phase without inter-node traffic allocates nothing.
  std::vector<int> head_;
  std::vector<Flow> flows_;  // insertion order
  std::uint64_t max_link_load_ = 0;
  bool sealed_ = false;
};

}  // namespace fibersim::machine
