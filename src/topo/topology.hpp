// Hardware topology model.
//
// A machine is a set of identical nodes; each node is sockets x NUMA domains
// x cores. For the A64FX a "NUMA domain" is a CMG (Core Memory Group): 12
// compute cores sharing an 8 MiB L2 slice and one HBM2 stack. Cores are
// numbered consecutively within a domain, domains consecutively within a
// socket, so core / cores_per_numa is the domain index — the same convention
// Fujitsu's runtime uses for A64FX core ids 0..47.
#pragma once

#include <string>

namespace fibersim::topo {

/// Per-node shape: sockets x numa-domains x cores.
struct NodeShape {
  int sockets = 1;
  int numa_per_socket = 1;
  int cores_per_numa = 1;

  int numa_per_node() const { return sockets * numa_per_socket; }
  int cores_per_node() const { return numa_per_node() * cores_per_numa; }

  friend bool operator==(const NodeShape&, const NodeShape&) = default;
};

/// Identifies one core in the whole machine.
struct CoreId {
  int node = 0;
  int core = 0;  ///< index within the node, [0, cores_per_node)

  friend bool operator==(const CoreId&, const CoreId&) = default;
};

/// Topological distance classes, ordered from cheapest to most expensive.
/// The machine and communication models map each class to latency/bandwidth.
enum class Distance {
  kSameCore = 0,
  kSameNuma = 1,    ///< same CMG: shared L2, local HBM stack
  kSameSocket = 2,  ///< crosses the on-chip ring/network between CMGs
  kSameNode = 3,    ///< crosses the socket interconnect (UPI/XGMI)
  kRemoteNode = 4,  ///< crosses the inter-node fabric (Tofu-D class)
};

class Topology {
 public:
  /// A machine of `nodes` identical nodes of the given shape.
  explicit Topology(NodeShape shape, int nodes = 1);

  const NodeShape& shape() const { return shape_; }
  int nodes() const { return nodes_; }
  int cores_per_node() const { return shape_.cores_per_node(); }
  int total_cores() const { return nodes_ * shape_.cores_per_node(); }
  int numa_per_node() const { return shape_.numa_per_node(); }
  int total_numa_domains() const { return nodes_ * shape_.numa_per_node(); }

  /// NUMA domain of a core, local to its node: [0, numa_per_node).
  int numa_of(int core_in_node) const;
  /// Socket of a core, local to its node: [0, sockets).
  int socket_of(int core_in_node) const;
  /// Machine-global NUMA domain id: node * numa_per_node + local domain.
  int global_numa(CoreId core) const;

  Distance distance(CoreId a, CoreId b) const;
  /// distance() without the range checks; both cores must be valid. This
  /// is the one place the rule turning two cores into a class is written.
  Distance distance_unchecked(CoreId a, CoreId b) const {
    if (a.node != b.node) return Distance::kRemoteNode;
    if (a.core == b.core) return Distance::kSameCore;
    const int numa_a = a.core / shape_.cores_per_numa;
    const int numa_b = b.core / shape_.cores_per_numa;
    if (numa_a == numa_b) return Distance::kSameNuma;
    if (numa_a / shape_.numa_per_socket == numa_b / shape_.numa_per_socket) {
      return Distance::kSameSocket;
    }
    return Distance::kSameNode;
  }

  /// e.g. "1 node x 1 socket x 4 numa x 12 cores".
  std::string describe() const;

 private:
  NodeShape shape_;
  int nodes_;
};

}  // namespace fibersim::topo
