// Point-to-point and collective communication cost model.
//
// A message between two ranks is costed by the topological distance of their
// master cores: latency(distance) + bytes / bandwidth(distance). Collectives
// are costed as log-round algorithms over the participating ranks using the
// widest distance in the communicator — the same first-order model used in
// LogP-style analyses.
//
// The inter-node tier is hierarchical (machine::TorusMap): remote latency is
// the fabric base latency plus per-hop latency over the torus — callers that
// know the actual hop count use remote_latency_seconds(hops); the
// distance-class APIs assume the torus diameter, the conservative bound a
// collective spanning the whole job sees. The intra-socket tier models the
// A64FX's CMG ring: crossing between NUMA domains of one socket pays the
// inter-NUMA hop latency once per ring hop (intra_socket_latency_seconds).
#pragma once

#include <cstdint>

#include "machine/network_model.hpp"
#include "machine/processor.hpp"
#include "topo/topology.hpp"

namespace fibersim::machine {

class CommCostModel {
 public:
  /// `nodes` sizes the torus the remote tier runs over; 1 (the default)
  /// degenerates to a diameter-0 fabric: remote cost is base latency +
  /// injection bandwidth, the pre-hierarchical behaviour.
  explicit CommCostModel(const ProcessorConfig& cfg, int nodes = 1);

  /// One point-to-point message of `bytes` across `distance`.
  double message_seconds(double bytes, topo::Distance distance) const;

  double latency_seconds(topo::Distance distance) const;
  double bandwidth(topo::Distance distance) const;

  /// Remote message latency for a known torus route length.
  double remote_latency_seconds(int hops) const;
  /// Bandwidth of one directed torus link (the contention denominator).
  double link_bandwidth() const { return cfg_.net.link_bw; }
  /// Latency between two NUMA domains of one socket: ring hops on the
  /// on-chip network (domain ids are node-local, [0, numa_per_node)).
  double intra_socket_latency_seconds(int numa_a, int numa_b) const;

  /// Seconds of one remote send over a route of `hops` whose busiest link
  /// carries `foreign` bytes of other pairs: torus hop latency + injection
  /// bandwidth + contended-link share.
  double remote_send_seconds(int hops, std::uint64_t foreign,
                             std::uint64_t messages,
                             std::uint64_t bytes) const {
    return static_cast<double>(messages) * remote_latency_seconds(hops) +
           static_cast<double>(bytes) / bandwidth(topo::Distance::kRemoteNode) +
           static_cast<double>(foreign) / link_bandwidth();
  }
  /// Seconds of one send within a node, between ranks whose master cores
  /// lie in NUMA domains `numa_a` and `numa_b`: CMG-ring hop latency within
  /// a socket, the flat class latencies otherwise.
  double local_send_seconds(topo::Distance d, int numa_a, int numa_b,
                            std::uint64_t messages, std::uint64_t bytes) const {
    const double latency = d == topo::Distance::kSameSocket
                               ? intra_socket_latency_seconds(numa_a, numa_b)
                               : latency_seconds(d);
    return static_cast<double>(messages) * latency +
           static_cast<double>(bytes) / bandwidth(d);
  }

  const TorusMap& torus() const { return torus_; }

  /// Cost of a `ranks`-way collective moving `bytes` per rank, spanning
  /// `distance`: rounds(log2) * message cost, the classic binomial bound.
  double collective_seconds(int ranks, double bytes,
                            topo::Distance distance) const;

  /// All-to-all is bandwidth bound: ranks * bytes through the narrowest link.
  double alltoall_seconds(int ranks, double bytes_per_pair,
                          topo::Distance distance) const;

 private:
  ProcessorConfig cfg_;
  TorusMap torus_;
};

}  // namespace fibersim::machine
