#include "topo/topology.hpp"

#include "common/error.hpp"
#include "common/string_util.hpp"

namespace fibersim::topo {

Topology::Topology(NodeShape shape, int nodes) : shape_(shape), nodes_(nodes) {
  FS_REQUIRE(shape.sockets >= 1, "topology needs >= 1 socket");
  FS_REQUIRE(shape.numa_per_socket >= 1, "topology needs >= 1 numa/socket");
  FS_REQUIRE(shape.cores_per_numa >= 1, "topology needs >= 1 core/numa");
  FS_REQUIRE(nodes >= 1, "topology needs >= 1 node");
}

int Topology::numa_of(int core_in_node) const {
  FS_REQUIRE(core_in_node >= 0 && core_in_node < cores_per_node(),
             "core index out of range");
  return core_in_node / shape_.cores_per_numa;
}

int Topology::socket_of(int core_in_node) const {
  return numa_of(core_in_node) / shape_.numa_per_socket;
}

int Topology::global_numa(CoreId core) const {
  FS_REQUIRE(core.node >= 0 && core.node < nodes_, "node index out of range");
  return core.node * numa_per_node() + numa_of(core.core);
}

Distance Topology::distance(CoreId a, CoreId b) const {
  FS_REQUIRE(a.node >= 0 && a.node < nodes_ && b.node >= 0 && b.node < nodes_,
             "node index out of range");
  const int cores = cores_per_node();
  FS_REQUIRE(a.core >= 0 && a.core < cores && b.core >= 0 && b.core < cores,
             "core index out of range");
  return distance_unchecked(a, b);
}

std::string Topology::describe() const {
  return strfmt("%d node(s) x %d socket(s) x %d numa x %d cores", nodes_,
                shape_.sockets, shape_.numa_per_socket, shape_.cores_per_numa);
}

}  // namespace fibersim::topo
