#include "machine/network_model.hpp"

#include <algorithm>
#include <functional>

#include "common/error.hpp"

namespace fibersim::machine {

std::array<int, 3> balanced_dims3(int nodes) {
  FS_REQUIRE(nodes >= 1, "torus needs at least one node");
  // Same greedy rule as mp::dims_create (largest prime factor onto the
  // currently smallest dimension), implemented locally so the machine layer
  // stays independent of mp: torus shapes match the grids apps build.
  std::vector<int> factors;
  int n = nodes;
  for (int p = 2; p * p <= n; ++p) {
    while (n % p == 0) {
      factors.push_back(p);
      n /= p;
    }
  }
  if (n > 1) factors.push_back(n);
  std::sort(factors.rbegin(), factors.rend());
  std::array<int, 3> dims = {1, 1, 1};
  for (const int f : factors) {
    *std::min_element(dims.begin(), dims.end()) *= f;
  }
  std::sort(dims.begin(), dims.end(), std::greater<int>());
  return dims;
}

TorusMap::TorusMap(int nodes) : nodes_(nodes), dims_(balanced_dims3(nodes)) {}

std::array<int, 3> TorusMap::coords_of(int node) const {
  FS_REQUIRE(node >= 0 && node < nodes_, "torus node out of range");
  // Row-major: x slowest, z fastest.
  const int yz = dims_[1] * dims_[2];
  return {node / yz, (node / dims_[2]) % dims_[1], node % dims_[2]};
}

int TorusMap::node_of(const std::array<int, 3>& coords) const {
  return (coords[0] * dims_[1] + coords[1]) * dims_[2] + coords[2];
}

namespace {
/// Signed shortest-wrap displacement from `from` to `to` on a ring of `n`;
/// ties (exactly half way) break positive.
int ring_step(int from, int to, int n) {
  int fwd = (to - from + n) % n;       // steps in the positive direction
  const int bwd = n - fwd;             // steps in the negative direction
  if (fwd == 0) return 0;
  return fwd <= bwd ? fwd : -bwd;
}
}  // namespace

int TorusMap::hops(int a, int b) const {
  const std::array<int, 3> ca = coords_of(a);
  const std::array<int, 3> cb = coords_of(b);
  int h = 0;
  for (int d = 0; d < 3; ++d) {
    h += std::abs(ring_step(ca[static_cast<std::size_t>(d)],
                            cb[static_cast<std::size_t>(d)],
                            dims_[static_cast<std::size_t>(d)]));
  }
  return h;
}

int TorusMap::diameter_hops() const {
  int h = 0;
  for (const int n : dims_) h += n / 2;
  return h;
}

void TorusMap::route_links(int a, int b, std::vector<int>* out) const {
  std::array<int, 3> cur = coords_of(a);
  const std::array<int, 3> dst = coords_of(b);
  for (int d = 0; d < 3; ++d) {
    const int n = dims_[static_cast<std::size_t>(d)];
    int step = ring_step(cur[static_cast<std::size_t>(d)],
                         dst[static_cast<std::size_t>(d)], n);
    const int dir = step > 0 ? +1 : -1;
    while (step != 0) {
      const int src_node = node_of(cur);
      out->push_back(src_node * 6 + d * 2 + (dir > 0 ? 0 : 1));
      cur[static_cast<std::size_t>(d)] =
          (cur[static_cast<std::size_t>(d)] + dir + n) % n;
      step -= dir;
    }
  }
}

void LinkContention::check_flow(int src_node, int dst_node) const {
  FS_REQUIRE(!sealed_, "contention map is sealed");
  const int nodes = torus_->nodes();
  FS_REQUIRE(src_node >= 0 && src_node < nodes && dst_node >= 0 &&
                 dst_node < nodes,
             "contention flow node out of range");
}

void LinkContention::add_flow(int src_node, int dst_node,
                              std::uint64_t bytes) {
  check_flow(src_node, dst_node);
  if (src_node == dst_node || bytes == 0) return;
  find_or_add(src_node, dst_node, bytes);
}

int LinkContention::add_flow_index(int src_node, int dst_node,
                                   std::uint64_t bytes) {
  check_flow(src_node, dst_node);
  FS_REQUIRE(src_node != dst_node, "a flow needs two distinct nodes");
  return find_or_add(src_node, dst_node, bytes);
}

int LinkContention::find_or_add(int src_node, int dst_node,
                                std::uint64_t bytes) {
  if (head_.empty()) {
    head_.assign(static_cast<std::size_t>(torus_->nodes()), -1);
  }
  int* link = &head_[static_cast<std::size_t>(src_node)];
  while (*link >= 0) {
    Flow& flow = flows_[static_cast<std::size_t>(*link)];
    if (flow.dst == dst_node) {
      flow.bytes += bytes;
      return *link;
    }
    link = &flow.next;
  }
  const int index = static_cast<int>(flows_.size());
  *link = index;  // before push_back: `link` may point into flows_
  flows_.push_back(Flow{src_node, dst_node, -1, 0, bytes, 0});
  return index;
}

void LinkContention::seal() {
  FS_REQUIRE(!sealed_, "contention map is sealed");
  sealed_ = true;
  if (flows_.empty()) return;
  // Every pair's route back to back in one buffer (route_end[i] closes
  // flows_[i]'s route), reused across phases on this thread. Link loads are
  // integer sums, so the order flows were added in does not matter. A pair
  // that carries no byte is routed for its hop count only: it loads no link
  // and keeps zero foreign bytes.
  thread_local std::vector<int> links;
  thread_local std::vector<std::size_t> route_end;
  thread_local std::vector<std::uint64_t> link_load;
  links.clear();
  route_end.clear();
  link_load.assign(static_cast<std::size_t>(torus_->link_count()), 0);
  for (Flow& flow : flows_) {
    const std::size_t begin = links.size();
    torus_->route_links(flow.src, flow.dst, &links);
    flow.hops = static_cast<int>(links.size() - begin);
    if (flow.bytes > 0) {
      for (std::size_t k = begin; k < links.size(); ++k) {
        std::uint64_t& load = link_load[static_cast<std::size_t>(links[k])];
        load += flow.bytes;
        max_link_load_ = std::max(max_link_load_, load);
      }
    }
    route_end.push_back(links.size());
  }
  std::size_t begin = 0;
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    Flow& flow = flows_[i];
    if (flow.bytes > 0) {
      for (std::size_t k = begin; k < route_end[i]; ++k) {
        const std::uint64_t load =
            link_load[static_cast<std::size_t>(links[k])];
        flow.foreign = std::max(flow.foreign, load - flow.bytes);
      }
    }
    begin = route_end[i];
  }
}

std::uint64_t LinkContention::foreign_bytes(int src_node, int dst_node) const {
  FS_REQUIRE(sealed_, "contention map must be sealed first");
  // head_ is empty until the first flow, so this also answers 0 for any
  // node of a phase without inter-node traffic.
  if (src_node < 0 || src_node >= static_cast<int>(head_.size())) return 0;
  for (int i = head_[static_cast<std::size_t>(src_node)]; i >= 0;
       i = flows_[static_cast<std::size_t>(i)].next) {
    const Flow& flow = flows_[static_cast<std::size_t>(i)];
    if (flow.dst == dst_node) return flow.foreign;
  }
  return 0;
}

}  // namespace fibersim::machine
