#include "machine/network_model.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
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

namespace {

/// One straight run of a dimension-ordered route: `len` consecutive links
/// along the ring `ring` of dimension `dim`, all in direction `dir`, whose
/// source nodes sit at ring positions [lo, lo + len) modulo the ring size
/// `n`. A run never wraps onto itself: len <= n / 2 < n.
struct RingRun {
  int dim = 0;
  int dir = 0;  // +1 or -1
  int ring = 0;
  int n = 1;
  int lo = 0;
  int len = 0;
};

/// fn(run) for each of the (at most three) runs of the route a -> b, x
/// first; returns the route's hop count.
template <typename Fn>
int for_each_ring_run(const TorusMap& torus, int a, int b, Fn&& fn) {
  const std::array<int, 3>& dims = torus.dims();
  std::array<int, 3> cur = torus.coords_of(a);
  const std::array<int, 3> dst = torus.coords_of(b);
  int hops = 0;
  for (int d = 0; d < 3; ++d) {
    const std::size_t ud = static_cast<std::size_t>(d);
    const int step = ring_step(cur[ud], dst[ud], dims[ud]);
    if (step == 0) continue;
    // The ring: every node that shares the two other coordinates.
    const std::size_t o1 = d == 0 ? 1 : 0;
    const std::size_t o2 = d == 2 ? 1 : 2;
    RingRun run;
    run.dim = d;
    run.dir = step > 0 ? +1 : -1;
    run.ring = cur[o1] * dims[o2] + cur[o2];
    run.n = dims[ud];
    run.len = std::abs(step);
    // A positive run leaves positions cur, cur+1, ...; a negative one
    // leaves cur, cur-1, ..., so its links start len-1 steps back.
    run.lo = step > 0 ? cur[ud] : (cur[ud] - run.len + 1 + run.n) % run.n;
    fn(run);
    hops += run.len;
    cur[ud] = dst[ud];
  }
  return hops;
}

}  // namespace

void LinkContention::seal() {
  FS_REQUIRE(!sealed_, "contention map is sealed");
  sealed_ = true;
  if (flows_.empty()) return;
  // Link loads live ring by ring: the links of one direction of one
  // dimension form nodes / n rings of n links each, so the load of the link
  // leaving ring position i of ring r sits at class base + r * n + i, where
  // the six (dimension, direction) classes take nodes entries each. Every
  // run adds its bytes to a contiguous ring interval: a difference-array
  // update per piece, then one prefix sum per ring. All of it is uint64_t
  // arithmetic modulo 2^64, so the loads are exactly the per-hop sums, in
  // any order. A pair that carries no byte is routed for its hop count
  // only: it loads no link and keeps zero foreign bytes.
  const std::size_t nodes = static_cast<std::size_t>(torus_->nodes());
  auto slot = [nodes](const RingRun& run) {
    const std::size_t cls =
        static_cast<std::size_t>(run.dim * 2 + (run.dir > 0 ? 0 : 1));
    return cls * nodes + static_cast<std::size_t>(run.ring) *
                             static_cast<std::size_t>(run.n);
  };
  std::vector<std::uint64_t> load(6 * nodes, 0);
  int longest = 0;  // longest linear piece of any loaded run
  for (Flow& flow : flows_) {
    flow.hops = for_each_ring_run(*torus_, flow.src, flow.dst,
                                  [&](const RingRun& run) {
      if (flow.bytes == 0) return;
      std::uint64_t* ring = &load[slot(run)];
      const int end = run.lo + run.len;
      ring[run.lo] += flow.bytes;
      if (end < run.n) {
        ring[end] -= flow.bytes;
      } else if (end > run.n) {  // wraps: [lo, n) and [0, end - n)
        ring[0] += flow.bytes;
        ring[end - run.n] -= flow.bytes;
      }
      longest = std::max(longest, std::max(std::min(end, run.n) - run.lo,
                                           end - run.n));
    });
  }
  for (int d = 0; d < 3; ++d) {
    const std::size_t n =
        static_cast<std::size_t>(torus_->dims()[static_cast<std::size_t>(d)]);
    for (std::size_t cls = static_cast<std::size_t>(d) * 2;
         cls < static_cast<std::size_t>(d) * 2 + 2; ++cls) {
      for (std::size_t base = cls * nodes; base < (cls + 1) * nodes;
           base += n) {
        for (std::size_t i = 1; i < n; ++i) load[base + i] += load[base + i - 1];
      }
    }
  }
  for (const std::uint64_t l : load) max_link_load_ = std::max(max_link_load_, l);

  // A pair's busiest route link is a range maximum per run: a sparse table
  // over each ring, level k holding the max of 2^k links from each
  // position (level 0 is `load` itself), built only as deep as the longest
  // piece queried. Every route link carries the pair's own bytes, so its
  // foreign bytes are that maximum less its bytes.
  const int levels = longest > 0 ? std::bit_width(
                                       static_cast<unsigned>(longest))
                                 : 1;
  std::vector<std::uint64_t> upper(
      static_cast<std::size_t>(levels - 1) * 6 * nodes, 0);
  auto level = [&](int k) {
    return k == 0 ? load.data()
                  : upper.data() + static_cast<std::size_t>(k - 1) * 6 * nodes;
  };
  for (int k = 1; k < levels; ++k) {
    const std::uint64_t* below = level(k - 1);
    std::uint64_t* here = level(k);
    const std::size_t half = std::size_t{1} << (k - 1);
    for (int d = 0; d < 3; ++d) {
      const std::size_t n =
          static_cast<std::size_t>(torus_->dims()[static_cast<std::size_t>(d)]);
      if (n < 2 * half) continue;  // no piece this long fits the ring
      for (std::size_t base = static_cast<std::size_t>(d) * 2 * nodes;
           base < static_cast<std::size_t>(d + 1) * 2 * nodes; base += n) {
        for (std::size_t i = 0; i + 2 * half <= n; ++i) {
          here[base + i] = std::max(below[base + i], below[base + i + half]);
        }
      }
    }
  }
  auto range_max = [&](std::size_t base, int lo, int len) {
    const int k = std::bit_width(static_cast<unsigned>(len)) - 1;
    const std::uint64_t* t = level(k);
    return std::max(t[base + static_cast<std::size_t>(lo)],
                    t[base + static_cast<std::size_t>(lo + len - (1 << k))]);
  };
  for (Flow& flow : flows_) {
    if (flow.bytes == 0) continue;
    std::uint64_t busiest = 0;
    for_each_ring_run(*torus_, flow.src, flow.dst, [&](const RingRun& run) {
      const std::size_t base = slot(run);
      const int end = run.lo + run.len;
      busiest = std::max(busiest,
                         range_max(base, run.lo, std::min(end, run.n) - run.lo));
      if (end > run.n) busiest = std::max(busiest, range_max(base, 0, end - run.n));
    });
    flow.foreign = busiest - flow.bytes;
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
