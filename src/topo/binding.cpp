#include "topo/binding.hpp"

#include <algorithm>
#include <numeric>
#include <set>

#include "common/error.hpp"
#include "common/string_util.hpp"

namespace fibersim::topo {

int ThreadBindPolicy::effective_stride(const NodeShape& shape) const {
  switch (kind) {
    case BindKind::kCompact: return 1;
    case BindKind::kStrided: return stride;
    case BindKind::kScatter: return shape.cores_per_numa;
  }
  return 1;
}

std::string ThreadBindPolicy::name() const {
  switch (kind) {
    case BindKind::kCompact: return "compact";
    case BindKind::kStrided: return strfmt("stride-%d", stride);
    case BindKind::kScatter: return "scatter";
  }
  return "?";
}

const char* rank_alloc_name(RankAllocPolicy policy) {
  switch (policy) {
    case RankAllocPolicy::kBlock: return "block";
    case RankAllocPolicy::kCyclic: return "cyclic";
    case RankAllocPolicy::kScatter: return "scatter";
  }
  return "?";
}

std::vector<int> binding_order(const NodeShape& shape, ThreadBindPolicy bind) {
  const int n = shape.cores_per_node();
  const int s = bind.effective_stride(shape);
  FS_REQUIRE(s >= 1 && s <= n, "thread stride out of range");
  FS_REQUIRE(n % s == 0, "thread stride must divide the node core count");
  const int rows = n / s;
  std::vector<int> order(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    order[static_cast<std::size_t>(i)] = (i / rows) + (i % rows) * s;
  }
  return order;
}

namespace {

/// Chunk index claimed by a local rank: every policy keeps a rank's threads
/// contiguous in the binding order (as real launchers do for threaded ranks)
/// and only permutes the rank->chunk assignment.
int chunk_of(RankAllocPolicy alloc, int local_ranks, const NodeShape& shape,
             int local_rank) {
  auto round_robin = [&](int groups) {
    const int g = std::min(local_ranks, groups);
    if (g <= 1 || local_ranks % g != 0) return local_rank;  // fall back
    const int per_group = local_ranks / g;
    return (local_rank % g) * per_group + local_rank / g;
  };
  switch (alloc) {
    case RankAllocPolicy::kBlock:
      return local_rank;
    case RankAllocPolicy::kCyclic:
      // Round-robin over NUMA domains (mpiexec --map-by numa).
      return round_robin(shape.numa_per_node());
    case RankAllocPolicy::kScatter:
      // Round-robin over sockets (--map-by socket); equals kCyclic on
      // single-socket machines like the A64FX — which is exactly why the
      // paper finds the allocation method has little impact there.
      return round_robin(shape.sockets);
  }
  return local_rank;
}

}  // namespace

Binding Binding::make(const Topology& topology, int ranks, int threads_per_rank,
                      RankAllocPolicy alloc, ThreadBindPolicy bind) {
  FS_REQUIRE(ranks >= 1, "need at least one rank");
  FS_REQUIRE(threads_per_rank >= 1, "need at least one thread per rank");
  const int nodes = topology.nodes();
  const int cores_per_node = topology.cores_per_node();
  FS_REQUIRE(static_cast<long long>(ranks) * threads_per_rank <=
                 static_cast<long long>(nodes) * cores_per_node,
             "placement does not fit on the machine");

  // Spread ranks over nodes: first (ranks % nodes) nodes take one extra.
  const int base = ranks / nodes;
  const int extra = ranks % nodes;

  const std::vector<int> order = binding_order(topology.shape(), bind);

  // Every node hosting the same number of ranks gets the same layout, so
  // the layout is worked out once per distinct count (base and base + 1)
  // and stamped onto each node. Node 0 hosts the larger count, so it is
  // the first node that can fail to fit.
  const std::size_t threads = static_cast<std::size_t>(threads_per_rank);
  struct NodeLayout {
    std::vector<int> cores;        // [local rank * threads + thread]
    std::vector<int> numa;         // node-local domain of each core
    std::vector<Distance> spans;   // team span of each local rank
  };
  auto layout_of = [&](int local_ranks) {
    FS_REQUIRE(local_ranks * threads_per_rank <= cores_per_node,
               strfmt("node 0 cannot host %d ranks x %d threads",
                      local_ranks, threads_per_rank));
    NodeLayout layout;
    // A placement is only valid if no two threads share a core.
    std::vector<char> seen(static_cast<std::size_t>(cores_per_node), 0);
    for (int lr = 0; lr < local_ranks; ++lr) {
      const int chunk = chunk_of(alloc, local_ranks, topology.shape(), lr);
      const std::size_t first = layout.cores.size();
      Distance widest = Distance::kSameCore;
      for (int t = 0; t < threads_per_rank; ++t) {
        const int slot = chunk * threads_per_rank + t;
        FS_ASSERT(slot >= 0 && slot < cores_per_node, "slot out of range");
        const int core = order[static_cast<std::size_t>(slot)];
        char& used = seen[static_cast<std::size_t>(core)];
        FS_ASSERT(used == 0, "binding assigned two threads to one core");
        used = 1;
        layout.cores.push_back(core);
        layout.numa.push_back(topology.numa_of(core));
        const CoreId master{0, layout.cores[first]};
        widest = std::max(widest, topology.distance(master, CoreId{0, core}));
      }
      // A single-thread team still synchronises within its own NUMA domain.
      layout.spans.push_back(std::max(widest, Distance::kSameNuma));
    }
    return layout;
  };
  const NodeLayout wide = layout_of(base + (extra > 0 ? 1 : 0));
  const NodeLayout narrow = extra > 0 ? layout_of(base) : NodeLayout{};

  // Flat per-rank and per-thread placement: every query the prediction
  // engine makes per rank or per thread becomes one array read.
  Binding binding(topology, ranks, threads_per_rank);
  const std::size_t r_count = static_cast<std::size_t>(ranks);
  binding.cores_.resize(r_count * threads);
  binding.thread_numa_.resize(r_count * threads);
  binding.rank_nodes_.resize(r_count);
  binding.master_core_.resize(r_count);
  binding.home_numa_.resize(r_count);
  binding.team_span_.resize(r_count);
  const int numa_per_node = topology.numa_per_node();
  std::size_t r = 0;
  for (int node = 0; node < nodes; ++node) {
    const NodeLayout& layout = node < extra || extra == 0 ? wide : narrow;
    for (std::size_t lr = 0; lr < layout.spans.size(); ++lr, ++r) {
      for (std::size_t t = 0; t < threads; ++t) {
        const std::size_t k = lr * threads + t;
        binding.cores_[r * threads + t] = CoreId{node, layout.cores[k]};
        binding.thread_numa_[r * threads + t] =
            node * numa_per_node + layout.numa[k];
      }
      binding.rank_nodes_[r] = node;
      binding.master_core_[r] = layout.cores[lr * threads];
      binding.home_numa_[r] = binding.thread_numa_[r * threads];
      binding.team_span_[r] = layout.spans[lr];
    }
  }
  FS_ASSERT(r == r_count, "rank distribution mismatch");
  for (std::size_t other = 1; other < r_count; ++other) {
    binding.job_span_ =
        std::max(binding.job_span_, binding.master_distance(0, other));
  }
  return binding;
}

std::size_t Binding::index(int rank, int thread) const {
  FS_REQUIRE(rank >= 0 && rank < ranks_, "rank out of range");
  FS_REQUIRE(thread >= 0 && thread < threads_per_rank_, "thread out of range");
  return static_cast<std::size_t>(rank) * static_cast<std::size_t>(threads_per_rank_) +
         static_cast<std::size_t>(thread);
}

CoreId Binding::core_of(int rank, int thread) const {
  return cores_[index(rank, thread)];
}

std::size_t Binding::checked(int rank) const {
  FS_REQUIRE(rank >= 0 && rank < ranks_, "rank out of range");
  return static_cast<std::size_t>(rank);
}

int Binding::thread_numa(int rank, int thread) const {
  return thread_numa_[index(rank, thread)];
}

int Binding::numa_span(int rank) const {
  std::set<int> domains;
  for (int t = 0; t < threads_per_rank_; ++t) {
    domains.insert(thread_numa(rank, t));
  }
  return static_cast<int>(domains.size());
}

}  // namespace fibersim::topo
