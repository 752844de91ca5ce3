// ThreadTeam — the OpenMP-like execution substrate.
//
// A team owns `size` persistent worker threads (worker 0 is the calling
// thread, so a team of 1 adds no threads at all). `parallel` runs a region on
// every worker and joins; `parallel_for` distributes an index range with
// static / dynamic / guided scheduling exactly like `omp for schedule(...)`;
// `barrier` is usable inside a region. All loop state is reset between
// regions, so a team can be reused for any number of regions.
//
// The team executes real work on the host. Thread *placement* is a model
// concept (topo::Binding) consumed by the machine model, not by this class —
// on the simulation host we deliberately do not pin threads.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/error.hpp"

namespace fibersim::fault {
class Session;
}

namespace fibersim::rt {

enum class Schedule { kStatic, kDynamic, kGuided };

const char* schedule_name(Schedule schedule);

class ThreadTeam {
 public:
  /// Body of a parallel_for chunk: [begin, end) and the executing thread id.
  using ChunkBody = std::function<void(std::int64_t, std::int64_t, int)>;

  explicit ThreadTeam(int size);
  ~ThreadTeam();

  ThreadTeam(const ThreadTeam&) = delete;
  ThreadTeam& operator=(const ThreadTeam&) = delete;

  int size() const { return size_; }

  /// Run `region(thread_id)` on every thread of the team; returns when all
  /// threads finish. Exceptions thrown inside a region are captured and the
  /// first one is rethrown on the caller after the join. Re-entering
  /// parallel() (or parallel_for / parallel_reduce_sum) from inside a region
  /// of the same team throws fibersim::Error — nested fork-join on one team
  /// would corrupt the run protocol and deadlock.
  void parallel(const std::function<void(int)>& region);

  /// Work-shared loop over [begin, end). `chunk` <= 0 picks a default
  /// (range/size for static, max(1, range/(size*8)) for dynamic/guided).
  void parallel_for(std::int64_t begin, std::int64_t end, Schedule schedule,
                    std::int64_t chunk, const ChunkBody& body);

  /// Convenience: static schedule, default chunking.
  void parallel_for(std::int64_t begin, std::int64_t end, const ChunkBody& body) {
    parallel_for(begin, end, Schedule::kStatic, 0, body);
  }

  /// Sum-reduction over [begin, end) under the default static schedule:
  /// each thread adds `term(i)` over its block in index order into a private
  /// slot; the slots are combined in thread-id order after the join. A
  /// template, so `term` inlines into the per-element loop.
  template <typename Term>
  double parallel_reduce_sum(std::int64_t begin, std::int64_t end,
                             const Term& term) {
    FS_REQUIRE(begin <= end, "parallel_reduce_sum range is inverted");
    // Pad slots to avoid false sharing on the host.
    struct alignas(64) Slot { double value = 0.0; };
    std::vector<Slot> slots(static_cast<std::size_t>(size_));
    parallel_for(begin, end, Schedule::kStatic, 0,
                 [&](std::int64_t lo, std::int64_t hi, int tid) {
                   double acc = 0.0;
                   for (std::int64_t i = lo; i < hi; ++i) acc += term(i);
                   slots[static_cast<std::size_t>(tid)].value += acc;
                 });
    double total = 0.0;
    for (const Slot& s : slots) total += s.value;
    return total;
  }

  /// Barrier usable inside a region (sense-reversing, all team threads must
  /// call it the same number of times).
  void barrier();

  /// Number of parallel regions executed so far (model input: fork-join
  /// count drives the predicted barrier overhead).
  std::uint64_t regions_executed() const { return regions_.load(); }

  /// Attach a fault context: workers of this team may throw at region entry
  /// per the plan, at site (stream, tid, region index) — `stream` is the
  /// team's owner identity (typically its rank), so decisions stay
  /// deterministic across concurrent teams. Null detaches. Must not be
  /// called while a region is running.
  void set_faults(const fault::Session* faults, std::uint64_t stream);

 private:
  void worker_loop(int tid);
  void run_region(int tid);
  /// Fault hook at region entry (one null check when no faults attached).
  void maybe_throw_worker(int tid);

  int size_;
  std::vector<std::thread> workers_;

  // Fork-join protocol: epoch-count run signalling.
  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::uint64_t epoch_ = 0;
  int running_ = 0;
  bool shutdown_ = false;
  std::function<void(int)> region_;

  // In-region barrier (sense reversing; brief spin, then condvar block —
  // see barrier() for why unbounded spinning is ruinous when oversubscribed).
  std::atomic<int> barrier_count_{0};
  std::atomic<int> barrier_sense_{0};
  std::mutex barrier_mutex_;
  std::condition_variable barrier_cv_;

  // Nested-parallel detection (see parallel()).
  std::atomic<bool> in_parallel_{false};

  // Exception transport.
  std::mutex error_mutex_;
  std::exception_ptr first_error_;

  std::atomic<std::uint64_t> regions_{0};

  // Fault injection (null when inactive).
  const fault::Session* faults_ = nullptr;
  std::uint64_t fault_stream_ = 0;
};

}  // namespace fibersim::rt
