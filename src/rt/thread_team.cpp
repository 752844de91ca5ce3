#include "rt/thread_team.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"
#include "common/string_util.hpp"
#include "fault/fault.hpp"

namespace fibersim::rt {

const char* schedule_name(Schedule schedule) {
  switch (schedule) {
    case Schedule::kStatic: return "static";
    case Schedule::kDynamic: return "dynamic";
    case Schedule::kGuided: return "guided";
  }
  return "?";
}

ThreadTeam::ThreadTeam(int size) : size_(size) {
  FS_REQUIRE(size >= 1, "team size must be >= 1");
  FS_REQUIRE(size <= 4096, "team size unreasonably large");
  workers_.reserve(static_cast<std::size_t>(size - 1));
  for (int tid = 1; tid < size; ++tid) {
    workers_.emplace_back([this, tid] { worker_loop(tid); });
  }
}

ThreadTeam::~ThreadTeam() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadTeam::worker_loop(int tid) {
  std::uint64_t seen_epoch = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      start_cv_.wait(lock, [&] { return shutdown_ || epoch_ != seen_epoch; });
      if (shutdown_) return;
      seen_epoch = epoch_;
    }
    run_region(tid);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--running_ == 0) done_cv_.notify_all();
    }
  }
}

void ThreadTeam::set_faults(const fault::Session* faults,
                            std::uint64_t stream) {
  FS_REQUIRE(!in_parallel_.load(std::memory_order_acquire),
             "cannot attach faults while a region is running");
  faults_ = faults;
  fault_stream_ = stream;
}

void ThreadTeam::maybe_throw_worker(int tid) {
  if (faults_ == nullptr) return;
  // regions_ was already bumped for the active region, so it identifies the
  // region uniquely (regions never overlap on one team — nested parallel
  // throws before dispatch).
  const std::uint64_t region = regions_.load(std::memory_order_relaxed);
  if (faults_->should_throw_worker(fault_stream_, tid, region)) {
    throw Error(strfmt("%s: worker %d throw in region %llu of stream %llu",
                       fault::kInjectedMarker, tid,
                       static_cast<unsigned long long>(region),
                       static_cast<unsigned long long>(fault_stream_)));
  }
}

void ThreadTeam::run_region(int tid) {
  try {
    maybe_throw_worker(tid);
    region_(tid);
  } catch (...) {
    std::lock_guard<std::mutex> lock(error_mutex_);
    if (!first_error_) first_error_ = std::current_exception();
  }
}

void ThreadTeam::parallel(const std::function<void(int)>& region) {
  FS_REQUIRE(static_cast<bool>(region), "parallel region must be callable");
  if (in_parallel_.exchange(true, std::memory_order_acq_rel)) {
    // A region body re-entered parallel() on its own team. Before this
    // guard that silently clobbered region_/epoch_/running_ and deadlocked;
    // fail loudly instead (the nested call's exception is captured by
    // run_region and rethrown on the caller after the join).
    throw Error("nested parallel region on the same ThreadTeam");
  }
  struct Reset {
    std::atomic<bool>& flag;
    ~Reset() { flag.store(false, std::memory_order_release); }
  } reset{in_parallel_};

  regions_.fetch_add(1, std::memory_order_relaxed);
  if (size_ == 1) {
    maybe_throw_worker(0);
    region(0);  // no protocol needed, run inline
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    region_ = region;
    running_ = size_ - 1;
    ++epoch_;
  }
  start_cv_.notify_all();
  run_region(0);  // the caller is thread 0
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] { return running_ == 0; });
    region_ = nullptr;
  }
  std::exception_ptr err;
  {
    std::lock_guard<std::mutex> lock(error_mutex_);
    std::swap(err, first_error_);
  }
  if (err) std::rethrow_exception(err);
}

void ThreadTeam::parallel_for(std::int64_t begin, std::int64_t end,
                              Schedule schedule, std::int64_t chunk,
                              const ChunkBody& body) {
  FS_REQUIRE(begin <= end, "parallel_for range is inverted");
  // end - begin must be representable, or every chunk computation below
  // would start from a wrapped (UB) range.
  FS_REQUIRE(begin >= 0 ||
                 end <= std::numeric_limits<std::int64_t>::max() + begin,
             "parallel_for range exceeds int64 width");
  const std::int64_t range = end - begin;
  if (range == 0) return;

  if (schedule == Schedule::kStatic) {
    // Contiguous blocks, remainder spread over the first threads — matches
    // omp schedule(static) without a chunk argument when chunk <= 0.
    if (chunk <= 0) {
      parallel([&](int tid) {
        const std::int64_t base = range / size_;
        const std::int64_t extra = range % size_;
        const std::int64_t my_begin =
            begin + tid * base + std::min<std::int64_t>(tid, extra);
        const std::int64_t my_size = base + (tid < extra ? 1 : 0);
        if (my_size > 0) body(my_begin, my_begin + my_size, tid);
      });
    } else {
      // Round-robin chunks of the given size, iterated by chunk *index*:
      // ci * chunk < range for every dispatched ci, so neither the block
      // start nor the stride advance can wrap std::int64_t the way the old
      // `begin + tid * chunk` / `c += chunk * size_` induction could on
      // ranges near the top of the type.
      const std::int64_t nchunks = range / chunk + (range % chunk != 0 ? 1 : 0);
      parallel([&, chunk, nchunks](int tid) {
        for (std::int64_t ci = tid; ci < nchunks;) {
          const std::int64_t lo = begin + ci * chunk;
          const std::int64_t hi = chunk > end - lo ? end : lo + chunk;
          body(lo, hi, tid);
          if (ci > nchunks - size_) break;  // ci += size_ would overshoot
          ci += size_;
        }
      });
    }
    return;
  }

  const std::int64_t min_chunk =
      chunk > 0 ? chunk : std::max<std::int64_t>(1, range / (size_ * 8));
  if (schedule == Schedule::kDynamic) {
    // Claim chunk indices, not raw offsets: the shared counter tops out at
    // nchunks + one overshoot per thread, so it cannot wrap however large
    // the range is.
    const std::int64_t nchunks =
        range / min_chunk + (range % min_chunk != 0 ? 1 : 0);
    std::atomic<std::int64_t> next_chunk{0};
    parallel([&](int tid) {
      while (true) {
        const std::int64_t ci = next_chunk.fetch_add(1);
        if (ci >= nchunks) break;
        const std::int64_t lo = begin + ci * min_chunk;
        const std::int64_t hi = min_chunk > end - lo ? end : lo + min_chunk;
        body(lo, hi, tid);
      }
    });
  } else {  // kGuided: shrinking chunks, floored at min_chunk.
    std::atomic<std::int64_t> next{begin};
    std::mutex grab;
    parallel([&](int tid) {
      while (true) {
        std::int64_t c_begin = 0;
        std::int64_t c_end = 0;
        {
          std::lock_guard<std::mutex> lock(grab);
          c_begin = next.load();
          if (c_begin >= end) break;
          const std::int64_t remaining = end - c_begin;
          const std::int64_t size = std::max(
              min_chunk, remaining / (2 * static_cast<std::int64_t>(size_)));
          c_end = std::min(end, c_begin + size);
          next.store(c_end);
        }
        body(c_begin, c_end, tid);
      }
    });
  }
}

void ThreadTeam::barrier() {
  if (size_ == 1) return;
  const int sense = barrier_sense_.load(std::memory_order_acquire);
  if (barrier_count_.fetch_add(1, std::memory_order_acq_rel) == size_ - 1) {
    barrier_count_.store(0, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(barrier_mutex_);
      barrier_sense_.store(1 - sense, std::memory_order_release);
    }
    barrier_cv_.notify_all();
  } else {
    // Spin briefly (cheap when the team fits in the host's cores), then
    // block. Unbounded yield-spinning degrades quadratically once teams are
    // oversubscribed — exactly the situation parallel sweeps create.
    static const int kSpins = []() {
      const unsigned hw = std::thread::hardware_concurrency();
      return hw > 1 ? 256 : 1;
    }();
    for (int spin = 0; spin < kSpins; ++spin) {
      if (barrier_sense_.load(std::memory_order_acquire) != sense) return;
      std::this_thread::yield();
    }
    std::unique_lock<std::mutex> lock(barrier_mutex_);
    barrier_cv_.wait(lock, [&] {
      return barrier_sense_.load(std::memory_order_acquire) != sense;
    });
  }
}

}  // namespace fibersim::rt
