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

void ThreadTeam::run_region(const std::function<void(int)>& region,
                            int tid) {
  try {
    maybe_throw_worker(tid);
    region(tid);
  } catch (...) {
    std::lock_guard<std::mutex> lock(error_mutex_);
    if (!first_error_) first_error_ = std::current_exception();
  }
}

void ThreadTeam::parallel(const std::function<void(int)>& region) {
  FS_REQUIRE(static_cast<bool>(region), "parallel region must be callable");
  if (in_parallel_.exchange(true, std::memory_order_acq_rel)) {
    // A region body re-entered parallel() on its own team: fail loudly (the
    // nested call's exception is captured by run_region and rethrown on the
    // caller after the join).
    throw Error("nested parallel region on the same ThreadTeam");
  }
  struct Reset {
    std::atomic<bool>& flag;
    ~Reset() { flag.store(false, std::memory_order_release); }
  } reset{in_parallel_};

  regions_.fetch_add(1, std::memory_order_relaxed);
  if (size_ == 1) {
    maybe_throw_worker(0);
    region(0);  // no fork-join needed, run inline
    return;
  }
  fork_join(size_, [this, &region](int tid) { run_region(region, tid); });
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
  std::unique_lock<std::mutex> lock(barrier_mutex_);
  const std::uint64_t generation = barrier_generation_;
  if (++barrier_count_ == size_) {
    barrier_count_ = 0;
    ++barrier_generation_;
    barrier_waiters_.notify_all(lock);
    return;
  }
  while (barrier_generation_ == generation) barrier_waiters_.wait(lock);
}

}  // namespace fibersim::rt
