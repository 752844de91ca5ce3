// Fibers — user-level contexts on one process-wide pool of workers.
//
// Every rank of an mp::Job and every non-zero tid of a ThreadTeam region runs
// as a context on one pool of hardware_concurrency() worker threads, created
// on first use and kept for the life of the process. A context that has to
// wait (a Mailbox receive, a team barrier, a join, a fault-plan send delay)
// parks: its worker saves the context's registers and runs another one
// instead of sleeping in the kernel. Each worker keeps its own run queue; a
// woken context goes back to the worker that last ran it, and an idle worker
// steals from the others.
//
// WaitList is the one blocking primitive. Its waiters are parked contexts or,
// for callers outside the pool (sweep threads, main, test bodies), OS threads
// blocked on a condition variable of their own — both through the same list.
//
// Invariants every park keeps:
//   * a context parks holding no mutex but the one it hands to the park,
//     which the park releases (only after the waiter is on the list);
//   * a worker reads everything it needs about a context that parked before
//     it publishes that the context is off its stack; from then on another
//     worker may resume, finish and free it;
//   * scheduler thread-locals are read through a non-inlined accessor after
//     every switch, because a context may resume on another worker;
//   * the C++ exception globals (caught-exception stack, uncaught count) are
//     saved and restored on every switch, so a context may park in a catch
//     block or in a destructor during unwinding.
#pragma once

#include <chrono>
#include <cstddef>
#include <functional>
#include <mutex>

namespace fibersim::rt {

using Clock = std::chrono::steady_clock;

/// Run body(0..n-1) and return once all n calls have returned. A context
/// caller runs body(0) itself and body(1..n-1) run as new contexts; a caller
/// outside the pool runs every call as a context and waits for the join, so
/// nothing the calls wait on blocks an OS thread. `body` must not throw
/// (callers capture their own errors; an escaping exception terminates).
/// Throws fibersim::Error before anything runs if a context stack cannot be
/// mapped, or if the pool was started by the parent of a forked child.
void fork_join(int n, const std::function<void(int)>& body);

/// True when the caller runs as a context on the pool.
bool in_context();

/// Sleep the caller: a context parks on the pool's timer, leaving its worker
/// free; an OS thread sleeps.
void sleep_for(std::chrono::duration<double> duration);

/// A condition variable for contexts and OS threads alike. Every member is
/// called with the mutex that guards the list held through `lock`. A return
/// from wait() always follows a notify_all() (no spurious wakes).
class WaitList {
 public:
  WaitList() = default;
  WaitList(const WaitList&) = delete;
  WaitList& operator=(const WaitList&) = delete;

  /// Release lock's mutex, wait for notify_all(), relock.
  void wait(std::unique_lock<std::mutex>& lock);
  /// As wait(), but give up at `deadline`; false on timeout.
  bool wait_until(std::unique_lock<std::mutex>& lock,
                  Clock::time_point deadline);
  /// Wake every waiter and release lock's mutex. Parked contexts are put
  /// back on run queues after the release, so none of them wakes only to
  /// block on the mutex again.
  void notify_all(std::unique_lock<std::mutex>& lock);

  struct Waiter;

 private:
  bool wait_impl(std::unique_lock<std::mutex>& lock,
                 const Clock::time_point* deadline);
  void unlink(Waiter* waiter);

  Waiter* head_ = nullptr;
  Waiter* tail_ = nullptr;
};

namespace detail {

/// Usable bytes of one context stack.
inline constexpr std::size_t kStackBytes = std::size_t{256} << 10;
/// Most stacks the pool keeps mapped for reuse once their contexts finish.
inline constexpr std::size_t kStackCacheLimit = 256;

/// A context stack: `usable` bytes mapped above one PROT_NONE guard page, so
/// an overflow faults instead of writing into a neighbour. Throws
/// fibersim::Error if the mapping fails.
class Stack {
 public:
  Stack() = default;
  explicit Stack(std::size_t usable);
  ~Stack();
  Stack(Stack&& other) noexcept;
  Stack& operator=(Stack&& other) noexcept;

  /// Lowest usable address (just above the guard page).
  char* base() const { return map_ + guard_; }
  std::size_t size() const { return bytes_ - guard_; }

 private:
  char* map_ = nullptr;
  std::size_t bytes_ = 0;
  std::size_t guard_ = 0;
};

/// Stacks held by the pool's reuse cache (at most kStackCacheLimit).
std::size_t cached_stacks();

}  // namespace detail
}  // namespace fibersim::rt
