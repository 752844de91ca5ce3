#include "rt/fiber.hpp"

#include <cxxabi.h>
#include <pthread.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <new>
#include <thread>
#include <utility>
#include <vector>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/string_util.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define FIBERSIM_ASAN 1
#endif
#if defined(__SANITIZE_THREAD__)
#define FIBERSIM_TSAN 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) && !defined(FIBERSIM_ASAN)
#define FIBERSIM_ASAN 1
#endif
#if __has_feature(thread_sanitizer) && !defined(FIBERSIM_TSAN)
#define FIBERSIM_TSAN 1
#endif
#endif

#ifdef FIBERSIM_ASAN
#include <sanitizer/asan_interface.h>
#endif
#ifdef FIBERSIM_TSAN
#include <sanitizer/tsan_interface.h>
#endif

#if !defined(__x86_64__)
#error "rt/fiber.cpp switches contexts with x86-64 assembly only"
#endif

// fibersim_switch(save, load): push the callee-saved registers and the SSE /
// x87 control words on the current stack, store the stack pointer to *save,
// load `load` as the stack pointer and pop the same frame from it.
// fibersim_trampoline is where a new context's first switch returns to: it
// calls r13(r12), i.e. fiber_main(fiber), which never returns.
extern "C" void fibersim_switch(void** save, void* load);
extern "C" void fibersim_trampoline();
asm(R"(
  .text
  .p2align 4
  .globl fibersim_switch
  .hidden fibersim_switch
  .type fibersim_switch, @function
fibersim_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size fibersim_switch, .-fibersim_switch

  .p2align 4
  .globl fibersim_trampoline
  .hidden fibersim_trampoline
  .type fibersim_trampoline, @function
fibersim_trampoline:
  .cfi_startproc
  .cfi_undefined rip
  movq %r12, %rdi
  callq *%r13
  ud2
  .cfi_endproc
  .size fibersim_trampoline, .-fibersim_trampoline
)");

namespace fibersim::rt {

namespace detail {
namespace {

/// libstdc++'s (and libc++abi's) per-thread __cxa_eh_globals.
struct EhGlobals {
  void* caught = nullptr;
  unsigned int uncaught = 0;
};

/// The calling thread's exception globals. Not inlined and opaque to the
/// optimiser: __cxa_get_globals is declared const, and a context that parks
/// may resume on another thread.
[[gnu::noinline]] EhGlobals* eh_globals() {
  void* globals = abi::__cxa_get_globals();
  asm volatile("" : "+r"(globals));
  return static_cast<EhGlobals*>(globals);
}

/// What a switch saves and restores besides the registers.
struct Context {
  void* sp = nullptr;
  EhGlobals eh;
  cancel::Token* token = nullptr;
  const void* stack_bottom = nullptr;  // ASan: the stack this context runs on
  std::size_t stack_size = 0;
  void* tsan = nullptr;                // TSan: the fiber this context is
};

/// Switch the calling thread from `from` to `to`. `finished`: `from` never
/// runs again.
void switch_context(Context& from, Context& to,
                    [[maybe_unused]] bool finished) {
  EhGlobals* globals = eh_globals();
  from.eh = *globals;
  *globals = to.eh;
  cancel::Token** token = cancel::current_slot();
  from.token = *token;
  *token = to.token;
#ifdef FIBERSIM_ASAN
  void* fake_stack = nullptr;
  __sanitizer_start_switch_fiber(finished ? nullptr : &fake_stack,
                                 to.stack_bottom, to.stack_size);
#endif
#ifdef FIBERSIM_TSAN
  __tsan_switch_to_fiber(to.tsan, 0);
#endif
  fibersim_switch(&from.sp, to.sp);
#ifdef FIBERSIM_ASAN
  __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
#endif
}

struct Worker;

struct Fiber {
  Context ctx;
  Stack stack;
  void (*entry)(void*, int) = nullptr;
  void* arg = nullptr;
  int index = 0;
  /// The worker that last ran this context; a wake queues it there.
  Worker* worker = nullptr;
  /// Run-queue link, or wake-list link while notify_all collects it.
  Fiber* next = nullptr;
  /// Set by the context as it parks, cleared by its worker once the context
  /// is off its stack. A worker that dequeues it waits for the clear.
  std::atomic<bool> switching{false};
  bool finished = false;
};

struct alignas(64) Worker {
  std::size_t index = 0;
  Context sched;
  /// The context this worker runs, or null on the scheduler stack.
  Fiber* current = nullptr;

  std::mutex mutex;  // guards head/tail
  Fiber* head = nullptr;
  Fiber* tail = nullptr;
  std::atomic<int> queued{0};

  void push(Fiber* fiber) {
    std::lock_guard<std::mutex> lock(mutex);
    fiber->next = nullptr;
    if (tail == nullptr) {
      head = fiber;
    } else {
      tail->next = fiber;
    }
    tail = fiber;
    queued.fetch_add(1, std::memory_order_relaxed);
  }

  Fiber* pop() {
    if (queued.load(std::memory_order_relaxed) == 0) return nullptr;
    std::lock_guard<std::mutex> lock(mutex);
    Fiber* fiber = head;
    if (fiber == nullptr) return nullptr;
    head = fiber->next;
    if (head == nullptr) tail = nullptr;
    queued.fetch_sub(1, std::memory_order_relaxed);
    return fiber;
  }
};

thread_local Worker* t_worker = nullptr;

/// The calling thread's worker, or null off the pool. Read after every
/// switch through this opaque call: a thread-local address cached across a
/// park would name the worker the context ran on before.
[[gnu::noinline]] Worker* current_worker() {
  Worker* worker = t_worker;
  asm volatile("" : "+r"(worker));
  return worker;
}

Fiber* current_fiber() {
  Worker* worker = current_worker();
  return worker == nullptr ? nullptr : worker->current;
}

void cpu_relax() { asm volatile("pause"); }

}  // namespace

class Pool {
 public:
  /// The process-wide pool, started on first use. Throws in a forked child
  /// of the process that started it: its workers did not survive the fork.
  static Pool& get();

  /// `count` contexts running entry(arg, first..first+count-1), linked
  /// through Fiber::next and not yet queued, each starting with the
  /// caller's cancel token. All or nothing: throws
  /// fibersim::Error, with none created, if a stack cannot be mapped.
  Fiber* create(int count, void (*entry)(void*, int), void* arg, int first);
  void schedule(Fiber* fiber);
  /// Switch the calling context out; returns when it is resumed.
  void park(Fiber* self);
  void arm(WaitList::Waiter* waiter, Clock::time_point deadline);
  void disarm(WaitList::Waiter* waiter);

  [[noreturn]] void finish(Fiber* self);
  std::size_t cached_stacks();

 private:
  Pool();
  [[noreturn]] void run(Worker& worker);
  Fiber* next(Worker& worker);
  void release(Fiber* fiber);
  Stack take_stack();
  [[noreturn]] void timer_loop();
  static void on_fork_child();

  // The pool is never destroyed, so neither its threads nor anything they
  // use ever goes away.
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;
  std::atomic<std::size_t> next_worker_{0};

  // Idle workers sleep here once their spin finds no work anywhere.
  std::mutex idle_mutex_;
  std::condition_variable idle_cv_;
  std::atomic<int> idle_{0};

  std::mutex stack_mutex_;
  std::vector<Stack> stacks_;  // guarded by stack_mutex_

  // Timed parks: the timer thread wakes each context at its deadline.
  std::mutex timer_mutex_;
  std::condition_variable timer_cv_;
  std::multimap<Clock::time_point, WaitList::Waiter*> timers_;
  std::thread timer_;  // started by the first arm()

  bool forked_ = false;  // set in a forked child only
};

}  // namespace detail

struct WaitList::Waiter {
  Waiter* prev = nullptr;
  Waiter* next = nullptr;
  detail::Fiber* fiber = nullptr;          // null: an OS-thread waiter
  std::condition_variable* cv = nullptr;   // an OS-thread waiter's
  bool linked = false;
  bool notified = false;
  /// A parked context is resumed once, by notify_all or by the timer;
  /// whichever sets this first.
  std::atomic<bool> woken{false};
  bool armed = false;  // guarded by the pool's timer mutex
  std::multimap<Clock::time_point, Waiter*>::iterator timer;
};

namespace detail {
namespace {

constexpr int kIdleSpins = 256;
constexpr int kSwitchingSpins = 1024;
Pool* g_pool = nullptr;

void fiber_main(Fiber* self) noexcept {
#ifdef FIBERSIM_ASAN
  __sanitizer_finish_switch_fiber(nullptr, nullptr, nullptr);
#endif
  self->entry(self->arg, self->index);
  Pool::get().finish(self);
}

}  // namespace

Stack::Stack(std::size_t usable) {
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  FS_REQUIRE(usable > 0 && usable <= SIZE_MAX - 2 * page,
             "context stack size out of range");
  const std::size_t bytes = (usable + page - 1) / page * page + page;
  void* map = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1,
                   0);
  if (map == MAP_FAILED) {
    throw Error(strfmt("cannot map a %zu-byte context stack: %s", bytes,
                       std::strerror(errno)));
  }
  if (mprotect(map, page, PROT_NONE) != 0) {
    const int err = errno;
    munmap(map, bytes);
    throw Error(strfmt("cannot protect a context stack's guard page: %s",
                       std::strerror(err)));
  }
  map_ = static_cast<char*>(map);
  bytes_ = bytes;
  guard_ = page;
}

Stack::~Stack() {
  if (map_ != nullptr) munmap(map_, bytes_);
}

Stack::Stack(Stack&& other) noexcept
    : map_(std::exchange(other.map_, nullptr)),
      bytes_(std::exchange(other.bytes_, 0)),
      guard_(std::exchange(other.guard_, 0)) {}

Stack& Stack::operator=(Stack&& other) noexcept {
  if (this != &other) {
    if (map_ != nullptr) munmap(map_, bytes_);
    map_ = std::exchange(other.map_, nullptr);
    bytes_ = std::exchange(other.bytes_, 0);
    guard_ = std::exchange(other.guard_, 0);
  }
  return *this;
}

Pool& Pool::get() {
  static Pool* const pool = [] {
    g_pool = new Pool();
    return g_pool;
  }();
  if (pool->forked_) {
    throw Error(
        "fiber pool used in a forked child: its workers stayed in the parent");
  }
  return *pool;
}

void Pool::on_fork_child() {
  if (g_pool != nullptr) g_pool->forked_ = true;
}

Pool::Pool() {
  const unsigned count = std::max(1u, std::thread::hardware_concurrency());
  workers_.reserve(count);
  for (unsigned i = 0; i < count; ++i) {
    workers_.push_back(std::make_unique<Worker>());
    workers_.back()->index = i;
  }
  pthread_atfork(nullptr, nullptr, &Pool::on_fork_child);
  threads_.reserve(count);
  for (auto& worker : workers_) {
    threads_.emplace_back([this, w = worker.get()] { run(*w); });
  }
}

void Pool::run(Worker& worker) {
  t_worker = &worker;
#ifdef FIBERSIM_ASAN
  pthread_attr_t attr;
  if (pthread_getattr_np(pthread_self(), &attr) == 0) {
    void* addr = nullptr;
    std::size_t size = 0;
    pthread_attr_getstack(&attr, &addr, &size);
    worker.sched.stack_bottom = addr;
    worker.sched.stack_size = size;
    pthread_attr_destroy(&attr);
  }
#endif
#ifdef FIBERSIM_TSAN
  worker.sched.tsan = __tsan_get_current_fiber();
#endif
  for (;;) {
    Fiber* fiber = next(worker);
    // Dequeued before the worker it parked on was off its stack.
    for (int spin = 0; fiber->switching.load(std::memory_order_acquire);
         ++spin) {
      if (spin < kSwitchingSpins) {
        cpu_relax();
      } else {
        std::this_thread::yield();
      }
    }
    fiber->worker = &worker;
    worker.current = fiber;
    switch_context(worker.sched, fiber->ctx, false);
    worker.current = nullptr;
    // Everything read from `fiber` is read before the clear: from then on
    // another worker may resume, finish and free it.
    if (fiber->finished) {
      release(fiber);
    } else {
      fiber->switching.store(false, std::memory_order_release);
    }
  }
}

Fiber* Pool::next(Worker& worker) {
  const std::size_t count = workers_.size();
  for (int spin = 0;; ++spin) {
    if (Fiber* fiber = worker.pop()) return fiber;
    for (std::size_t k = 1; k < count; ++k) {
      if (Fiber* fiber = workers_[(worker.index + k) % count]->pop()) {
        return fiber;
      }
    }
    if (spin < kIdleSpins) {
      cpu_relax();
      continue;
    }
    spin = 0;
    std::unique_lock<std::mutex> lock(idle_mutex_);
    idle_.fetch_add(1, std::memory_order_seq_cst);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    bool any = false;
    for (const auto& w : workers_) {
      any = any || w->queued.load(std::memory_order_relaxed) > 0;
    }
    if (!any) idle_cv_.wait(lock);
    idle_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void Pool::schedule(Fiber* fiber) {
  Worker* target = fiber->worker;
  if (target == nullptr) {
    target = current_worker();
    if (target == nullptr) {
      target = workers_[next_worker_.fetch_add(1, std::memory_order_relaxed) %
                        workers_.size()]
                   .get();
    }
  }
  target->push(fiber);
  // Pairs with the fence in next(): either this sees the sleeper, or the
  // sleeper's scan sees the push.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (idle_.load(std::memory_order_relaxed) > 0) {
    std::lock_guard<std::mutex> lock(idle_mutex_);
    idle_cv_.notify_one();
  }
}

void Pool::park(Fiber* self) {
  switch_context(self->ctx, current_worker()->sched, false);
}

void Pool::finish(Fiber* self) {
  self->finished = true;
  switch_context(self->ctx, current_worker()->sched, true);
  __builtin_unreachable();
}

Stack Pool::take_stack() {
  {
    std::lock_guard<std::mutex> lock(stack_mutex_);
    if (!stacks_.empty()) {
      Stack stack = std::move(stacks_.back());
      stacks_.pop_back();
      return stack;
    }
  }
  return Stack(kStackBytes);
}

Fiber* Pool::create(int count, void (*entry)(void*, int), void* arg,
                    int first) {
  Fiber* chain = nullptr;
  try {
    for (int i = count - 1; i >= 0; --i) {
      Stack stack = take_stack();
#ifdef FIBERSIM_ASAN
      // A reused stack still carries the redzones of its last context.
      ASAN_UNPOISON_MEMORY_REGION(stack.base(), stack.size());
#endif
      // The control block sits at the top of its own stack.
      const auto top = reinterpret_cast<std::uintptr_t>(stack.base()) +
                       stack.size();
      const std::uintptr_t block =
          (top - sizeof(Fiber)) & ~std::uintptr_t{63};
      auto* fiber = new (reinterpret_cast<void*>(block)) Fiber();
      fiber->stack = std::move(stack);
      fiber->entry = entry;
      fiber->arg = arg;
      fiber->index = first + i;
      fiber->ctx.token = cancel::current();  // the forker's
      fiber->ctx.stack_bottom = fiber->stack.base();
      fiber->ctx.stack_size =
          block - reinterpret_cast<std::uintptr_t>(fiber->stack.base());
#ifdef FIBERSIM_TSAN
      fiber->ctx.tsan = __tsan_create_fiber(0);
#endif
      // The frame fibersim_switch pops on the first switch in: control
      // words, r15..rbp (r12 = fiber, r13 = fiber_main), then the return
      // into the trampoline. `block` is 64-byte aligned, so the trampoline
      // calls with the ABI's 16-byte stack alignment.
      auto* sp = reinterpret_cast<std::uint64_t*>(block);
      *--sp = reinterpret_cast<std::uint64_t>(&fibersim_trampoline);
      *--sp = 0;                                               // rbp
      *--sp = 0;                                               // rbx
      *--sp = reinterpret_cast<std::uint64_t>(fiber);          // r12
      *--sp = reinterpret_cast<std::uint64_t>(&fiber_main);    // r13
      *--sp = 0;                                               // r14
      *--sp = 0;                                               // r15
      *--sp = std::uint64_t{0x037F} << 32 | 0x1F80;  // x87 CW, MXCSR
      fiber->ctx.sp = sp;
      fiber->next = chain;
      chain = fiber;
    }
  } catch (...) {
    while (chain != nullptr) {
      Fiber* fiber = chain;
      chain = fiber->next;
      release(fiber);
    }
    throw;
  }
  return chain;
}

void Pool::release(Fiber* fiber) {
#ifdef FIBERSIM_TSAN
  __tsan_destroy_fiber(fiber->ctx.tsan);
#endif
  Stack stack = std::move(fiber->stack);
  fiber->~Fiber();
  std::lock_guard<std::mutex> lock(stack_mutex_);
  if (stacks_.size() < kStackCacheLimit) stacks_.push_back(std::move(stack));
}

std::size_t Pool::cached_stacks() {
  std::lock_guard<std::mutex> lock(stack_mutex_);
  return stacks_.size();
}

void Pool::arm(WaitList::Waiter* waiter, Clock::time_point deadline) {
  std::lock_guard<std::mutex> lock(timer_mutex_);
  if (!timer_.joinable()) timer_ = std::thread([this] { timer_loop(); });
  waiter->timer = timers_.emplace(deadline, waiter);
  waiter->armed = true;
  if (waiter->timer == timers_.begin()) timer_cv_.notify_one();
}

void Pool::disarm(WaitList::Waiter* waiter) {
  std::lock_guard<std::mutex> lock(timer_mutex_);
  if (waiter->armed) {
    timers_.erase(waiter->timer);
    waiter->armed = false;
  }
}

void Pool::timer_loop() {
  std::unique_lock<std::mutex> lock(timer_mutex_);
  for (;;) {
    if (timers_.empty()) {
      timer_cv_.wait(lock);
      continue;
    }
    const auto first = timers_.begin();
    // A copy: the entry may be disarmed while this waits.
    const Clock::time_point deadline = first->first;
    if (Clock::now() < deadline) {
      timer_cv_.wait_until(lock, deadline);
      continue;
    }
    WaitList::Waiter* waiter = first->second;
    timers_.erase(first);
    waiter->armed = false;
    // The waiter stays alive while this holds the timer mutex: it disarms
    // under the same mutex before it returns.
    if (!waiter->woken.exchange(true, std::memory_order_acq_rel)) {
      schedule(waiter->fiber);
    }
  }
}

std::size_t cached_stacks() {
  return g_pool == nullptr ? 0 : g_pool->cached_stacks();
}

}  // namespace detail

namespace {

struct Join {
  const std::function<void(int)>* body = nullptr;
  std::mutex mutex;
  int pending = 0;  // guarded by mutex
  WaitList done;
};

void join_child(void* arg, int index) {
  auto* join = static_cast<Join*>(arg);
  (*join->body)(index);
  std::unique_lock<std::mutex> lock(join->mutex);
  if (--join->pending == 0) join->done.notify_all(lock);
}

}  // namespace

void fork_join(int n, const std::function<void(int)>& body) {
  FS_REQUIRE(n >= 1, "fork_join needs at least one call");
  const bool caller_runs_first = detail::current_fiber() != nullptr;
  if (n == 1 && caller_runs_first) {
    body(0);
    return;
  }
  detail::Pool& pool = detail::Pool::get();
  const int first = caller_runs_first ? 1 : 0;
  Join join;
  join.body = &body;
  join.pending = n - first;
  detail::Fiber* children = pool.create(n - first, &join_child, &join, first);
  while (children != nullptr) {
    detail::Fiber* child = children;
    children = child->next;
    pool.schedule(child);
  }
  if (caller_runs_first) body(0);
  std::unique_lock<std::mutex> lock(join.mutex);
  while (join.pending > 0) join.done.wait(lock);
}

bool in_context() { return detail::current_fiber() != nullptr; }

void sleep_for(std::chrono::duration<double> duration) {
  if (duration.count() <= 0.0) return;
  detail::Fiber* self = detail::current_fiber();
  if (self == nullptr) {
    std::this_thread::sleep_for(duration);
    return;
  }
  detail::Pool& pool = detail::Pool::get();
  WaitList::Waiter waiter;
  waiter.fiber = self;
  self->switching.store(true, std::memory_order_relaxed);
  pool.arm(&waiter, Clock::now() +
                        std::chrono::duration_cast<Clock::duration>(duration));
  pool.park(self);
}

void WaitList::wait(std::unique_lock<std::mutex>& lock) {
  (void)wait_impl(lock, nullptr);
}

bool WaitList::wait_until(std::unique_lock<std::mutex>& lock,
                          Clock::time_point deadline) {
  return wait_impl(lock, &deadline);
}

bool WaitList::wait_impl(std::unique_lock<std::mutex>& lock,
                         const Clock::time_point* deadline) {
  FS_ASSERT(lock.owns_lock(), "WaitList wait without its mutex held");
  Waiter waiter;
  waiter.fiber = detail::current_fiber();
  waiter.linked = true;
  waiter.prev = tail_;
  if (tail_ == nullptr) {
    head_ = &waiter;
  } else {
    tail_->next = &waiter;
  }
  tail_ = &waiter;

  if (waiter.fiber == nullptr) {
    std::condition_variable cv;
    waiter.cv = &cv;
    while (!waiter.notified) {
      if (deadline == nullptr) {
        cv.wait(lock);
      } else if (cv.wait_until(lock, *deadline) == std::cv_status::timeout &&
                 !waiter.notified) {
        unlink(&waiter);
        return false;
      }
    }
    return true;
  }

  detail::Pool& pool = detail::Pool::get();
  waiter.fiber->switching.store(true, std::memory_order_relaxed);
  if (deadline != nullptr) pool.arm(&waiter, *deadline);
  lock.unlock();
  pool.park(waiter.fiber);
  lock.lock();
  if (waiter.linked) unlink(&waiter);
  if (deadline != nullptr) pool.disarm(&waiter);
  return waiter.notified;
}

void WaitList::unlink(Waiter* waiter) {
  if (waiter->prev == nullptr) {
    head_ = waiter->next;
  } else {
    waiter->prev->next = waiter->next;
  }
  if (waiter->next == nullptr) {
    tail_ = waiter->prev;
  } else {
    waiter->next->prev = waiter->prev;
  }
  waiter->prev = waiter->next = nullptr;
  waiter->linked = false;
}

void WaitList::notify_all(std::unique_lock<std::mutex>& lock) {
  FS_ASSERT(lock.owns_lock(), "WaitList notify without its mutex held");
  detail::Fiber* wake_head = nullptr;
  detail::Fiber* wake_tail = nullptr;
  for (Waiter* waiter = head_; waiter != nullptr;) {
    Waiter* next = waiter->next;
    waiter->prev = waiter->next = nullptr;
    waiter->linked = false;
    if (waiter->fiber == nullptr) {
      waiter->notified = true;
      waiter->cv->notify_one();
    } else if (!waiter->woken.exchange(true, std::memory_order_acq_rel)) {
      // Claimed: only this call resumes it, so it stays parked (and its
      // waiter alive) until scheduled below.
      waiter->notified = true;
      detail::Fiber* fiber = waiter->fiber;
      fiber->next = nullptr;
      if (wake_tail == nullptr) {
        wake_head = fiber;
      } else {
        wake_tail->next = fiber;
      }
      wake_tail = fiber;
    }
    waiter = next;
  }
  head_ = tail_ = nullptr;
  lock.unlock();
  if (wake_head == nullptr) return;
  detail::Pool& pool = detail::Pool::get();
  while (wake_head != nullptr) {
    detail::Fiber* fiber = wake_head;
    wake_head = fiber->next;
    pool.schedule(fiber);
  }
}

}  // namespace fibersim::rt
