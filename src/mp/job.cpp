#include "mp/job.hpp"

#include <atomic>
#include <exception>
#include <mutex>

#include "common/error.hpp"
#include "fault/fault.hpp"
#include "mp/symmetry.hpp"
#include "rt/fiber.hpp"

namespace fibersim::mp {

namespace {

fault::ErrorClass classify_error(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return fault::classify(e.what());
  } catch (...) {
    return fault::ErrorClass::kOther;
  }
}

std::atomic<int> g_next_job_id{0};

/// One mailbox per physical slot, labelled with a fresh job id.
void open_mailboxes(detail::JobState& state, int slots) {
  state.ranks = slots;
  state.job_id = g_next_job_id.fetch_add(1, std::memory_order_relaxed);
  state.mailboxes.reserve(static_cast<std::size_t>(slots));
  for (int s = 0; s < slots; ++s) {
    state.mailboxes.push_back(std::make_unique<Mailbox>());
    state.mailboxes.back()->set_identity(state.job_id, s);
  }
}

}  // namespace

std::vector<CommLog> Job::run_slots(detail::JobState& state,
                                    const RankFn& fn) {
  const int slots = state.ranks;
  const RankSymmetry* symmetry = state.collapse;
  std::vector<CommLog> logs(static_cast<std::size_t>(slots));
  std::mutex error_mutex;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(slots));
  std::atomic<bool> failed{false};

  rt::fork_join(slots, [&](int slot) {
    // A collapsed slot runs under its class representative's virtual
    // identity; the app observes rank()/size() of the full job.
    Comm comm = symmetry == nullptr
                    ? Comm(state, slot, slots)
                    : Comm(state, slot, slots, symmetry->representative(slot),
                           symmetry->size());
    try {
      fn(comm);
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(error_mutex);
        errors[static_cast<std::size_t>(slot)] = std::current_exception();
      }
      failed.store(true, std::memory_order_release);
      // Unblock every slot waiting in recv.
      for (auto& mbox : state.mailboxes) mbox->poison();
    }
    logs[static_cast<std::size_t>(slot)] = comm.log();
  });

  if (failed.load(std::memory_order_acquire)) {
    // Deterministic pick: best (lowest) ErrorClass, ties to the lowest slot.
    // Which *set* of slots failed can vary run to run (poison cascades race),
    // but the root-cause classes are stable, so the winner's class is too.
    std::exception_ptr best;
    fault::ErrorClass best_class = fault::ErrorClass::kPoison;
    for (const std::exception_ptr& error : errors) {
      if (!error) continue;
      const fault::ErrorClass c = classify_error(error);
      if (!best || c < best_class) {
        best = error;
        best_class = c;
      }
    }
    FS_ASSERT(best, "failed job recorded no rank error");
    std::rethrow_exception(best);
  }
  return logs;
}

std::vector<CommLog> Job::run_logged(int ranks, const RankFn& fn,
                                     const fault::Session* faults) {
  FS_REQUIRE(ranks >= 1, "job needs at least one rank");
  FS_REQUIRE(ranks <= 4096, "rank count unreasonably large");
  FS_REQUIRE(static_cast<bool>(fn), "rank function must be callable");

  detail::JobState state;
  open_mailboxes(state, ranks);
  if (faults != nullptr && faults->armed() && faults->plan()->any_mp()) {
    state.faults = faults;
    state.send_seq.assign(
        static_cast<std::size_t>(ranks) * static_cast<std::size_t>(ranks), 0);
    state.op_seq.assign(static_cast<std::size_t>(ranks), 0);
    const double timeout_s = faults->recv_timeout_s();
    if (timeout_s > 0.0) {
      for (auto& mbox : state.mailboxes) mbox->set_recv_timeout(timeout_s);
    }
  }
  return run_slots(state, fn);
}

std::vector<CommLog> Job::run_collapsed(const RankSymmetry& symmetry,
                                        const RankFn& fn) {
  const int slots = symmetry.classes();
  FS_REQUIRE(slots >= 1, "collapsed job needs at least one class");
  FS_REQUIRE(slots <= 4096, "class count unreasonably large");
  FS_REQUIRE(static_cast<bool>(fn), "rank function must be callable");

  detail::JobState state;
  state.collapse = &symmetry;
  open_mailboxes(state, slots);
  return run_slots(state, fn);
}

std::vector<CommLog> Job::run_logged(int ranks, const RankFn& fn) {
  return run_logged(ranks, fn, nullptr);
}

void Job::run(int ranks, const RankFn& fn) {
  (void)run_logged(ranks, fn, nullptr);
}

void Job::run(int ranks, const RankFn& fn, const fault::Session* faults) {
  (void)run_logged(ranks, fn, faults);
}

}  // namespace fibersim::mp
