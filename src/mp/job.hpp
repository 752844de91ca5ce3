// Job — runs an SPMD function on N ranks.
//
// This is the "mpiexec" of the in-process runtime. Every rank runs as a
// context on the process-wide fiber pool (rt/fiber.hpp; a caller that is
// itself a context runs rank 0), so a job starts no OS thread of its own; a
// rank waiting in a receive parks and its worker runs another rank. If any
// rank throws, every mailbox is poisoned so blocked ranks unwind, and one
// exception is rethrown to the caller after all ranks have joined. The
// rethrown error is chosen deterministically — by fault::ErrorClass
// priority, then by lowest rank — so a job that fails the same way always
// reports the same root cause, even though the poison-unwind cascade itself
// races.
//
// A fault::Session may be attached to a run: it drives message
// drop/delay/duplication on every send path (user p2p and collective
// internals alike), rank death at communication ops, and the blocked-recv
// timeout. With no session attached the only added cost is one null check
// per operation.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "mp/comm.hpp"

namespace fibersim::fault {
class Session;
}

namespace fibersim::mp {

class RankSymmetry;

namespace detail {
struct JobState {
  std::vector<std::unique_ptr<Mailbox>> mailboxes;
  int ranks = 0;
  /// Diagnostic id (process-wide counter); labels watchdog reports only.
  int job_id = -1;
  /// Fault context for this run, or null. Owned by the caller of Job::run.
  const fault::Session* faults = nullptr;
  /// Per-(src, dst) send sequence numbers (src*ranks + dst), allocated only
  /// when faults are attached. Each slot has a single writer (the sending
  /// rank), so fault decisions are in program order per pair and
  /// independent of cross-rank scheduling.
  std::vector<std::uint64_t> send_seq;
  /// Per-rank communication-op counters (single writer: the rank itself).
  std::vector<std::uint64_t> op_seq;
  /// Rank-symmetry partition when this is a collapsed run (one physical
  /// slot per equivalence class), or null for a full run. Owned by the
  /// caller of Job::run_collapsed.
  const RankSymmetry* collapse = nullptr;
};
}  // namespace detail

class Job {
 public:
  using RankFn = std::function<void(Comm&)>;

  /// Run `fn(comm)` on `ranks` concurrent ranks and join, with fault
  /// injection driven by `faults` when it is non-null.
  static void run(int ranks, const RankFn& fn,
                  const fault::Session* faults = nullptr);

  /// As run(), but returns each rank's communication log (indexed by rank).
  static std::vector<CommLog> run_logged(
      int ranks, const RankFn& fn, const fault::Session* faults = nullptr);

  /// Collapsed run: executes one physical slot per symmetry class, each with
  /// the virtual identity (representative rank, full size) of its class.
  /// Returns one CommLog per class, indexed by class id. Fault injection is
  /// not supported under collapse (the runner falls back to a full run).
  static std::vector<CommLog> run_collapsed(const RankSymmetry& symmetry,
                                            const RankFn& fn);

 private:
  /// Run `fn` on every slot of `state` (under its virtual identity when
  /// collapsed), join, and return each slot's log or rethrow the pick.
  static std::vector<CommLog> run_slots(detail::JobState& state,
                                        const RankFn& fn);
};

}  // namespace fibersim::mp
