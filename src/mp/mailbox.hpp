// Mailbox — the per-rank receive queue of the in-process message runtime.
//
// Senders deposit a refcounted immutable payload (mp::Buffer) into the
// destination mailbox (buffered, non-blocking send — the MPI "eager"
// protocol); receivers wait until a message matching (source, tag) is
// present. A receiving rank is a context on the fiber pool, so it parks on
// the mailbox's rt::WaitList and its worker runs another rank meanwhile; a
// receiver outside the pool (a test body) blocks its OS thread instead.
// Delivery never copies payload bytes: the one allocation + memcpy happens at
// the send site, and fan-out paths share that allocation. MPI ordering
// semantics hold: messages from the same source with the same tag are
// received in send order.
// poison() aborts every pending and future receive, which Job uses to unwind
// all ranks when one rank throws.
//
// Matching is indexed: messages are stored in per-(source, tag) FIFO buckets
// keyed for O(log buckets) exact-match receives — the common case on the
// sweep hot path, where many concurrent jobs contend on their mailboxes —
// with a sequence-number fallback for kAnySource / kAnyTag wildcards that
// preserves global arrival order exactly like the old linear scan did.
//
// Resilience hooks: a mailbox carries its (job, rank) identity so a blocked
// pop can register with fault::WaitRegistry while a sweep watchdog is active
// (and unwind when the watchdog dooms it), and an optional receive timeout —
// set by Job when a fault plan can drop messages — turns an otherwise
// permanent hang into a diagnostic error naming the blocked (rank, source,
// tag). Those two re-check on a timed park every beat; with neither, pop
// parks untimed until the next arrival.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <utility>

#include "mp/buffer.hpp"
#include "rt/fiber.hpp"

namespace fibersim::mp {

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

struct Message {
  int source = 0;
  int tag = 0;
  Buffer payload;
};

class Mailbox {
 public:
  /// Deposit a message (thread-safe, never blocks).
  void push(Message message);

  /// Wait until a message matching (source, tag) arrives and return it.
  /// kAnySource / kAnyTag match anything. Throws fibersim::Error if the
  /// mailbox is poisoned while waiting.
  Message pop(int source, int tag);

  /// Non-blocking probe: true if a matching message is queued.
  bool probe(int source, int tag) const;

  /// Wake all waiters with an error; further pops throw immediately.
  void poison();

  /// Queued message count (diagnostics/tests).
  std::size_t pending() const;

  /// Label this mailbox for watchdog diagnostics (set by Job before any
  /// rank runs; defaults keep pop silent in the registry).
  void set_identity(int job, int rank);

  /// Make blocked pops give up after `timeout_s` with a diagnostic error
  /// instead of waiting forever (0 restores indefinite waits). Set by Job
  /// when an active fault plan can drop messages.
  void set_recv_timeout(double timeout_s);

 private:
  struct Sequenced {
    std::uint64_t seq = 0;
    Message message;
  };
  using BucketMap = std::map<std::pair<int, int>, std::deque<Sequenced>>;

  /// Bucket holding the oldest (lowest-seq) message matching (source, tag),
  /// or end(). Exact keys look up directly; wildcards scan bucket fronts —
  /// bounded by the number of distinct in-flight (source, tag) pairs, not by
  /// the number of queued messages. Caller holds mutex_.
  BucketMap::iterator find_bucket(int source, int tag);

  mutable std::mutex mutex_;
  rt::WaitList waiters_;
  BucketMap buckets_;
  std::uint64_t next_seq_ = 0;
  std::size_t size_ = 0;
  bool poisoned_ = false;
  int job_ = -1;
  int rank_ = -1;
  double recv_timeout_s_ = 0.0;
};

}  // namespace fibersim::mp
