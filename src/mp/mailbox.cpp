#include "mp/mailbox.hpp"

#include <chrono>
#include <limits>

#include "common/error.hpp"
#include "common/string_util.hpp"
#include "fault/fault.hpp"

namespace fibersim::mp {

namespace {
// How often a blocked pop re-checks its doom flag / timeout while a watchdog
// or fault plan is active. Purely a liveness knob — never affects results.
constexpr auto kWaitBeat = std::chrono::milliseconds(25);

/// Removes a WaitRegistry entry on every exit path out of pop().
struct WaitGuard {
  std::uint64_t id = 0;
  bool active = false;
  ~WaitGuard() {
    if (active) fault::WaitRegistry::instance().remove(id);
  }
};
}  // namespace

void Mailbox::push(Message message) {
  std::unique_lock<std::mutex> lock(mutex_);
  const std::pair<int, int> key{message.source, message.tag};
  buckets_[key].push_back(Sequenced{next_seq_++, std::move(message)});
  ++size_;
  waiters_.notify_all(lock);
}

Mailbox::BucketMap::iterator Mailbox::find_bucket(int source, int tag) {
  if (source != kAnySource && tag != kAnyTag) {
    return buckets_.find({source, tag});
  }

  auto begin = buckets_.begin();
  auto end = buckets_.end();
  if (source != kAnySource) {
    // All tags of one source are contiguous under the pair ordering.
    begin = buckets_.lower_bound({source, std::numeric_limits<int>::min()});
    end = buckets_.lower_bound({source + 1, std::numeric_limits<int>::min()});
  }
  auto best = buckets_.end();
  for (auto it = begin; it != end; ++it) {
    if (tag != kAnyTag && it->first.second != tag) continue;
    // Bucket fronts are the oldest message per (source, tag); the lowest
    // sequence number among them is the globally oldest match, which keeps
    // wildcard receives in arrival order.
    if (best == buckets_.end() ||
        it->second.front().seq < best->second.front().seq) {
      best = it;
    }
  }
  return best;
}

Message Mailbox::pop(int source, int tag) {
  std::unique_lock<std::mutex> lock(mutex_);
  WaitGuard guard;
  std::chrono::steady_clock::time_point wait_start{};
  while (true) {
    if (poisoned_) throw Error("mp job aborted: mailbox poisoned");
    const auto it = find_bucket(source, tag);
    if (it != buckets_.end()) {
      Message out = std::move(it->second.front().message);
      it->second.pop_front();
      if (it->second.empty()) buckets_.erase(it);
      --size_;
      return out;
    }

    // Nothing matching yet. The plain path (no watchdog, no fault timeout)
    // parks untimed until the next arrival.
    auto& registry = fault::WaitRegistry::instance();
    const bool watched = registry.watching();
    const double timeout_s = recv_timeout_s_;
    if (!watched && timeout_s <= 0.0) {
      waiters_.wait(lock);
      continue;
    }

    if (wait_start == std::chrono::steady_clock::time_point{}) {
      wait_start = std::chrono::steady_clock::now();
    }
    if (watched && !guard.active) {
      guard.id = registry.add(job_, rank_, source, tag);
      guard.active = true;
    }
    waiters_.wait_until(lock, rt::Clock::now() + kWaitBeat);
    if (guard.active) {
      std::string reason;
      if (registry.doomed(guard.id, &reason)) {
        throw Error(strfmt("%s: job %d rank %d recv(src=%d, tag=%d): %s",
                           fault::kWatchdogMarker, job_, rank_, source, tag,
                           reason.c_str()));
      }
    }
    if (timeout_s > 0.0) {
      const double waited =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        wait_start)
              .count();
      if (waited >= timeout_s) {
        throw Error(strfmt(
            "%s: job %d rank %d blocked in recv(src=%d, tag=%d) for %.1fs "
            "(%zu unmatched messages pending)",
            fault::kTimeoutMarker, job_, rank_, source, tag, waited, size_));
      }
    }
  }
}

bool Mailbox::probe(int source, int tag) const {
  std::lock_guard<std::mutex> lock(mutex_);
  Mailbox* self = const_cast<Mailbox*>(this);
  return self->find_bucket(source, tag) != self->buckets_.end();
}

void Mailbox::poison() {
  std::unique_lock<std::mutex> lock(mutex_);
  poisoned_ = true;
  waiters_.notify_all(lock);
}

std::size_t Mailbox::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return size_;
}

void Mailbox::set_identity(int job, int rank) {
  std::lock_guard<std::mutex> lock(mutex_);
  job_ = job;
  rank_ = rank;
}

void Mailbox::set_recv_timeout(double timeout_s) {
  std::lock_guard<std::mutex> lock(mutex_);
  recv_timeout_s_ = timeout_s;
}

}  // namespace fibersim::mp
