// Comm — the per-rank communicator handle of the in-process message runtime.
//
// Semantics follow MPI where it matters for the miniapps:
//   * send is buffered and never blocks (eager protocol), so symmetric
//     exchange patterns cannot deadlock;
//   * recv blocks until a matching (source, tag) message arrives and requires
//     the exact payload size — a size mismatch is a protocol error;
//   * collectives are implemented over point-to-point (binomial bcast,
//     reduce and allreduce, a dissemination barrier, a ring allgather, direct
//     gather and alltoall, a linear-chain scan, and reduce_scatter as a
//     binomial reduce to rank 0 followed by a direct scatter) and must be
//     entered by every rank of the job.
//
// Every operation is recorded in the rank's CommLog for the cost model.
#pragma once

#include <cstddef>
#include <cstring>
#include <deque>
#include <map>
#include <span>
#include <vector>

#include "mp/comm_log.hpp"
#include "mp/mailbox.hpp"

namespace fibersim::mp {

namespace detail {
struct JobState;  // shared between the ranks of one Job
}

/// The elementwise operation of a reduction collective.
enum class ReduceMode { kSum, kMax, kMin };

class Comm {
 public:
  /// Under a collapsed run these are the *virtual* identity: the class
  /// representative's rank in the full job and the full job's size. The
  /// app never observes that only one rank per class physically runs.
  int rank() const { return vrank_; }
  int size() const { return vsize_; }

  // ----- point-to-point -----
  /// Buffered send of raw bytes; returns immediately.
  void send_bytes(int dst, int tag, const void* data, std::size_t bytes);
  /// Blocking receive; `bytes` must equal the sender's payload size.
  void recv_bytes(int src, int tag, void* data, std::size_t bytes);
  /// send_bytes of a payload the caller already built (Buffer::build packs
  /// straight into it): the payload is handed over, never copied.
  void send_buffer(int dst, int tag, Buffer payload);
  /// recv_bytes that hands back the received payload itself instead of
  /// copying it out; its size must equal `bytes`.
  Buffer recv_buffer(int src, int tag, std::size_t bytes);
  /// Combined exchange (send then receive; safe because sends are buffered).
  void sendrecv_bytes(int dst, int send_tag, const void* send_data,
                      std::size_t send_bytes, int src, int recv_tag,
                      void* recv_data, std::size_t recv_bytes);
  /// True if a matching message is already queued.
  bool probe(int src, int tag) const;

  template <typename T>
  void send(int dst, int tag, std::span<const T> data) {
    send_bytes(dst, tag, data.data(), data.size_bytes());
  }
  template <typename T>
  void recv(int src, int tag, std::span<T> data) {
    recv_bytes(src, tag, data.data(), data.size_bytes());
  }
  template <typename T>
  void send_value(int dst, int tag, const T& value) {
    send_bytes(dst, tag, &value, sizeof(T));
  }
  template <typename T>
  T recv_value(int src, int tag) {
    T value;
    recv_bytes(src, tag, &value, sizeof(T));
    return value;
  }
  template <typename T>
  void sendrecv(int dst, std::span<const T> send_data, int src,
                std::span<T> recv_data, int tag = 0) {
    sendrecv_bytes(dst, tag, send_data.data(), send_data.size_bytes(), src, tag,
                   recv_data.data(), recv_data.size_bytes());
  }

  // ----- collectives -----
  void barrier();
  void bcast_bytes(void* data, std::size_t bytes, int root);
  /// Elementwise sum-reduce of doubles to `root`.
  void reduce_sum(std::span<double> data, int root);
  void allreduce_sum(std::span<double> data);
  double allreduce_sum(double value);
  double allreduce_max(double value);
  double allreduce_min(double value);
  std::uint64_t allreduce_sum_u64(std::uint64_t value);
  /// Gather fixed-size blocks to root; recv must hold size()*bytes at root.
  void gather_bytes(const void* send, std::size_t bytes, void* recv, int root);
  void allgather_bytes(const void* send, std::size_t bytes, void* recv);
  /// Personalised exchange: send block i to rank i; blocks are `bytes` each.
  void alltoall_bytes(const void* send, std::size_t bytes, void* recv);
  /// Inclusive prefix sum.
  double scan_sum(double value);
  /// Elementwise sum over all ranks, then scatter block i to rank i:
  /// `send` holds size()*block_elems doubles, `recv` holds block_elems.
  void reduce_scatter_sum(std::span<const double> send,
                          std::span<double> recv);

  template <typename T>
  void bcast(std::span<T> data, int root) {
    bcast_bytes(data.data(), data.size_bytes(), root);
  }
  template <typename T>
  void allgather(const T& mine, std::span<T> all) {
    allgather_bytes(&mine, sizeof(T), all.data());
  }

  const CommLog& log() const { return log_; }

 private:
  friend class Job;
  Comm(detail::JobState& state, int rank, int size)
      : state_(&state), rank_(rank), size_(size), vrank_(rank), vsize_(size) {}
  /// Collapsed-mode communicator: `rank`/`size` are the physical slot and
  /// slot count (one per symmetry class); `vrank`/`vsize` the virtual
  /// identity reported to the app.
  Comm(detail::JobState& state, int rank, int size, int vrank, int vsize)
      : state_(&state),
        rank_(rank),
        size_(size),
        vrank_(vrank),
        vsize_(vsize),
        collapsed_(true) {}

  Mailbox& mailbox_of(int rank) const;

  /// The preamble every collective runs once, after its argument checks:
  /// the rank-death fault op, the CommLog record, and the call's first tag
  /// (its kind's range, rolled by the kind's call count).
  int begin_collective(CollectiveKind kind, std::size_t bytes);
  /// Elementwise allreduce of both paths (a collapsed sum is weighted by
  /// class population).
  void allreduce(std::span<double> data, ReduceMode mode);

  // ----- data movement over the physical slots (unlogged) -----
  /// Binomial-tree broadcast of `bytes` from slot `root`.
  void tree_bcast(void* data, std::size_t bytes, int root, int tag);
  /// Binomial-tree reduction into slot `root`'s `data`.
  void tree_reduce(std::span<double> data, ReduceMode mode, int root,
                   int tag);
  /// Every slot's `bytes`-sized block, in slot order, into `blocks` at slot
  /// `root` (size() * bytes there; unused elsewhere).
  void gather_blocks(const void* mine, std::size_t bytes, void* blocks,
                     int root, int tag);
  /// Personalised exchange: `blocks` receives, in slot order, the block each
  /// slot addresses to this slot's rank() in its `send` (size() blocks of
  /// `bytes`).
  void exchange_addressed(const void* send, std::size_t bytes, void* blocks,
                          int tag);

  // ----- collapsed-mode data planes -----
  // p2p becomes a self-tiling loopback; collectives move one block per class
  // between the slots and weight each by its class population (see job.hpp).
  /// The class exchange: every class's block, in class order, into `blocks`
  /// (size() * bytes) on every slot. Uses `tag` and `tag + 1`.
  void class_blocks(const void* mine, std::size_t bytes, void* blocks,
                    int tag);
  /// Map a collective root (virtual rank) to its physical slot (the identity
  /// on a full run); under collapse the root must be a class representative
  /// so root-only side effects execute.
  int root_slot(int root) const;

  detail::JobState* state_;
  int rank_;
  int size_;
  int vrank_;
  int vsize_;
  bool collapsed_ = false;
  /// Self-tiling loopback: collapsed sends queue their payload here by tag
  /// and collapsed recvs pop it (FIFO per tag). For symmetric exchange
  /// patterns this makes the representative's world an exact periodic
  /// tiling of itself; a recv with no queued payload (a non-periodic
  /// boundary partner) zero-fills instead.
  std::map<int, std::deque<Buffer>> loopback_;
  CommLog log_;
};

}  // namespace fibersim::mp
