#include "mp/comm.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "common/error.hpp"
#include "common/string_util.hpp"
#include "fault/fault.hpp"
#include "mp/job.hpp"
#include "mp/symmetry.hpp"
#include "rt/fiber.hpp"

namespace fibersim::mp {

namespace {
// Collective-internal messages live in a reserved tag range so they can never
// match user tags. A rolling sequence number keeps back-to-back collectives
// of the same kind from cross-matching.
constexpr int kCollectiveTagBase = 1 << 24;
constexpr int kCollectiveSeqSlots = 4096;

/// The one push point every send path (user p2p and collective internals)
/// funnels through, so an attached fault plan sees every message exactly
/// once, numbered in per-(src, dst) program order.
void deliver(detail::JobState& state, int dst, Message m) {
  Mailbox& mbox = *state.mailboxes[static_cast<std::size_t>(dst)];
  if (state.faults == nullptr) {
    mbox.push(std::move(m));
    return;
  }
  const std::size_t pair = static_cast<std::size_t>(m.source) *
                               static_cast<std::size_t>(state.ranks) +
                           static_cast<std::size_t>(dst);
  const std::uint64_t seq = state.send_seq[pair]++;
  switch (state.faults->on_send(m.source, dst, m.tag, seq)) {
    case fault::SendAction::kDrop:
      return;
    case fault::SendAction::kDuplicate:
      mbox.push(m);
      mbox.push(std::move(m));
      return;
    case fault::SendAction::kDelay:
      rt::sleep_for(std::chrono::duration<double>(state.faults->delay_s()));
      mbox.push(std::move(m));
      return;
    case fault::SendAction::kDeliver:
      mbox.push(std::move(m));
      return;
  }
}

/// Rank-death hook: counts this rank's communication ops (single writer, so
/// the count is scheduling-independent) and throws an injected death if the
/// plan selects this (rank, op) site.
void fault_op(detail::JobState& state, int rank) {
  if (state.faults == nullptr) return;
  const std::uint64_t op = state.op_seq[static_cast<std::size_t>(rank)]++;
  if (state.faults->should_kill_rank(rank, op)) {
    throw Error(strfmt("%s: rank %d death at communication op %llu",
                       fault::kInjectedMarker, rank,
                       static_cast<unsigned long long>(op)));
  }
}
}  // namespace

Mailbox& Comm::mailbox_of(int r) const {
  FS_REQUIRE(r >= 0 && r < size_, "peer rank out of range");
  return *state_->mailboxes[static_cast<std::size_t>(r)];
}

void Comm::send_bytes(int dst, int tag, const void* data, std::size_t bytes) {
  FS_REQUIRE(tag >= 0 && tag < kCollectiveTagBase,
             "user tags must be in [0, 2^24)");
  FS_REQUIRE(bytes == 0 || data != nullptr, "null payload with nonzero size");
  send_buffer(dst, tag, Buffer::copy_of(data, bytes));
}

void Comm::send_buffer(int dst, int tag, Buffer payload) {
  FS_REQUIRE(tag >= 0 && tag < kCollectiveTagBase,
             "user tags must be in [0, 2^24)");
  FS_REQUIRE(dst >= 0 && dst < vsize_, "peer rank out of range");
  fault_op(*state_, rank_);
  log_.record_send(dst, payload.size());
  if (collapsed_) {
    // The true destination only exists virtually; queue the payload for the
    // self-tiling loopback instead. Symmetric exchanges keep every queue at
    // most one deep per outstanding message; the cap only guards against a
    // boundary rank's never-received direction growing without bound.
    std::deque<Buffer>& q = loopback_[tag];
    q.push_back(std::move(payload));
    if (q.size() > 8) q.pop_front();
    return;
  }
  Message m;
  m.source = rank_;
  m.tag = tag;
  m.payload = std::move(payload);
  deliver(*state_, dst, std::move(m));
}

void Comm::recv_bytes(int src, int tag, void* data, std::size_t bytes) {
  recv_buffer(src, tag, bytes).copy_to(data);
}

Buffer Comm::recv_buffer(int src, int tag, std::size_t bytes) {
  FS_REQUIRE(src == kAnySource || (src >= 0 && src < vsize_),
             "source rank out of range");
  fault_op(*state_, rank_);
  if (collapsed_) {
    // Self-tiling: the structurally matching message is the one this rank
    // itself sent under the same tag (its partners are copies of itself).
    // No queued payload means the virtual partner is a non-periodic
    // boundary ghost: zeros, a Dirichlet truncation.
    const auto it = loopback_.find(tag);
    if (it == loopback_.end() || it->second.empty()) {
      return Buffer::build(bytes,
                           [&](std::byte* out) { std::memset(out, 0, bytes); });
    }
    Buffer payload = std::move(it->second.front());
    it->second.pop_front();
    FS_REQUIRE(payload.size() == bytes,
               "recv size does not match the sent payload");
    return payload;
  }
  Message m = mailbox_of(rank_).pop(src, tag);
  FS_REQUIRE(m.payload.size() == bytes,
             "recv size does not match the sent payload");
  return std::move(m.payload);
}

void Comm::sendrecv_bytes(int dst, int send_tag, const void* send_data,
                          std::size_t send_size, int src, int recv_tag,
                          void* recv_data, std::size_t recv_size) {
  send_bytes(dst, send_tag, send_data, send_size);
  recv_bytes(src, recv_tag, recv_data, recv_size);
}

bool Comm::probe(int src, int tag) const {
  if (collapsed_) {
    const auto it = loopback_.find(tag);
    return it != loopback_.end() && !it->second.empty();
  }
  return mailbox_of(rank_).probe(src, tag);
}

// ----- internal unlogged p2p used by collective algorithms -----
namespace {
/// Deliver an already-built payload without copying it; fan-out callers pass
/// the same Buffer to every destination (one allocation for the whole tree).
void raw_send_buf(detail::JobState& state, int self, int dst, int tag,
                  Buffer payload) {
  Message m;
  m.source = self;
  m.tag = tag;
  m.payload = std::move(payload);
  deliver(state, dst, std::move(m));
}

void raw_send(detail::JobState& state, int self, int dst, int tag,
              const void* data, std::size_t bytes) {
  raw_send_buf(state, self, dst, tag, Buffer::copy_of(data, bytes));
}

/// Receive the raw message so the caller can both read the payload and
/// forward the shared Buffer onward.
Message raw_recv_msg(detail::JobState& state, int self, int src, int tag,
                     std::size_t bytes) {
  Message m = state.mailboxes[static_cast<std::size_t>(self)]->pop(src, tag);
  FS_REQUIRE(m.payload.size() == bytes, "collective payload size mismatch");
  return m;
}

void raw_recv(detail::JobState& state, int self, int src, int tag, void* data,
              std::size_t bytes) {
  raw_recv_msg(state, self, src, tag, bytes).payload.copy_to(data);
}
}  // namespace

void Comm::barrier() {
  fault_op(*state_, rank_);
  log_.record_collective(CollectiveKind::kBarrier, 0);
  // Dissemination barrier: log2(size) rounds.
  static constexpr int kRoundStride = 32;  // max rounds per barrier
  const int seq =
      static_cast<int>(log_.collectives[CollectiveKind::kBarrier].calls %
                       (kCollectiveSeqSlots / kRoundStride));
  int round = 0;
  for (int dist = 1; dist < size_; dist *= 2, ++round) {
    const int tag = kCollectiveTagBase + 800000 + seq * kRoundStride + round;
    const int dst = (rank_ + dist) % size_;
    const int src = (rank_ - dist % size_ + size_) % size_;
    char token = 0;
    raw_send(*state_, rank_, dst, tag, &token, 1);
    raw_recv(*state_, rank_, src, tag, &token, 1);
  }
}

void Comm::bcast_bytes(void* data, std::size_t bytes, int root) {
  FS_REQUIRE(root >= 0 && root < vsize_, "bcast root out of range");
  FS_REQUIRE(bytes == 0 || data != nullptr, "null payload with nonzero size");
  fault_op(*state_, rank_);
  log_.record_collective(CollectiveKind::kBcast, bytes);
  const int seq =
      static_cast<int>(log_.collectives[CollectiveKind::kBcast].calls %
                       kCollectiveSeqSlots);
  const int tag = kCollectiveTagBase + seq;
  // A collapsed bcast runs the same binomial tree over the physical slots
  // rooted at the root's class slot: the virtual root's buffer *is* its
  // representative's, and every member of every class observes the data
  // its full-run counterpart would (all ranks receive the root's bytes).
  const int eff_root = collapsed_ ? root_slot(root) : root;
  const int relrank = (rank_ - eff_root + size_) % size_;
  // Binomial tree: receive from parent, forward the received Buffer to all
  // children — the whole tree shares the root's single allocation.
  Buffer payload;
  int mask = 1;
  while (mask < size_) {
    if (relrank & mask) {
      const int src = (relrank - mask + eff_root) % size_;
      Message m = raw_recv_msg(*state_, rank_, src, tag, bytes);
      m.payload.copy_to(data);
      payload = std::move(m.payload);
      break;
    }
    mask <<= 1;
  }
  if (relrank == 0 && size_ > 1) payload = Buffer::copy_of(data, bytes);
  mask >>= 1;
  while (mask > 0) {
    if (relrank + mask < size_) {
      const int dst = (relrank + mask + eff_root) % size_;
      raw_send_buf(*state_, rank_, dst, tag, payload);
    }
    mask >>= 1;
  }
}

template <typename Op>
void Comm::allreduce_op(std::span<double> data, Op op, CollectiveKind kind) {
  fault_op(*state_, rank_);
  log_.record_collective(kind, data.size_bytes());
  const int seq = static_cast<int>(log_.collectives[kind].calls %
                                   (kCollectiveSeqSlots / 2));
  const int tag = kCollectiveTagBase + static_cast<int>(kind) * 100000 +
                  seq * 2;
  // Reduce to rank 0 over a binomial tree...
  std::vector<double> incoming(data.size());
  int mask = 1;
  while (mask < size_) {
    if ((rank_ & mask) == 0) {
      const int src = rank_ | mask;
      if (src < size_) {
        raw_recv(*state_, rank_, src, tag, incoming.data(),
                 data.size_bytes());
        for (std::size_t i = 0; i < data.size(); ++i) {
          data[i] = op(data[i], incoming[i]);
        }
      }
    } else {
      const int dst = rank_ & ~mask;
      raw_send(*state_, rank_, dst, tag, data.data(), data.size_bytes());
      break;
    }
    mask <<= 1;
  }
  // ...then broadcast the result (re-using the binomial pattern, tag+1).
  // The reduced vector is immutable from here on, so the fan-out shares one
  // Buffer exactly like bcast_bytes does.
  const int btag = tag + 1;
  Buffer result;
  mask = 1;
  while (mask < size_) {
    if (rank_ & mask) {
      const int src = rank_ - mask;
      Message m = raw_recv_msg(*state_, rank_, src, btag, data.size_bytes());
      m.payload.copy_to(data.data());
      result = std::move(m.payload);
      break;
    }
    mask <<= 1;
  }
  if (rank_ == 0 && size_ > 1) {
    result = Buffer::copy_of(data.data(), data.size_bytes());
  }
  mask >>= 1;
  while (mask > 0) {
    if (rank_ + mask < size_) {
      raw_send_buf(*state_, rank_, rank_ + mask, btag, result);
    }
    mask >>= 1;
  }
}

void Comm::reduce_sum(std::span<double> data, int root) {
  FS_REQUIRE(root >= 0 && root < vsize_, "reduce root out of range");
  if (collapsed_) {
    collapsed_reduce_sum(data, root);
    return;
  }
  fault_op(*state_, rank_);
  log_.record_collective(CollectiveKind::kReduce, data.size_bytes());
  const int seq =
      static_cast<int>(log_.collectives[CollectiveKind::kReduce].calls %
                       kCollectiveSeqSlots);
  const int tag = kCollectiveTagBase + 900000 + seq;
  const int relrank = (rank_ - root + size_) % size_;
  std::vector<double> incoming(data.size());
  int mask = 1;
  while (mask < size_) {
    if ((relrank & mask) == 0) {
      const int src_rel = relrank | mask;
      if (src_rel < size_) {
        raw_recv(*state_, rank_, (src_rel + root) % size_, tag,
                 incoming.data(), data.size_bytes());
        for (std::size_t i = 0; i < data.size(); ++i) data[i] += incoming[i];
      }
    } else {
      const int dst_rel = relrank & ~mask;
      raw_send(*state_, rank_, (dst_rel + root) % size_, tag, data.data(),
               data.size_bytes());
      break;
    }
    mask <<= 1;
  }
}

void Comm::allreduce_sum(std::span<double> data) {
  if (collapsed_) {
    collapsed_allreduce(data, ReduceMode::kWeightedSum,
                        CollectiveKind::kAllreduce);
    return;
  }
  allreduce_op(data, [](double a, double b) { return a + b; },
               CollectiveKind::kAllreduce);
}

double Comm::allreduce_sum(double value) {
  allreduce_sum(std::span<double>(&value, 1));
  return value;
}

double Comm::allreduce_max(double value) {
  if (collapsed_) {
    collapsed_allreduce(std::span<double>(&value, 1), ReduceMode::kMax,
                        CollectiveKind::kAllreduce);
    return value;
  }
  allreduce_op(std::span<double>(&value, 1),
               [](double a, double b) { return std::max(a, b); },
               CollectiveKind::kAllreduce);
  return value;
}

double Comm::allreduce_min(double value) {
  if (collapsed_) {
    collapsed_allreduce(std::span<double>(&value, 1), ReduceMode::kMin,
                        CollectiveKind::kAllreduce);
    return value;
  }
  allreduce_op(std::span<double>(&value, 1),
               [](double a, double b) { return std::min(a, b); },
               CollectiveKind::kAllreduce);
  return value;
}

std::uint64_t Comm::allreduce_sum_u64(std::uint64_t value) {
  // Exact for counts below 2^53, which covers every counter in the suite.
  double v = static_cast<double>(value);
  allreduce_sum(std::span<double>(&v, 1));
  return static_cast<std::uint64_t>(v);
}

void Comm::gather_bytes(const void* send, std::size_t bytes, void* recv,
                        int root) {
  FS_REQUIRE(root >= 0 && root < vsize_, "gather root out of range");
  if (collapsed_) {
    collapsed_gather(send, bytes, recv, root);
    return;
  }
  fault_op(*state_, rank_);
  log_.record_collective(CollectiveKind::kGather, bytes);
  const int seq =
      static_cast<int>(log_.collectives[CollectiveKind::kGather].calls %
                       kCollectiveSeqSlots);
  const int tag = kCollectiveTagBase + 1000000 + seq;
  if (rank_ == root) {
    FS_REQUIRE(recv != nullptr || bytes == 0, "gather root needs a buffer");
    auto* out = static_cast<std::byte*>(recv);
    std::memcpy(out + static_cast<std::size_t>(root) * bytes, send, bytes);
    for (int r = 0; r < size_; ++r) {
      if (r == root) continue;
      raw_recv(*state_, rank_, r, tag, out + static_cast<std::size_t>(r) * bytes,
               bytes);
    }
  } else {
    raw_send(*state_, rank_, root, tag, send, bytes);
  }
}

void Comm::allgather_bytes(const void* send, std::size_t bytes, void* recv) {
  if (collapsed_) {
    collapsed_allgather(send, bytes, recv);
    return;
  }
  fault_op(*state_, rank_);
  log_.record_collective(CollectiveKind::kAllgather, bytes);
  const int seq =
      static_cast<int>(log_.collectives[CollectiveKind::kAllgather].calls %
                       kCollectiveSeqSlots);
  const int tag = kCollectiveTagBase + 2000000 + seq;
  // Ring allgather: size-1 rounds, each forwarding the block received last.
  // Each block is packed into a Buffer once by its owner; every later hop
  // forwards the received Buffer, so a block crosses the ring with one
  // allocation total instead of one per hop.
  auto* out = static_cast<std::byte*>(recv);
  std::memcpy(out + static_cast<std::size_t>(rank_) * bytes, send, bytes);
  const int next = (rank_ + 1) % size_;
  const int prev = (rank_ - 1 + size_) % size_;
  Buffer circulating = Buffer::copy_of(send, bytes);
  for (int round = 0; round < size_ - 1; ++round) {
    raw_send_buf(*state_, rank_, next, tag + 0, std::move(circulating));
    Message m = raw_recv_msg(*state_, rank_, prev, tag + 0, bytes);
    const int incoming = (rank_ - 1 - round + 2 * size_) % size_;
    m.payload.copy_to(out + static_cast<std::size_t>(incoming) * bytes);
    circulating = std::move(m.payload);
  }
}

void Comm::alltoall_bytes(const void* send, std::size_t bytes, void* recv) {
  if (collapsed_) {
    collapsed_alltoall(send, bytes, recv);
    return;
  }
  fault_op(*state_, rank_);
  log_.record_collective(CollectiveKind::kAlltoall, bytes);
  const int seq =
      static_cast<int>(log_.collectives[CollectiveKind::kAlltoall].calls %
                       kCollectiveSeqSlots);
  const int tag = kCollectiveTagBase + 3000000 + seq;
  const auto* in = static_cast<const std::byte*>(send);
  auto* out = static_cast<std::byte*>(recv);
  std::memcpy(out + static_cast<std::size_t>(rank_) * bytes,
              in + static_cast<std::size_t>(rank_) * bytes, bytes);
  for (int r = 0; r < size_; ++r) {
    if (r == rank_) continue;
    raw_send(*state_, rank_, r, tag, in + static_cast<std::size_t>(r) * bytes,
             bytes);
  }
  for (int r = 0; r < size_; ++r) {
    if (r == rank_) continue;
    raw_recv(*state_, rank_, r, tag, out + static_cast<std::size_t>(r) * bytes,
             bytes);
  }
}

void Comm::reduce_scatter_sum(std::span<const double> send,
                              std::span<double> recv) {
  const std::size_t block = recv.size();
  FS_REQUIRE(send.size() == block * static_cast<std::size_t>(vsize_),
             "reduce_scatter send buffer must hold size() blocks");
  if (collapsed_) {
    collapsed_reduce_scatter(send, recv);
    return;
  }
  fault_op(*state_, rank_);
  log_.record_collective(CollectiveKind::kReduceScatter, send.size_bytes());
  const int seq = static_cast<int>(
      log_.collectives[CollectiveKind::kReduceScatter].calls %
      (kCollectiveSeqSlots / 2));
  const int tag = kCollectiveTagBase + 5000000 + seq * 2;  // +1 for scatter
  // Reduce the whole vector to rank 0 over a binomial tree, then scatter the
  // blocks directly (simple and adequate at suite scale).
  std::vector<double> acc(send.begin(), send.end());
  std::vector<double> incoming(send.size());
  int mask = 1;
  while (mask < size_) {
    if ((rank_ & mask) == 0) {
      const int src = rank_ | mask;
      if (src < size_) {
        raw_recv(*state_, rank_, src, tag, incoming.data(),
                 incoming.size() * sizeof(double));
        for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += incoming[i];
      }
    } else {
      raw_send(*state_, rank_, rank_ & ~mask, tag, acc.data(),
               acc.size() * sizeof(double));
      break;
    }
    mask <<= 1;
  }
  if (rank_ == 0) {
    std::copy_n(acc.data(), block, recv.data());
    for (int r = 1; r < size_; ++r) {
      raw_send(*state_, rank_, r, tag + 1,
               acc.data() + static_cast<std::size_t>(r) * block,
               block * sizeof(double));
    }
  } else {
    raw_recv(*state_, rank_, 0, tag + 1, recv.data(), block * sizeof(double));
  }
}

double Comm::scan_sum(double value) {
  if (collapsed_) return collapsed_scan_sum(value);
  fault_op(*state_, rank_);
  log_.record_collective(CollectiveKind::kScan, sizeof(double));
  const int seq = static_cast<int>(
      log_.collectives[CollectiveKind::kScan].calls % kCollectiveSeqSlots);
  const int tag = kCollectiveTagBase + 4000000 + seq;
  double acc = value;
  if (rank_ > 0) {
    double upstream = 0.0;
    raw_recv(*state_, rank_, rank_ - 1, tag, &upstream, sizeof(double));
    acc += upstream;
  }
  if (rank_ + 1 < size_) {
    raw_send(*state_, rank_, rank_ + 1, tag, &acc, sizeof(double));
  }
  return acc;
}

// ----- collapsed-mode collective data planes -----
//
// Logging above the data plane is identical to the full-run paths (same
// CollectiveKind, same byte counts), so collapsed traces match full traces
// bit for bit. The data movement itself runs over the physical slots (one
// per symmetry class) and weights each slot's contribution by its class
// population, producing the value the app would compute if every member of
// the class contributed its representative's bits. The fold always runs at
// one slot, in ascending class order, and the result is then broadcast —
// every slot therefore observes identical bits regardless of scheduling.

int Comm::root_slot(int root) const {
  const RankSymmetry& sym = *state_->collapse;
  const int cls = sym.class_of(root);
  FS_REQUIRE(sym.representative(cls) == root,
             "collapsed collective root must be a class representative");
  return cls;
}

void Comm::collapsed_allreduce(std::span<double> data, ReduceMode mode,
                               CollectiveKind kind) {
  fault_op(*state_, rank_);
  log_.record_collective(kind, data.size_bytes());
  const int seq = static_cast<int>(log_.collectives[kind].calls %
                                   (kCollectiveSeqSlots / 2));
  const int tag =
      kCollectiveTagBase + static_cast<int>(kind) * 100000 + seq * 2;
  const int btag = tag + 1;
  const RankSymmetry& sym = *state_->collapse;
  if (rank_ == 0) {
    std::vector<double> acc(data.begin(), data.end());
    if (mode == ReduceMode::kWeightedSum) {
      const double w0 = static_cast<double>(sym.weight(0));
      for (double& v : acc) v *= w0;
    }
    std::vector<double> incoming(data.size());
    for (int c = 1; c < size_; ++c) {
      raw_recv(*state_, rank_, c, tag, incoming.data(), data.size_bytes());
      switch (mode) {
        case ReduceMode::kWeightedSum: {
          const double w = static_cast<double>(sym.weight(c));
          for (std::size_t i = 0; i < acc.size(); ++i) {
            acc[i] += w * incoming[i];
          }
          break;
        }
        case ReduceMode::kMax:
          for (std::size_t i = 0; i < acc.size(); ++i) {
            acc[i] = std::max(acc[i], incoming[i]);
          }
          break;
        case ReduceMode::kMin:
          for (std::size_t i = 0; i < acc.size(); ++i) {
            acc[i] = std::min(acc[i], incoming[i]);
          }
          break;
      }
    }
    std::copy(acc.begin(), acc.end(), data.begin());
    if (size_ > 1) {
      Buffer result = Buffer::copy_of(data.data(), data.size_bytes());
      for (int c = 1; c < size_; ++c) {
        raw_send_buf(*state_, rank_, c, btag, result);
      }
    }
  } else {
    raw_send(*state_, rank_, 0, tag, data.data(), data.size_bytes());
    raw_recv(*state_, rank_, 0, btag, data.data(), data.size_bytes());
  }
}

void Comm::collapsed_reduce_sum(std::span<double> data, int root) {
  fault_op(*state_, rank_);
  log_.record_collective(CollectiveKind::kReduce, data.size_bytes());
  const int seq =
      static_cast<int>(log_.collectives[CollectiveKind::kReduce].calls %
                       kCollectiveSeqSlots);
  const int tag = kCollectiveTagBase + 900000 + seq;
  const RankSymmetry& sym = *state_->collapse;
  const int rslot = root_slot(root);
  if (rank_ != rslot) {
    raw_send(*state_, rank_, rslot, tag, data.data(), data.size_bytes());
    return;
  }
  std::vector<double> acc(data.size(), 0.0);
  std::vector<double> incoming(data.size());
  for (int c = 0; c < size_; ++c) {
    const double* v = data.data();
    if (c != rslot) {
      raw_recv(*state_, rank_, c, tag, incoming.data(), data.size_bytes());
      v = incoming.data();
    }
    const double w = static_cast<double>(sym.weight(c));
    for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += w * v[i];
  }
  std::copy(acc.begin(), acc.end(), data.begin());
}

void Comm::collapsed_gather(const void* send, std::size_t bytes, void* recv,
                            int root) {
  fault_op(*state_, rank_);
  log_.record_collective(CollectiveKind::kGather, bytes);
  const int seq =
      static_cast<int>(log_.collectives[CollectiveKind::kGather].calls %
                       kCollectiveSeqSlots);
  const int tag = kCollectiveTagBase + 1000000 + seq;
  const RankSymmetry& sym = *state_->collapse;
  const int rslot = root_slot(root);
  if (rank_ != rslot) {
    raw_send(*state_, rank_, rslot, tag, send, bytes);
    return;
  }
  FS_REQUIRE(recv != nullptr || bytes == 0, "gather root needs a buffer");
  // Collect one block per class, then expand to all virtual ranks: every
  // member of a class contributes its representative's block.
  std::vector<std::byte> blocks(static_cast<std::size_t>(size_) * bytes);
  for (int c = 0; c < size_; ++c) {
    std::byte* slot = blocks.data() + static_cast<std::size_t>(c) * bytes;
    if (c == rslot) {
      std::memcpy(slot, send, bytes);
    } else {
      raw_recv(*state_, rank_, c, tag, slot, bytes);
    }
  }
  auto* out = static_cast<std::byte*>(recv);
  for (int v = 0; v < vsize_; ++v) {
    const int c = sym.class_of(v);
    std::memcpy(out + static_cast<std::size_t>(v) * bytes,
                blocks.data() + static_cast<std::size_t>(c) * bytes, bytes);
  }
}

void Comm::collapsed_allgather(const void* send, std::size_t bytes,
                               void* recv) {
  fault_op(*state_, rank_);
  log_.record_collective(CollectiveKind::kAllgather, bytes);
  const int seq =
      static_cast<int>(log_.collectives[CollectiveKind::kAllgather].calls %
                       kCollectiveSeqSlots);
  const int tag = kCollectiveTagBase + 2000000 + seq;
  const int btag = tag + 1;  // directionally disjoint from the next call's tag
  const RankSymmetry& sym = *state_->collapse;
  // Gather one block per class at slot 0, broadcast the concatenation, then
  // every slot expands it over the virtual ranks.
  std::vector<std::byte> blocks(static_cast<std::size_t>(size_) * bytes);
  if (rank_ == 0) {
    for (int c = 0; c < size_; ++c) {
      std::byte* slot = blocks.data() + static_cast<std::size_t>(c) * bytes;
      if (c == 0) {
        std::memcpy(slot, send, bytes);
      } else {
        raw_recv(*state_, rank_, c, tag, slot, bytes);
      }
    }
    if (size_ > 1) {
      Buffer all = Buffer::copy_of(blocks.data(), blocks.size());
      for (int c = 1; c < size_; ++c) {
        raw_send_buf(*state_, rank_, c, btag, all);
      }
    }
  } else {
    raw_send(*state_, rank_, 0, tag, send, bytes);
    raw_recv(*state_, rank_, 0, btag, blocks.data(), blocks.size());
  }
  auto* out = static_cast<std::byte*>(recv);
  for (int v = 0; v < vsize_; ++v) {
    const int c = sym.class_of(v);
    std::memcpy(out + static_cast<std::size_t>(v) * bytes,
                blocks.data() + static_cast<std::size_t>(c) * bytes, bytes);
  }
}

void Comm::collapsed_alltoall(const void* send, std::size_t bytes,
                              void* recv) {
  fault_op(*state_, rank_);
  log_.record_collective(CollectiveKind::kAlltoall, bytes);
  const int seq =
      static_cast<int>(log_.collectives[CollectiveKind::kAlltoall].calls %
                       kCollectiveSeqSlots);
  const int tag = kCollectiveTagBase + 3000000 + seq;
  const RankSymmetry& sym = *state_->collapse;
  const auto* in = static_cast<const std::byte*>(send);
  // Each slot exchanges with every other slot the block its representative
  // addresses to that slot's representative, then expands: the block a
  // virtual rank v would deliver is its class representative's.
  std::vector<std::byte> blocks(static_cast<std::size_t>(size_) * bytes);
  for (int c = 0; c < size_; ++c) {
    if (c == rank_) continue;
    const std::size_t off =
        static_cast<std::size_t>(sym.representative(c)) * bytes;
    raw_send(*state_, rank_, c, tag, in + off, bytes);
  }
  for (int c = 0; c < size_; ++c) {
    std::byte* slot = blocks.data() + static_cast<std::size_t>(c) * bytes;
    if (c == rank_) {
      std::memcpy(slot, in + static_cast<std::size_t>(vrank_) * bytes, bytes);
    } else {
      raw_recv(*state_, rank_, c, tag, slot, bytes);
    }
  }
  auto* out = static_cast<std::byte*>(recv);
  for (int v = 0; v < vsize_; ++v) {
    const int c = sym.class_of(v);
    std::memcpy(out + static_cast<std::size_t>(v) * bytes,
                blocks.data() + static_cast<std::size_t>(c) * bytes, bytes);
  }
}

double Comm::collapsed_scan_sum(double value) {
  fault_op(*state_, rank_);
  log_.record_collective(CollectiveKind::kScan, sizeof(double));
  const int seq = static_cast<int>(
      log_.collectives[CollectiveKind::kScan].calls % kCollectiveSeqSlots);
  const int tag = kCollectiveTagBase + 4000000 + seq;
  const int btag = tag + 1;  // directionally disjoint from the next call's tag
  const RankSymmetry& sym = *state_->collapse;
  // Gather every class's value, broadcast the vector, then each slot forms
  // its representative's inclusive prefix: members of class c with rank id
  // at most vrank() each contribute vals[c].
  std::vector<double> vals(static_cast<std::size_t>(size_));
  if (rank_ == 0) {
    vals[0] = value;
    for (int c = 1; c < size_; ++c) {
      raw_recv(*state_, rank_, c, tag, &vals[static_cast<std::size_t>(c)],
               sizeof(double));
    }
    if (size_ > 1) {
      Buffer all = Buffer::copy_of(vals.data(), vals.size() * sizeof(double));
      for (int c = 1; c < size_; ++c) {
        raw_send_buf(*state_, rank_, c, btag, all);
      }
    }
  } else {
    raw_send(*state_, rank_, 0, tag, &value, sizeof(double));
    raw_recv(*state_, rank_, 0, btag, vals.data(),
             vals.size() * sizeof(double));
  }
  double acc = 0.0;
  for (int c = 0; c < size_; ++c) {
    acc += vals[static_cast<std::size_t>(c)] *
           static_cast<double>(sym.members_at_most(c, vrank_));
  }
  return acc;
}

void Comm::collapsed_reduce_scatter(std::span<const double> send,
                                    std::span<double> recv) {
  const std::size_t block = recv.size();
  fault_op(*state_, rank_);
  log_.record_collective(CollectiveKind::kReduceScatter, send.size_bytes());
  const int seq = static_cast<int>(
      log_.collectives[CollectiveKind::kReduceScatter].calls %
      (kCollectiveSeqSlots / 2));
  const int tag = kCollectiveTagBase + 5000000 + seq * 2;
  const RankSymmetry& sym = *state_->collapse;
  // Pairwise: every slot needs, from each class, the slice that class's
  // representative addresses to this slot's representative; the weighted
  // fold in class order replicates the remaining members' contributions.
  for (int c = 0; c < size_; ++c) {
    if (c == rank_) continue;
    const std::size_t off =
        static_cast<std::size_t>(sym.representative(c)) * block;
    raw_send(*state_, rank_, c, tag, send.data() + off,
             block * sizeof(double));
  }
  std::fill(recv.begin(), recv.end(), 0.0);
  std::vector<double> incoming(block);
  for (int c = 0; c < size_; ++c) {
    const double* slice;
    if (c == rank_) {
      slice = send.data() + static_cast<std::size_t>(vrank_) * block;
    } else {
      raw_recv(*state_, rank_, c, tag, incoming.data(),
               block * sizeof(double));
      slice = incoming.data();
    }
    const double w = static_cast<double>(sym.weight(c));
    for (std::size_t i = 0; i < block; ++i) recv[i] += w * slice[i];
  }
}

}  // namespace fibersim::mp
