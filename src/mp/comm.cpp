#include "mp/comm.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <iterator>

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

/// Where each CollectiveKind's tags start above kCollectiveTagBase, and how
/// many consecutive tags one call owns (indexed by CollectiveKind).
struct TagRange {
  int offset;
  int per_call;
};
constexpr TagRange kTagRanges[] = {
    {800000, 32},   // kBarrier: one tag per dissemination round, up to 32
    {0, 1},         // kBcast
    {900000, 1},    // kReduce
    {300000, 2},    // kAllreduce: reduce, then broadcast
    {1000000, 1},   // kGather
    {2000000, 1},   // kAllgather
    {3000000, 1},   // kAlltoall
    {4000000, 1},   // kScan
    {5000000, 2},   // kReduceScatter: reduce, then scatter
};
static_assert(std::size(kTagRanges) ==
              static_cast<std::size_t>(CollectiveKind::kReduceScatter) + 1);

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

/// One elementwise reduction step into `acc`. A sum adds `weight * in[i]`:
/// a collapsed slot stands for `weight` identical ranks, a full-run rank
/// for one (and 1.0 * x is exactly x).
void fold(std::span<double> acc, const double* in, ReduceMode mode,
          double weight = 1.0) {
  for (std::size_t i = 0; i < acc.size(); ++i) {
    switch (mode) {
      case ReduceMode::kSum: acc[i] += weight * in[i]; break;
      case ReduceMode::kMax: acc[i] = std::max(acc[i], in[i]); break;
      case ReduceMode::kMin: acc[i] = std::min(acc[i], in[i]); break;
    }
  }
}

/// Lay class-ordered blocks out over the virtual ranks: every member of a
/// class gets its representative's block.
void expand_classes(const RankSymmetry& sym, const std::byte* blocks,
                    std::size_t bytes, void* out) {
  auto* dst = static_cast<std::byte*>(out);
  for (int v = 0; v < sym.size(); ++v) {
    std::memcpy(dst + static_cast<std::size_t>(v) * bytes,
                blocks + static_cast<std::size_t>(sym.class_of(v)) * bytes,
                bytes);
  }
}
}  // namespace

int Comm::begin_collective(CollectiveKind kind, std::size_t bytes) {
  fault_op(*state_, rank_);
  log_.record_collective(kind, bytes);
  const TagRange& range = kTagRanges[static_cast<std::size_t>(kind)];
  const int seq = static_cast<int>(log_.collectives[kind].calls %
                                   (kCollectiveSeqSlots / range.per_call));
  return kCollectiveTagBase + range.offset + seq * range.per_call;
}

void Comm::tree_bcast(void* data, std::size_t bytes, int root, int tag) {
  const int relrank = (rank_ - root + size_) % size_;
  // Binomial tree: receive from parent, forward the received Buffer to all
  // children — the whole tree shares the root's single allocation.
  Buffer payload;
  int mask = 1;
  while (mask < size_) {
    if (relrank & mask) {
      const int src = (relrank - mask + root) % size_;
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
      const int dst = (relrank + mask + root) % size_;
      raw_send_buf(*state_, rank_, dst, tag, payload);
    }
    mask >>= 1;
  }
}

void Comm::tree_reduce(std::span<double> data, ReduceMode mode, int root,
                       int tag) {
  const int relrank = (rank_ - root + size_) % size_;
  std::vector<double> incoming(data.size());
  for (int mask = 1; mask < size_; mask <<= 1) {
    if (relrank & mask) {
      raw_send(*state_, rank_, ((relrank & ~mask) + root) % size_, tag,
               data.data(), data.size_bytes());
      return;
    }
    const int src_rel = relrank | mask;
    if (src_rel < size_) {
      raw_recv(*state_, rank_, (src_rel + root) % size_, tag, incoming.data(),
               data.size_bytes());
      fold(data, incoming.data(), mode);
    }
  }
}

void Comm::gather_blocks(const void* mine, std::size_t bytes, void* blocks,
                         int root, int tag) {
  if (rank_ != root) {
    raw_send(*state_, rank_, root, tag, mine, bytes);
    return;
  }
  auto* out = static_cast<std::byte*>(blocks);
  for (int r = 0; r < size_; ++r) {
    std::byte* block = out + static_cast<std::size_t>(r) * bytes;
    if (r == root) {
      std::memcpy(block, mine, bytes);
    } else {
      raw_recv(*state_, rank_, r, tag, block, bytes);
    }
  }
}

void Comm::class_blocks(const void* mine, std::size_t bytes, void* blocks,
                        int tag) {
  // Gather at slot 0 under `tag`, then broadcast the concatenation under
  // tag + 1. For a kind with one tag per call, tag + 1 is also the next
  // call's gather tag, but the two are directionally disjoint: only slot 0
  // receives gather messages and it never receives broadcast ones.
  gather_blocks(mine, bytes, blocks, 0, tag);
  tree_bcast(blocks, static_cast<std::size_t>(size_) * bytes, 0, tag + 1);
}

void Comm::exchange_addressed(const void* send, std::size_t bytes,
                              void* blocks, int tag) {
  // Slot s's rank is its class representative in a collapsed run, so each
  // slot receives, from every class, the block that class's representative
  // addresses to this slot's representative.
  const auto rank_of = [&](int slot) {
    return collapsed_ ? state_->collapse->representative(slot) : slot;
  };
  const auto* in = static_cast<const std::byte*>(send);
  auto* out = static_cast<std::byte*>(blocks);
  for (int s = 0; s < size_; ++s) {
    if (s == rank_) continue;
    raw_send(*state_, rank_, s, tag,
             in + static_cast<std::size_t>(rank_of(s)) * bytes, bytes);
  }
  for (int s = 0; s < size_; ++s) {
    std::byte* block = out + static_cast<std::size_t>(s) * bytes;
    if (s == rank_) {
      std::memcpy(block, in + static_cast<std::size_t>(vrank_) * bytes, bytes);
    } else {
      raw_recv(*state_, rank_, s, tag, block, bytes);
    }
  }
}

int Comm::root_slot(int root) const {
  if (!collapsed_) return root;
  const RankSymmetry& sym = *state_->collapse;
  const int cls = sym.class_of(root);
  FS_REQUIRE(sym.representative(cls) == root,
             "collapsed collective root must be a class representative");
  return cls;
}

// ----- collectives -----
//
// Every collective opens with begin_collective, so a collapsed run logs the
// same CollectiveKind and byte count as a full one and collapsed traces match
// full traces bit for bit. Only the data movement differs: a collapsed run
// moves data between its physical slots (one per symmetry class) and weights
// each slot's contribution by its class population, producing the value the
// app would compute if every member of the class contributed its
// representative's bits. Folds run in ascending class order over the same
// class blocks on every slot, so every slot observes identical bits
// regardless of scheduling.

void Comm::barrier() {
  const int tag = begin_collective(CollectiveKind::kBarrier, 0);
  // Dissemination barrier: log2(size) rounds, one tag each.
  int round = 0;
  for (int dist = 1; dist < size_; dist *= 2, ++round) {
    const int dst = (rank_ + dist) % size_;
    const int src = (rank_ - dist % size_ + size_) % size_;
    char token = 0;
    raw_send(*state_, rank_, dst, tag + round, &token, 1);
    raw_recv(*state_, rank_, src, tag + round, &token, 1);
  }
}

void Comm::bcast_bytes(void* data, std::size_t bytes, int root) {
  FS_REQUIRE(root >= 0 && root < vsize_, "bcast root out of range");
  FS_REQUIRE(bytes == 0 || data != nullptr, "null payload with nonzero size");
  const int tag = begin_collective(CollectiveKind::kBcast, bytes);
  // A collapsed bcast runs the same tree over the physical slots rooted at
  // the root's class slot: the virtual root's buffer *is* its
  // representative's, and every member of every class observes the data
  // its full-run counterpart would (all ranks receive the root's bytes).
  tree_bcast(data, bytes, root_slot(root), tag);
}

void Comm::reduce_sum(std::span<double> data, int root) {
  FS_REQUIRE(root >= 0 && root < vsize_, "reduce root out of range");
  const int tag = begin_collective(CollectiveKind::kReduce, data.size_bytes());
  if (!collapsed_) {
    tree_reduce(data, ReduceMode::kSum, root, tag);
    return;
  }
  const int rslot = root_slot(root);
  std::vector<double> blocks(data.size() * static_cast<std::size_t>(size_));
  gather_blocks(data.data(), data.size_bytes(), blocks.data(), rslot, tag);
  if (rank_ != rslot) return;
  const RankSymmetry& sym = *state_->collapse;
  std::fill(data.begin(), data.end(), 0.0);
  for (int c = 0; c < size_; ++c) {
    fold(data, blocks.data() + static_cast<std::size_t>(c) * data.size(),
         ReduceMode::kSum, static_cast<double>(sym.weight(c)));
  }
}

void Comm::allreduce(std::span<double> data, ReduceMode mode) {
  const int tag =
      begin_collective(CollectiveKind::kAllreduce, data.size_bytes());
  if (!collapsed_) {
    // Reduce to rank 0 over a binomial tree, then broadcast the result.
    tree_reduce(data, mode, 0, tag);
    tree_bcast(data.data(), data.size_bytes(), 0, tag + 1);
    return;
  }
  const RankSymmetry& sym = *state_->collapse;
  const std::size_t n = data.size();
  std::vector<double> blocks(n * static_cast<std::size_t>(size_));
  class_blocks(data.data(), data.size_bytes(), blocks.data(), tag);
  // A weighted sum starts from class 0's block times its weight.
  std::copy_n(blocks.begin(), n, data.begin());
  if (mode == ReduceMode::kSum) {
    const double w0 = static_cast<double>(sym.weight(0));
    for (double& v : data) v *= w0;
  }
  for (int c = 1; c < size_; ++c) {
    fold(data, blocks.data() + static_cast<std::size_t>(c) * n, mode,
         static_cast<double>(sym.weight(c)));
  }
}

void Comm::allreduce_sum(std::span<double> data) {
  allreduce(data, ReduceMode::kSum);
}

double Comm::allreduce_sum(double value) {
  allreduce(std::span<double>(&value, 1), ReduceMode::kSum);
  return value;
}

double Comm::allreduce_max(double value) {
  allreduce(std::span<double>(&value, 1), ReduceMode::kMax);
  return value;
}

double Comm::allreduce_min(double value) {
  allreduce(std::span<double>(&value, 1), ReduceMode::kMin);
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
  const int tag = begin_collective(CollectiveKind::kGather, bytes);
  const int rslot = root_slot(root);
  FS_REQUIRE(rank_ != rslot || recv != nullptr || bytes == 0,
             "gather root needs a buffer");
  if (!collapsed_) {
    gather_blocks(send, bytes, recv, root, tag);
    return;
  }
  // One block per class at the root's slot, expanded over the virtual ranks.
  std::vector<std::byte> blocks(static_cast<std::size_t>(size_) * bytes);
  gather_blocks(send, bytes, blocks.data(), rslot, tag);
  if (rank_ == rslot) {
    expand_classes(*state_->collapse, blocks.data(), bytes, recv);
  }
}

void Comm::allgather_bytes(const void* send, std::size_t bytes, void* recv) {
  const int tag = begin_collective(CollectiveKind::kAllgather, bytes);
  if (collapsed_) {
    std::vector<std::byte> blocks(static_cast<std::size_t>(size_) * bytes);
    class_blocks(send, bytes, blocks.data(), tag);
    expand_classes(*state_->collapse, blocks.data(), bytes, recv);
    return;
  }
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
    raw_send_buf(*state_, rank_, next, tag, std::move(circulating));
    Message m = raw_recv_msg(*state_, rank_, prev, tag, bytes);
    const int incoming = (rank_ - 1 - round + 2 * size_) % size_;
    m.payload.copy_to(out + static_cast<std::size_t>(incoming) * bytes);
    circulating = std::move(m.payload);
  }
}

void Comm::alltoall_bytes(const void* send, std::size_t bytes, void* recv) {
  const int tag = begin_collective(CollectiveKind::kAlltoall, bytes);
  if (!collapsed_) {
    exchange_addressed(send, bytes, recv, tag);
    return;
  }
  std::vector<std::byte> blocks(static_cast<std::size_t>(size_) * bytes);
  exchange_addressed(send, bytes, blocks.data(), tag);
  expand_classes(*state_->collapse, blocks.data(), bytes, recv);
}

void Comm::reduce_scatter_sum(std::span<const double> send,
                              std::span<double> recv) {
  const std::size_t block = recv.size();
  FS_REQUIRE(send.size() == block * static_cast<std::size_t>(vsize_),
             "reduce_scatter send buffer must hold size() blocks");
  const int tag =
      begin_collective(CollectiveKind::kReduceScatter, send.size_bytes());
  if (collapsed_) {
    // Each class's slice addressed to this slot's representative, folded in
    // class order with the class weights.
    const RankSymmetry& sym = *state_->collapse;
    std::vector<double> slices(block * static_cast<std::size_t>(size_));
    exchange_addressed(send.data(), recv.size_bytes(), slices.data(), tag);
    std::fill(recv.begin(), recv.end(), 0.0);
    for (int c = 0; c < size_; ++c) {
      fold(recv, slices.data() + static_cast<std::size_t>(c) * block,
           ReduceMode::kSum, static_cast<double>(sym.weight(c)));
    }
    return;
  }
  // Reduce the whole vector to rank 0 over a binomial tree, then scatter the
  // blocks directly under tag + 1 (simple and adequate at suite scale).
  std::vector<double> acc(send.begin(), send.end());
  tree_reduce(acc, ReduceMode::kSum, 0, tag);
  if (rank_ == 0) {
    std::copy_n(acc.data(), block, recv.data());
    for (int r = 1; r < size_; ++r) {
      raw_send(*state_, rank_, r, tag + 1,
               acc.data() + static_cast<std::size_t>(r) * block,
               recv.size_bytes());
    }
  } else {
    raw_recv(*state_, rank_, 0, tag + 1, recv.data(), recv.size_bytes());
  }
}

double Comm::scan_sum(double value) {
  const int tag = begin_collective(CollectiveKind::kScan, sizeof(double));
  if (collapsed_) {
    // This slot's representative's inclusive prefix: the members of class c
    // with rank id at most rank() each contribute class c's value.
    const RankSymmetry& sym = *state_->collapse;
    std::vector<double> vals(static_cast<std::size_t>(size_));
    class_blocks(&value, sizeof(double), vals.data(), tag);
    double acc = 0.0;
    for (int c = 0; c < size_; ++c) {
      acc += vals[static_cast<std::size_t>(c)] *
             static_cast<double>(sym.members_at_most(c, vrank_));
    }
    return acc;
  }
  // Linear chain: receive the prefix from rank - 1, pass it on to rank + 1.
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

}  // namespace fibersim::mp
