// Buffer — an immutable, refcounted byte payload for the message runtime.
//
// A message payload is written exactly once, at the send site, and never
// mutated afterwards — so fan-out patterns (binomial bcast, the broadcast
// half of allreduce, ring-allgather forwarding, fault-injected duplication)
// can hand the *same* allocation to every destination instead of re-copying
// it per hop. Copying a Buffer bumps a refcount; the bytes are freed when the
// last holder drops them. The backing store is default-initialised (no
// zero-fill before the memcpy that a std::vector resize would pay).
#pragma once

#include <cstddef>
#include <cstring>
#include <memory>

namespace fibersim::mp {

class Buffer {
 public:
  /// Empty payload (size 0, no allocation).
  Buffer() = default;

  /// One allocation, written once by `fill(std::byte* out)`, which must
  /// write all `bytes` bytes (it is not called for an empty payload). The
  /// only place payload bytes are written: a sender can pack straight into
  /// the payload instead of staging a copy.
  template <typename Fill>
  static Buffer build(std::size_t bytes, Fill&& fill) {
    Buffer buf;
    buf.size_ = bytes;
    if (bytes > 0) {
      std::shared_ptr<std::byte[]> block(new std::byte[bytes]);
      fill(block.get());
      buf.data_ = std::move(block);
    }
    return buf;
  }

  /// One allocation + one memcpy.
  static Buffer copy_of(const void* data, std::size_t bytes) {
    return build(bytes,
                 [&](std::byte* out) { std::memcpy(out, data, bytes); });
  }

  const std::byte* data() const { return data_.get(); }
  std::size_t size() const { return size_; }

  /// Copy the payload into caller memory (receive side).
  void copy_to(void* out) const {
    if (size_ > 0) std::memcpy(out, data_.get(), size_);
  }

 private:
  std::shared_ptr<const std::byte[]> data_;
  std::size_t size_ = 0;
};

}  // namespace fibersim::mp
