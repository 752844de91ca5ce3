// NGS Analyzer mini — genome-analysis kernel.
//
// Reproduces the NGSA workload character: banded Smith–Waterman alignment of
// short reads against a reference (integer arithmetic, data-dependent max
// branches, a diagonal recurrence) plus a k-mer counting pass (hash +
// scatter into a histogram — random memory access). Essentially no floating
// point: this is the miniapp where the A64FX "as-is" performance collapses
// on its weak scalar engine and recovers only once the compiler vectorises
// the integer loops with predication.
//
// The model charges the k-mer pass as a scatter over a 2^min(2k, 22)-slot
// histogram, but the host never builds that table: the only value the pass
// feeds forward is the slot-weighted checksum, and kmer_checksum() sums each
// increment's weight as it happens instead of scanning the filled table.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "miniapps/miniapp.hpp"

namespace fibersim::apps {

std::unique_ptr<Miniapp> make_ngsa();

namespace detail {

/// Checksum of the k-mer histogram over ref[begin, end): the sum over
/// histogram slots s of count(s) * (s % 251 + 1), where each k-mer (2 bits
/// per base) lands in slot fibonacci_hash(code) of a 2^min(2k, 22) table.
/// Computed without the table, one weight per k-mer.
std::uint64_t kmer_checksum(std::span<const std::uint8_t> ref, int begin,
                            int end, int kmer);

}  // namespace detail

}  // namespace fibersim::apps
