// CanonicalTrace — a JobTrace compacted into per-phase equivalence classes.
//
// SPMD miniapps record near-identical phase work on every rank, so a raw
// JobTrace is massively redundant: a 48-rank FFVC trace usually holds one or
// two *distinct* PhaseRecord values per phase. Canonicalization happens once,
// when a trace enters the Runner cache:
//
//   * the rank/phase agreement contract (same phase count, same phase-name
//     sequence on every rank) is validated here, so sweep evaluations stop
//     re-running O(ranks x phases) string compares per config;
//   * ranks whose PhaseRecords are value-identical (work bits, communication
//     log, flags) are grouped into equivalence classes with multiplicities;
//   * every class carries a stable content hash of its work record, which
//     keys the stage-1 prediction memo downstream.
//
// A CanonicalTrace is immutable after build() and holds everything
// predict_job needs; prediction cost then scales with the number of distinct
// classes, not with ranks x threads (see DESIGN.md "Canonical traces and
// prediction memoization").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/recorder.hpp"

namespace fibersim::trace {

/// Value-equality of two phase records: name, flags, entry count, bitwise
/// work fields and the full communication log.
bool records_equal(const PhaseRecord& a, const PhaseRecord& b);

/// Content hash agreeing with records_equal (equal records hash equally).
std::uint64_t record_hash(const PhaseRecord& rec);

class CanonicalTrace {
 public:
  /// Default state is an empty trace (0 ranks, no phases); build() returns
  /// the populated, immutable form.
  CanonicalTrace() = default;

  /// One equivalence class: every rank in `ranks` recorded a PhaseRecord
  /// value-identical to `record`.
  struct Class {
    PhaseRecord record;      ///< representative (shared by all members)
    std::vector<int> ranks;  ///< member ranks, ascending
    std::uint64_t work_hash = 0;  ///< content hash of record.work
  };

  struct Phase {
    // Phase-level flags come from rank 0, exactly as the naive predictor
    // reads them (trace.front()[p]).
    std::string name;
    bool parallel = true;
    bool timed = true;
    std::uint64_t entries = 0;
    std::vector<Class> classes;  ///< ordered by lowest member rank
    std::vector<int> class_of;   ///< rank -> index into classes
  };

  /// Canonicalize a recorded trace. Validates the SPMD agreement contract
  /// (non-empty trace, equal phase counts, equal phase-name sequences) and
  /// throws fibersim::Error on violation — the same errors predict_job would
  /// have raised, just once per trace instead of once per sweep point.
  static CanonicalTrace build(const JobTrace& trace);

  int ranks() const { return ranks_; }
  std::size_t phase_count() const { return phases_.size(); }
  const std::vector<Phase>& phases() const { return phases_; }

  /// Total classes across phases (== phase_count() * ranks() on a trace with
  /// no rank agreement at all; == phase_count() on a perfectly SPMD one).
  std::size_t class_count() const;

  /// Content hash of the whole canonical trace (phases, classes, members).
  std::uint64_t fingerprint() const { return fingerprint_; }

  /// Reconstruct the raw per-rank trace this canonical form was built from.
  /// Exact inverse of build(): class membership demands bitwise-identical
  /// records, so expand(build(t)) == t bit for bit. The persistent trace
  /// store serialises the compact canonical form and re-expands on load.
  JobTrace expand() const;

 private:
  int ranks_ = 0;
  std::vector<Phase> phases_;
  std::uint64_t fingerprint_ = 0;
};

}  // namespace fibersim::trace
