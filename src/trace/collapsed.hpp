// CollapsedTrace — a whole job's trace reconstructed from one natively
// executed representative rank per symmetry class.
//
// mp::Job::run_collapsed executes only RankSymmetry::classes() physical
// slots; every other rank's PhaseRecord is replicated analytically here.
// Work, flags and collective logs replicate bitwise (they are structural,
// identical within a class); point-to-point sends are the one per-rank part:
// a representative's destination is factored into a (dim, dir) step on the
// cartesian grid, and a member's destination is that same step taken from
// its own coordinates. The byte-identity contract is that
// expand() equals the JobTrace a full run would record, bit for bit — and
// the collapsed prediction path in trace/predict consumes rank_sends()
// without ever materialising the expansion, so the contract is testable at
// 64 ranks and exploitable at 10^6.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mp/symmetry.hpp"
#include "trace/recorder.hpp"

namespace fibersim::trace {

class CollapsedTrace {
 public:
  /// One factored point-to-point flow of a class representative: every
  /// member sends `messages`/`bytes` to its own (dim, dir) grid neighbour.
  struct ClassSend {
    int dim = 0;
    int dir = 0;
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
  };

  struct ClassRecord {
    PhaseRecord record;            ///< the representative's record, verbatim
    std::vector<ClassSend> sends;  ///< factorisation of record.comm.sends
    std::uint64_t work_hash = 0;   ///< isa::work_hash(record.work)
  };

  struct Phase {
    std::string name;
    bool parallel = true;
    bool timed = true;
    std::uint64_t entries = 0;
    std::vector<ClassRecord> classes;  ///< index == symmetry class id
  };

  CollapsedTrace() = default;

  /// Build from the representative traces returned by Job::run_collapsed
  /// (index == class id). Throws fibersim::Error when the traces violate
  /// the SPMD agreement contract or a send cannot be factored on the grid
  /// (the caller then falls back to full simulation).
  static CollapsedTrace assemble(mp::RankSymmetry symmetry,
                                 const JobTrace& representative_traces);

  /// Virtual job size (the full rank count the app observed).
  int ranks() const { return symmetry_.size(); }
  /// Physical ranks actually executed (== symmetry().classes()).
  int native_ranks() const { return symmetry_.classes(); }
  const mp::RankSymmetry& symmetry() const { return symmetry_; }
  std::size_t phase_count() const { return phases_.size(); }
  const std::vector<Phase>& phases() const { return phases_; }

  /// The record virtual rank `rank` would have produced in phase `p` of a
  /// full run, bit for bit.
  PhaseRecord rank_record(std::size_t p, int rank) const;

  /// Remapped (dst, messages, bytes) flows of `rank` in phase `p`, sorted
  /// ascending by dst with duplicates merged — the iteration order of the
  /// per-rank std::map a full run's record would hold. Appends into `out`
  /// (cleared first) to let hot prediction loops reuse one allocation.
  struct RankSend {
    int dst = 0;
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
  };
  void rank_sends(std::size_t p, int rank, std::vector<RankSend>* out) const;

  /// Full virtual-job trace (ranks x phases records are materialised).
  JobTrace expand() const;

  /// Content hash: symmetry partition + every class record.
  std::uint64_t fingerprint() const { return fingerprint_; }

 private:
  mp::RankSymmetry symmetry_;
  std::vector<Phase> phases_;
  std::uint64_t fingerprint_ = 0;
};

}  // namespace fibersim::trace
