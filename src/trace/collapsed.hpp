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
// the collapsed prediction path in trace/predict consumes send_view()
// without ever materialising the expansion, so the contract is testable at
// 64 ranks and exploitable at 10^6. Most members send their class's sends
// unchanged up to a shift of rank ids (the class send template); only
// members on the edge of a periodic grid remap, sort and merge their own.
#pragma once

#include <cstdint>
#include <span>
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

  /// One remapped point-to-point flow of a member (see send_view).
  struct RankSend {
    int dst = 0;
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
  };

  struct ClassRecord {
    PhaseRecord record;            ///< the representative's record, verbatim
    std::vector<ClassSend> sends;  ///< factorisation of record.comm.sends
    /// `sends` as rank offsets (dst holds dst - member), ascending with
    /// duplicates merged: a member none of whose steps wraps sends exactly
    /// this, shifted by its own rank.
    std::vector<RankSend> send_template;
    /// RankSymmetry::step_bit of every step in `sends`: the template holds
    /// for `member` iff edge_mask(member) & step_mask == 0.
    std::uint8_t step_mask = 0;
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

  /// Remapped (dst, messages, bytes) flows of `rank` in phase `p`: the
  /// sends are base + sends[i].dst, sorted ascending by dst with duplicates
  /// merged — the iteration order of the per-rank std::map a full run's
  /// record would hold. A member none of whose steps wraps reads its class
  /// template in place (base == rank); a member on the edge of a periodic
  /// grid has its sends remapped, sorted and merged into *scratch
  /// (base == 0).
  struct SendView {
    std::span<const RankSend> sends;
    int base = 0;
  };
  SendView send_view(std::size_t p, int rank,
                     std::vector<RankSend>* scratch) const;

  /// Full virtual-job trace (ranks x phases records are materialised).
  JobTrace expand() const;

  /// Content hash: symmetry partition + every class record.
  std::uint64_t fingerprint() const { return fingerprint_; }

 private:
  const ClassRecord& class_record(std::size_t p, int rank) const {
    return phases_[p]
        .classes[static_cast<std::size_t>(symmetry_.class_of(rank))];
  }
  bool templated(const ClassRecord& cls, int rank) const {
    return (symmetry_.edge_mask(rank) & cls.step_mask) == 0;
  }
  /// The sort-and-merge remap of a member whose steps may wrap.
  void remap_sends(const ClassRecord& cls, int rank,
                   std::vector<RankSend>* out) const;

  mp::RankSymmetry symmetry_;
  std::vector<Phase> phases_;
  std::uint64_t fingerprint_ = 0;
};

}  // namespace fibersim::trace
