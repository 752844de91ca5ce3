#include "trace/collapsed.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/string_util.hpp"
#include "isa/work_estimate.hpp"
#include "trace/canonical.hpp"

namespace fibersim::trace {

CollapsedTrace CollapsedTrace::assemble(mp::RankSymmetry symmetry,
                                        const JobTrace& representative_traces) {
  const int classes = symmetry.classes();
  FS_REQUIRE(static_cast<int>(representative_traces.size()) == classes,
             "collapsed assembly needs one trace per symmetry class");
  const RankTrace& first = representative_traces.front();
  FS_REQUIRE(!first.empty(), "representative trace recorded no phases");
  for (int c = 1; c < classes; ++c) {
    const RankTrace& t = representative_traces[static_cast<std::size_t>(c)];
    if (t.size() != first.size()) {
      throw Error(strfmt("class %d recorded %zu phases, class 0 recorded %zu",
                         c, t.size(), first.size()));
    }
    for (std::size_t p = 0; p < first.size(); ++p) {
      if (t[p].name != first[p].name) {
        throw Error(strfmt("phase %zu diverges across classes: \"%s\" vs "
                           "\"%s\"",
                           p, t[p].name.c_str(), first[p].name.c_str()));
      }
    }
  }
  const bool has_grid =
      symmetry.spec().kind == mp::CollapseSpec::Kind::kCart;

  CollapsedTrace out;
  out.symmetry_ = std::move(symmetry);
  out.phases_.resize(first.size());
  for (std::size_t p = 0; p < first.size(); ++p) {
    Phase& phase = out.phases_[p];
    // Phase-level flags come from class 0 — whose representative is rank 0,
    // exactly where the naive predictor and CanonicalTrace read them.
    phase.name = first[p].name;
    phase.parallel = first[p].parallel;
    phase.timed = first[p].timed;
    phase.entries = first[p].entries;
    phase.classes.resize(static_cast<std::size_t>(classes));
    for (int c = 0; c < classes; ++c) {
      ClassRecord& cls = phase.classes[static_cast<std::size_t>(c)];
      cls.record = representative_traces[static_cast<std::size_t>(c)][p];
      cls.work_hash = isa::work_hash(cls.record.work);
      for (const auto& [dst, traffic] : cls.record.comm.sends) {
        if (!has_grid) {
          throw Error(strfmt("phase \"%s\": point-to-point sends without a "
                             "cartesian decomposition cannot be collapsed",
                             phase.name.c_str()));
        }
        const auto step = out.symmetry_.factor_dst(c, dst);
        if (!step) {
          throw Error(strfmt("phase \"%s\": send %d -> %d is not a grid "
                             "neighbour step; cannot collapse",
                             phase.name.c_str(),
                             out.symmetry_.representative(c), dst));
        }
        cls.sends.push_back(ClassSend{step->first, step->second,
                                      traffic.messages, traffic.bytes});
      }
    }
  }

  Fnv1a h;
  h.u64(out.symmetry_.fingerprint());
  h.u64(out.phases_.size());
  for (const Phase& phase : out.phases_) {
    for (const ClassRecord& cls : phase.classes) {
      h.u64(record_hash(cls.record));
    }
  }
  out.fingerprint_ = h.value();
  return out;
}

void CollapsedTrace::rank_sends(std::size_t p, int rank,
                                std::vector<RankSend>* out) const {
  out->clear();
  const ClassRecord& cls =
      phases_[p].classes[static_cast<std::size_t>(symmetry_.class_of(rank))];
  for (const ClassSend& s : cls.sends) {
    const int dst = symmetry_.neighbor_of(rank, s.dim, s.dir);
    FS_ASSERT(dst >= 0, "class member lost a neighbour its class has");
    out->push_back(RankSend{dst, s.messages, s.bytes});
  }
  // Match the full run's per-rank std::map: ascending dst, duplicate
  // destinations (wrap-around on tiny grid dimensions) merged.
  std::sort(out->begin(), out->end(),
            [](const RankSend& a, const RankSend& b) { return a.dst < b.dst; });
  std::size_t w = 0;
  for (std::size_t i = 0; i < out->size(); ++i) {
    if (w > 0 && (*out)[w - 1].dst == (*out)[i].dst) {
      (*out)[w - 1].messages += (*out)[i].messages;
      (*out)[w - 1].bytes += (*out)[i].bytes;
    } else {
      (*out)[w++] = (*out)[i];
    }
  }
  out->resize(w);
}

PhaseRecord CollapsedTrace::rank_record(std::size_t p, int rank) const {
  const ClassRecord& cls =
      phases_[p].classes[static_cast<std::size_t>(symmetry_.class_of(rank))];
  PhaseRecord rec = cls.record;
  if (!cls.sends.empty()) {
    rec.comm.sends.clear();
    for (const ClassSend& s : cls.sends) {
      const int dst = symmetry_.neighbor_of(rank, s.dim, s.dir);
      FS_ASSERT(dst >= 0, "class member lost a neighbour its class has");
      mp::PeerTraffic& t = rec.comm.sends[dst];
      t.messages += s.messages;
      t.bytes += s.bytes;
    }
  }
  return rec;
}

JobTrace CollapsedTrace::expand() const {
  const int n = ranks();
  JobTrace trace(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    RankTrace& rt = trace[static_cast<std::size_t>(r)];
    rt.reserve(phases_.size());
    for (std::size_t p = 0; p < phases_.size(); ++p) {
      rt.push_back(rank_record(p, r));
    }
  }
  return trace;
}

}  // namespace fibersim::trace
