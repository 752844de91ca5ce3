#include "trace/collapsed.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/string_util.hpp"
#include "isa/work_estimate.hpp"
#include "trace/canonical.hpp"

namespace fibersim::trace {

namespace {

/// Sort flows ascending by dst and merge duplicate destinations (wrap-around
/// on tiny grid dimensions), matching the full run's per-rank std::map.
void sort_and_merge(std::vector<CollapsedTrace::RankSend>* sends) {
  using RankSend = CollapsedTrace::RankSend;
  std::sort(sends->begin(), sends->end(),
            [](const RankSend& a, const RankSend& b) { return a.dst < b.dst; });
  std::size_t w = 0;
  for (std::size_t i = 0; i < sends->size(); ++i) {
    if (w > 0 && (*sends)[w - 1].dst == (*sends)[i].dst) {
      (*sends)[w - 1].messages += (*sends)[i].messages;
      (*sends)[w - 1].bytes += (*sends)[i].bytes;
    } else {
      (*sends)[w++] = (*sends)[i];
    }
  }
  sends->resize(w);
}

}  // namespace

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
        cls.send_template.push_back(
            RankSend{out.symmetry_.step_offset(step->first, step->second),
                     traffic.messages, traffic.bytes});
        cls.step_mask |= mp::RankSymmetry::step_bit(step->first, step->second);
      }
      sort_and_merge(&cls.send_template);
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

void CollapsedTrace::remap_sends(const ClassRecord& cls, int rank,
                                 std::vector<RankSend>* out) const {
  out->clear();
  for (const ClassSend& s : cls.sends) {
    const int dst = symmetry_.neighbor_of(rank, s.dim, s.dir);
    FS_ASSERT(dst >= 0, "class member lost a neighbour its class has");
    out->push_back(RankSend{dst, s.messages, s.bytes});
  }
  sort_and_merge(out);
}

CollapsedTrace::SendView CollapsedTrace::send_view(
    std::size_t p, int rank, std::vector<RankSend>* scratch) const {
  const ClassRecord& cls = class_record(p, rank);
  if (templated(cls, rank)) return SendView{cls.send_template, rank};
  remap_sends(cls, rank, scratch);
  return SendView{*scratch, 0};
}

PhaseRecord CollapsedTrace::rank_record(std::size_t p, int rank) const {
  const ClassRecord& cls = class_record(p, rank);
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
