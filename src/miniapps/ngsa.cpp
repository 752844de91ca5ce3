#include "miniapps/ngsa.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace fibersim::apps {

namespace {

struct Params {
  int reference_len;  ///< global reference (replicated on every rank)
  int read_len;
  int reads_total;    ///< global read count, distributed over ranks
  int band;           ///< Smith-Waterman band half-width
  int kmer;           ///< k-mer length for the histogram pass
};

Params params_for(Dataset dataset) {
  if (dataset == Dataset::kSmall) return {4096, 64, 96, 15, 8};
  return {16384, 96, 192, 23, 11};
}

constexpr int kMatch = 2;
constexpr int kMismatch = -1;
constexpr int kGap = -2;

/// Banded Smith-Waterman score of `read` against `ref`, O(len * band).
/// Shared by the kernel and the verification re-check.
int banded_sw(const std::vector<std::uint8_t>& ref, int ref_begin, int ref_len,
              const std::vector<std::uint8_t>& read, int band,
              std::vector<int>& h_prev, std::vector<int>& h_curr) {
  const int m = static_cast<int>(read.size());
  const int width = 2 * band + 1;
  h_prev.assign(static_cast<std::size_t>(width), 0);
  h_curr.assign(static_cast<std::size_t>(width), 0);
  int best = 0;
  for (int i = 1; i <= m; ++i) {
    // Column j ranges over the band around the main diagonal: j = i + d,
    // d in [-band, band]; h_curr[d+band] is H(i, i+d).
    for (int d = -band; d <= band; ++d) {
      const int j = i + d;
      int score = 0;
      if (j >= 1 && j <= ref_len) {
        const bool match =
            read[static_cast<std::size_t>(i - 1)] ==
            ref[static_cast<std::size_t>(ref_begin + j - 1)];
        const int diag = h_prev[static_cast<std::size_t>(d + band)] +
                         (match ? kMatch : kMismatch);
        const int up = (d + 1 <= band)
                           ? h_prev[static_cast<std::size_t>(d + 1 + band)] + kGap
                           : 0;
        const int left = (d - 1 >= -band)
                             ? h_curr[static_cast<std::size_t>(d - 1 + band)] + kGap
                             : 0;
        score = std::max({0, diag, up, left});
      }
      h_curr[static_cast<std::size_t>(d + band)] = score;
      best = std::max(best, score);
    }
    std::swap(h_prev, h_curr);
  }
  return best;
}

class NgsaMini final : public Miniapp {
 public:
  std::string name() const override { return "ngsa"; }
  std::string description() const override {
    return "banded Smith-Waterman + k-mer histogram (NGS Analyzer kernel)";
  }

  mp::CollapseSpec collapse_spec(Dataset dataset,
                                 int weak_scale) const override {
    const Params prm = params_for(dataset);
    mp::CollapseSpec spec;
    spec.kind = mp::CollapseSpec::Kind::kCounts;
    // Reads are distributed cyclically; the k-mer histogram pass slices the
    // reference proportionally. Both must match for two ranks to collapse.
    spec.cyclic_total =
        static_cast<std::int64_t>(prm.reads_total) * weak_scale;
    spec.slice_total = prm.reference_len;
    return spec;
  }

  RunResult run(const RunContext& ctx) const override {
    validate_context(ctx);
    Params prm = params_for(ctx.dataset);
    prm.reads_total *= ctx.weak_scale;
    trace::Recorder& rec = *ctx.recorder;

    // The reference is global (seed-only), replicated on every rank; reads
    // are global too, cyclically distributed so total work is independent of
    // the rank count (strong scaling over the MPI x OMP axis).
    const int ranks = ctx.comm->size();
    const int rank = ctx.comm->rank();
    FS_REQUIRE(prm.reads_total >= ranks,
               "ngsa needs at least one read per rank");
    std::vector<std::uint8_t> ref(static_cast<std::size_t>(prm.reference_len));
    std::vector<std::vector<std::uint8_t>> reads;
    {
      trace::Recorder::Scoped phase(rec, "init", /*parallel=*/false, /*timed=*/false);
      Xoshiro256 ref_rng(ctx.seed, 90001);
      for (auto& base : ref) {
        base = static_cast<std::uint8_t>(ref_rng.bounded(4));
      }
      for (int g = rank; g < prm.reads_total; g += ranks) {
        // Plant read g inside the reference with a few mutations so best
        // scores are non-trivial; derived from the global read id only.
        Xoshiro256 rng(ctx.seed, 90100 + static_cast<std::uint64_t>(g));
        std::vector<std::uint8_t> read(static_cast<std::size_t>(prm.read_len));
        const auto pos = rng.bounded(static_cast<std::uint64_t>(
            prm.reference_len - prm.read_len));
        for (int i = 0; i < prm.read_len; ++i) {
          read[static_cast<std::size_t>(i)] =
              ref[static_cast<std::size_t>(pos) + static_cast<std::size_t>(i)];
          if (rng.uniform() < 0.05) {
            read[static_cast<std::size_t>(i)] =
                static_cast<std::uint8_t>(rng.bounded(4));
          }
        }
        reads.push_back(std::move(read));
      }
      rec.add_work(init_work(prm, static_cast<int>(reads.size())));
    }
    // This rank's slice of the reference for the k-mer pass.
    const int slice_begin =
        static_cast<int>(static_cast<std::int64_t>(prm.reference_len) * rank /
                         ranks);
    const int slice_end =
        static_cast<int>(static_cast<std::int64_t>(prm.reference_len) *
                         (rank + 1) / ranks);

    std::vector<int> best_scores(reads.size(), 0);
    std::uint64_t hist_checksum = 0;

    for (int outer = 0; outer < ctx.iterations; ++outer) {
      // --- alignment pass ---
      {
        trace::Recorder::Scoped phase(rec, "align");
        ctx.team->parallel_for(
            0, static_cast<std::int64_t>(reads.size()),
            rt::Schedule::kDynamic, 1,
            [&](std::int64_t lo, std::int64_t hi, int /*tid*/) {
              std::vector<int> h_prev, h_curr;
              for (std::int64_t r = lo; r < hi; ++r) {
                // Slide the band anchor across a window of the reference.
                int best = 0;
                for (int anchor = 0;
                     anchor + prm.read_len + prm.band <= prm.reference_len;
                     anchor += prm.reference_len / 4) {
                  best = std::max(
                      best, banded_sw(ref, anchor, prm.read_len + prm.band,
                                      reads[static_cast<std::size_t>(r)],
                                      prm.band, h_prev, h_curr));
                }
                best_scores[static_cast<std::size_t>(r)] = best;
              }
            });
        rec.add_work(align_work(prm, static_cast<int>(reads.size())));
      }
      // --- k-mer histogram pass ---
      {
        trace::Recorder::Scoped phase(rec, "kmer");
        hist_checksum = detail::kmer_checksum(ref, slice_begin, slice_end,
                                              prm.kmer);
        rec.add_work(kmer_work(prm, slice_end - slice_begin));
      }
      // Cross-rank aggregation of the pass results.
      {
        trace::Recorder::Scoped phase(rec, "aggregate");
        std::uint64_t local_sum = hist_checksum;
        for (int b : best_scores) local_sum += static_cast<std::uint64_t>(b);
        (void)ctx.comm->allreduce_sum_u64(local_sum);
      }
    }

    // Verify: re-align read 0 with a fresh scratch state; the threaded pass
    // must have produced the identical score, and every planted read must
    // have found a decent alignment.
    std::vector<int> scratch_a, scratch_b;
    int check = 0;
    for (int anchor = 0; anchor + prm.read_len + prm.band <= prm.reference_len;
         anchor += prm.reference_len / 4) {
      check = std::max(check, banded_sw(ref, anchor, prm.read_len + prm.band,
                                        reads[0], prm.band, scratch_a,
                                        scratch_b));
    }
    const int min_score = *std::min_element(best_scores.begin(),
                                            best_scores.end());
    RunResult result;
    result.check_value = static_cast<double>(check);
    result.check_description = "re-aligned read-0 score (threaded == serial)";
    result.verified = (check == best_scores[0]) && min_score > 0;
    return result;
  }

 private:
  static isa::WorkEstimate init_work(const Params& prm, int my_reads) {
    isa::WorkEstimate w;
    const double n = prm.reference_len +
                     static_cast<double>(my_reads) * prm.read_len;
    w.int_ops = n * 8.0;
    w.store_bytes = n;
    w.iterations = n;
    w.branches = n * 0.5;
    w.branch_miss_rate = 0.05;
    w.dep_chain_ops = 1.0;  // RNG recurrence
    w.working_set_bytes = n;
    return w;
  }

  static isa::WorkEstimate align_work(const Params& prm, int my_reads) {
    isa::WorkEstimate w;
    const int anchors = 4;  // anchor stride = len/4
    const double cells = static_cast<double>(my_reads) * anchors *
                         prm.read_len * (2.0 * prm.band + 1.0);
    w.int_ops = cells * 9.0;  // adds + 3 max ops + band bounds
    w.load_bytes = cells * 6.0;  // byte loads + int loads, mostly cached
    w.store_bytes = cells * 4.0;
    w.branches = cells * 3.0;
    w.branch_miss_rate = 0.18;  // data-dependent max selection
    w.iterations = cells;
    // Anti-diagonal vectorisation is algorithmically available but the as-is
    // row-wise code defeats auto-vectorisation: high branch density. This is
    // the T3 experiment's lever.
    w.vectorizable_fraction = 0.85;
    // H(i,j) depends on H(i,j-1) within the row plus the chained max
    // selection — the schedule the paper's swp option untangles.
    w.dep_chain_ops = 2.2;
    w.working_set_bytes = (2.0 * prm.band + 1.0) * 8.0 * 2.0 + prm.read_len;
    w.inner_trip_count = 2.0 * prm.band + 1.0;
    return w;
  }

  static isa::WorkEstimate kmer_work(const Params& prm, int slice_len) {
    isa::WorkEstimate w;
    const double n = slice_len;
    const double table_bytes =
        static_cast<double>(std::size_t{1} << std::min(2 * prm.kmer, 22)) * 4.0;
    w.int_ops = n * 7.0;  // shift, or, mask, multiply-hash, increment
    w.load_bytes = n * 5.0;   // base + histogram slot read
    w.store_bytes = n * 4.0;  // histogram slot write
    w.branches = n;
    w.branch_miss_rate = 0.02;
    w.iterations = n;
    w.vectorizable_fraction = 0.3;  // scatter increments serialise
    w.gather_fraction = 0.8;        // random histogram slots
    w.dep_chain_ops = 0.5;          // rolling code recurrence
    w.working_set_bytes = table_bytes;
    w.inner_trip_count = n;
    return w;
  }
};

}  // namespace

namespace detail {

std::uint64_t kmer_checksum(std::span<const std::uint8_t> ref, int begin,
                            int end, int kmer) {
  const std::uint64_t mask = (std::uint64_t{1} << std::min(2 * kmer, 22)) - 1;
  std::uint64_t code = 0;
  std::uint64_t checksum = 0;
  for (int i = begin; i < end; ++i) {
    code = ((code << 2) | ref[static_cast<std::size_t>(i)]) & mask;
    if (i - begin >= kmer - 1) {
      // Fibonacci hash picks the slot; its weight joins the checksum as the
      // increment would have joined the table.
      const std::uint64_t slot = (code * 0x9e3779b97f4a7c15ULL) & mask;
      checksum += slot % 251 + 1;
    }
  }
  return checksum;
}

}  // namespace detail

std::unique_ptr<Miniapp> make_ngsa() { return std::make_unique<NgsaMini>(); }

}  // namespace fibersim::apps
