// The tests' one native recorder: runs a miniapp on mp::Job ranks with a
// trace::Recorder per rank, outside the Runner and its canonicalization. Its
// raw trace is the reference the cached and canonical forms must reproduce.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "miniapps/miniapp.hpp"
#include "mp/job.hpp"
#include "mp/symmetry.hpp"
#include "rt/thread_team.hpp"
#include "trace/canonical.hpp"
#include "trace/collapsed.hpp"
#include "trace/recorder.hpp"

namespace fibersim {

struct NativeRun {
  trace::JobTrace trace;
  std::vector<apps::RunResult> results;  ///< index == rank
};

/// Runs `app` as `comm`'s rank on a fresh thread team, recording into `rec`.
inline apps::RunResult run_rank(mp::Comm& comm, trace::Recorder& rec,
                                const std::string& app, int threads,
                                apps::Dataset dataset, int iterations,
                                std::uint64_t seed, int weak_scale = 1) {
  rt::ThreadTeam team(threads);
  apps::RunContext ctx{.comm = &comm, .team = &team, .recorder = &rec,
                       .dataset = dataset, .seed = seed,
                       .iterations = iterations, .weak_scale = weak_scale};
  return apps::create_miniapp(app)->run(ctx);
}

inline NativeRun record_native(const std::string& app, int ranks, int threads,
                               apps::Dataset dataset = apps::Dataset::kSmall,
                               int iterations = 1, std::uint64_t seed = 42,
                               int weak_scale = 1) {
  NativeRun out;
  out.trace.resize(static_cast<std::size_t>(ranks));
  out.results.resize(static_cast<std::size_t>(ranks));
  mp::Job::run(ranks, [&](mp::Comm& comm) {
    trace::Recorder rec(&comm);
    const auto rank = static_cast<std::size_t>(comm.rank());
    out.results[rank] = run_rank(comm, rec, app, threads, dataset, iterations,
                                 seed, weak_scale);
    out.trace[rank] = rec.phases();
  });
  return out;
}

/// `app` run rank-collapsed: one representative per class of its declared
/// rank symmetry, assembled into the virtual `ranks`-rank job.
inline trace::CollapsedTrace record_collapsed(
    const std::string& app, int ranks, int threads,
    apps::Dataset dataset = apps::Dataset::kSmall, int iterations = 1,
    std::uint64_t seed = 42) {
  const mp::CollapseSpec spec =
      apps::create_miniapp(app)->collapse_spec(dataset, /*weak_scale=*/1);
  EXPECT_TRUE(spec.collapsible()) << app << " declares no collapse spec";
  mp::RankSymmetry symmetry = mp::RankSymmetry::build(spec, ranks);
  trace::JobTrace reps(static_cast<std::size_t>(symmetry.classes()));
  mp::Job::run_collapsed(symmetry, [&](mp::Comm& comm) {
    trace::Recorder rec(&comm);
    (void)run_rank(comm, rec, app, threads, dataset, iterations, seed);
    reps[static_cast<std::size_t>(symmetry.class_of(comm.rank()))] =
        rec.phases();
  });
  return trace::CollapsedTrace::assemble(std::move(symmetry), reps);
}

/// Bitwise equality of two raw traces, rank by rank and phase by phase.
inline void expect_traces_identical(const trace::JobTrace& a,
                                    const trace::JobTrace& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t rank = 0; rank < a.size(); ++rank) {
    ASSERT_EQ(a[rank].size(), b[rank].size()) << "rank " << rank;
    for (std::size_t p = 0; p < a[rank].size(); ++p) {
      EXPECT_TRUE(trace::records_equal(a[rank][p], b[rank][p]))
          << "rank " << rank << " phase " << a[rank][p].name;
    }
  }
}

}  // namespace fibersim
