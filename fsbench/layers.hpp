// Per-layer accounting for the traced benchmark build.
//
// The traced binary (fsbench_traced) is linked with `--wrap=<symbol>` for
// every layer entry point named in layers.cpp, so each call the program makes
// into native execution, canonicalization, collapse, the trace store,
// prediction, codegen, stage-1 evaluation, placement replay, torus
// contention, the Runner and report/payload rendering passes through a
// timing wrapper defined in this benchmark. The program itself carries no
// instrumentation; the untraced binary (fsbench) links the same objects
// without the wrap flags, so its wrappers are never called.
//
// Spans are counted only while enable(true) is in effect (one relaxed load
// per call otherwise). Work-layer spans that start at nesting depth 0 on
// their thread add to top_level_s, which the driver divides by pass wall time
// (layers.coverage).
#pragma once

#include <cstdint>
#include <vector>

namespace fsbench::layers {

/// True in the traced build (the wrappers are linked in).
bool linked();

void enable(bool on);
/// Zero every counter and drop recorded durations.
void reset();

struct Snapshot {
  std::uint64_t native_runs = 0;
  double native_s = 0.0;
  std::vector<double> native_run_ms;
  std::uint64_t native_os_threads = 0;

  std::uint64_t canon_calls = 0;
  double canon_s = 0.0;
  std::uint64_t canon_classes = 0;      ///< sum of class_count()
  std::uint64_t canon_rank_phases = 0;  ///< sum of ranks x phases

  std::uint64_t collapse_classes = 0;       ///< RankSymmetry::build results
  std::uint64_t collapse_native_ranks = 0;  ///< slots run by run_collapsed
  double collapse_s = 0.0;

  std::uint64_t store_publish_calls = 0;
  double store_publish_s = 0.0;
  std::uint64_t store_bytes_written = 0;
  std::uint64_t store_load_calls = 0;
  std::uint64_t store_load_hits = 0;
  double store_load_s = 0.0;

  std::uint64_t predict_calls = 0;
  double predict_s = 0.0;
  std::vector<double> predict_us;

  double codegen_s = 0.0;
  double exec_s = 0.0;
  std::uint64_t replay_thread_refs = 0;
  double replay_s = 0.0;

  double contention_s = 0.0;
  std::uint64_t torus_pairs_routed = 0;
  std::uint64_t torus_max_link_load = 0;

  std::uint64_t runner_calls = 0;
  std::uint64_t runner_retries = 0;
  std::uint64_t tier_memo = 0;
  std::uint64_t tier_disk = 0;
  std::uint64_t tier_native = 0;

  std::uint64_t render_calls = 0;
  std::uint64_t render_bytes = 0;
  double render_s = 0.0;
  double payload_s = 0.0;

  /// Busy time of work-layer spans not nested in another work-layer span.
  double top_level_s = 0.0;
};

Snapshot snapshot();

}  // namespace fsbench::layers
