// ExperimentConfig — one fully specified measurement point.
//
// The experiment framework's central type: which miniapp, which dataset, how
// many MPI ranks x OpenMP threads, how processes are allocated and threads
// bound, which compiler configuration, and which processor model evaluates
// the trace. Everything the paper varies is a field here.
#pragma once

#include <cstdint>
#include <string>

#include "cg/compile_options.hpp"
#include "machine/processor.hpp"
#include "miniapps/miniapp.hpp"
#include "topo/binding.hpp"

namespace fibersim::core {

struct ExperimentConfig {
  std::string app = "ffvc";
  apps::Dataset dataset = apps::Dataset::kSmall;
  int ranks = 4;
  int threads = 12;
  int nodes = 1;
  topo::RankAllocPolicy alloc = topo::RankAllocPolicy::kBlock;
  topo::ThreadBindPolicy bind = topo::ThreadBindPolicy::compact();
  /// Production flags (-Kfast class): enhanced SIMD + software pipelining.
  cg::CompileOptions compile = cg::CompileOptions::simd_sched();
  machine::ProcessorConfig processor = machine::a64fx();
  /// Anchor for the power model's frequency scaling (normal-mode clock).
  double nominal_freq_hz = 0.0;  ///< 0: use processor.freq_hz
  std::uint64_t seed = 42;
  int iterations = 3;
  /// Weak-scaling factor forwarded to the miniapp (see RunContext).
  int weak_scale = 1;
  /// Collapse structurally equivalent ranks at execution time: only one
  /// representative per symmetry class runs natively, the rest are
  /// replicated analytically (mp::RankSymmetry + trace::CollapsedTrace).
  /// Results are byte-identical to a full run; rank counts beyond the
  /// 4096-rank cap of a full native run (mp::Job) become feasible.
  bool collapse = false;

  std::string label() const;
  void validate() const;
};

}  // namespace fibersim::core
