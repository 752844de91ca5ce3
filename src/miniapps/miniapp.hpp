// Miniapp — the common contract of the eight Fiber miniapp kernels.
//
// A miniapp's run() is SPMD: the experiment runner invokes it once per rank
// (each on its own thread) with that rank's communicator, thread team and
// trace recorder. The implementation must:
//   * decompose the problem over ctx.comm->size() ranks deterministically,
//   * perform real arithmetic through ctx.team (threaded) and ctx.comm
//     (messages), wrapped in named recorder phases,
//   * deposit an honest isa::WorkEstimate for the work it executed,
//   * self-verify (residual decrease / conservation / checksum) and report
//     the outcome in RunResult.
//
// Dataset::kSmall is the paper's "as-is" small input; kLarge the scaled one.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "isa/work_estimate.hpp"
#include "mp/comm.hpp"
#include "mp/symmetry.hpp"
#include "rt/thread_team.hpp"
#include "trace/recorder.hpp"

namespace fibersim::apps {

enum class Dataset { kSmall, kLarge };
const char* dataset_name(Dataset dataset);

struct RunContext {
  mp::Comm* comm = nullptr;
  rt::ThreadTeam* team = nullptr;
  trace::Recorder* recorder = nullptr;
  Dataset dataset = Dataset::kSmall;
  std::uint64_t seed = 42;
  /// Outer (time-step / solver-restart) iterations; every app honours it so
  /// experiment cost scales predictably.
  int iterations = 4;
  /// Weak-scaling factor: every app multiplies its long problem dimension
  /// (or its population count) by this, making total work proportional to
  /// it. Used by the multi-node weak-scaling experiment (E2).
  int weak_scale = 1;
};

struct RunResult {
  bool verified = false;
  /// The quantity checked (rank-0 value): residual, energy drift, checksum...
  double check_value = 0.0;
  std::string check_description;
};

class Miniapp {
 public:
  virtual ~Miniapp() = default;
  /// Stable identifier used by the registry, benches and EXPERIMENTS.md.
  virtual std::string name() const = 0;
  virtual std::string description() const = 0;
  /// SPMD body; called concurrently on every rank. Must be re-entrant.
  virtual RunResult run(const RunContext& ctx) const = 0;
  /// The app's rank decomposition rule for the given input, so the runner
  /// can collapse structurally identical ranks. Must mirror exactly the
  /// decomposition run() executes (same extents_for/params_for values);
  /// the default declares none, which disables collapse for the app.
  virtual mp::CollapseSpec collapse_spec(Dataset dataset,
                                         int weak_scale) const {
    (void)dataset;
    (void)weak_scale;
    return {};
  }
};

/// Names of all registered miniapps, in the suite's canonical order.
std::vector<std::string> registry_names();

/// Is `name` a registered miniapp (exact spelling)?
bool is_registered(std::string_view name);

/// Instantiate by name; throws fibersim::Error for unknown names.
std::unique_ptr<Miniapp> create_miniapp(const std::string& name);

/// Validate a RunContext (non-null handles, sane iteration count).
void validate_context(const RunContext& ctx);

}  // namespace fibersim::apps
