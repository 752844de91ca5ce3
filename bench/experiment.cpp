// experiment — regenerate one registered table, figure, ablation or
// extension in the framed bench style:
//
//   experiment <id> [--dataset small|large] [--apps a,b] [--iterations N]
//              [--seed N] [--jobs N] [--format text|csv|json] [--csv]
//              [--list] [resilience and --trace-cache flags]
//   experiment --list
//
// The flags are core::report_keys() through core::parse_report_flags,
// shared with `fibersim report` and the serve `report` verb.
// Unlike `fibersim report`, the output is framed and carries the
// supplementary sections, the dataset defaults to the experiment's
// registered bench default (T3 honours --dataset; the CLI pins it to
// small), and --jobs defaults to 1 so timing comparisons against the serial
// engine stay trivial. The output is byte-identical for any job count.
#include <iostream>
#include <string>
#include <vector>

#include "common/report_emit.hpp"
#include "core/experiment_registry.hpp"
#include "core/report_flags.hpp"
#include "core/runner.hpp"
#include "fault/fault.hpp"

int main(int argc, char** argv) {
  using namespace fibersim;
  const core::ExperimentRegistry& registry =
      core::ExperimentRegistry::instance();
  const std::string id = argc > 1 ? argv[1] : "";
  if (id == "--list") {
    core::print_experiment_list(std::cout);
    return 0;
  }
  const core::Experiment* entry = registry.find(id);
  if (entry == nullptr) {
    std::cerr << "usage: experiment <id> [flags]; unknown id '" << id
              << "', one of:\n";
    core::print_experiment_list(std::cerr);
    return 2;
  }
  try {
    // Environment fault plan applies first; --fault-plan overrides it.
    fault::install_from_env();
    core::Runner runner;
    core::ReportFlags flags;
    flags.ctx.runner = &runner;
    flags.ctx.dataset = entry->default_dataset;
    flags.ctx.supplements = true;  // the full figure set
    const std::vector<std::string> args(argv + 2, argv + argc);
    const std::string problem = core::parse_report_flags(args, flags);
    if (!problem.empty()) {
      std::cerr << problem << "\n";
      return 2;
    }
    if (flags.list) {
      core::print_experiment_list(std::cout);
      return 0;
    }
    core::attach_trace_store(runner, flags.trace_cache_dir);
    EmitOptions opts;
    opts.format = flags.format;
    opts.framed = true;
    emit_report(registry.build(entry->id, flags.ctx), opts, std::cout);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
