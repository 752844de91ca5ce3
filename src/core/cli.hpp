// CLI driver — the logic behind the `fibersim` command-line tool.
//
// Lives in the library (not in the tool's main.cpp) so the argument
// handling and every subcommand are unit-testable. Output goes to the
// provided streams; the exit code is returned, never exit()ed.
//
// Subcommands:
//   fibersim list                          apps, processors, report ids
//   fibersim describe <app>                one miniapp's character
//   fibersim run [--key value ...]         run one experiment
//   fibersim run --config <file>           run an experiment from a file
//   fibersim report <id> [--apps ...]      regenerate one table/figure
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "core/experiment.hpp"

namespace fibersim::core {

/// Entry point; argv[0] is the program name. Returns the process exit code
/// (0 success, 1 failed verification, 2 usage error).
int cli_main(const std::vector<std::string>& args, std::ostream& out,
             std::ostream& err);

/// Apply `fibersim run`'s flags (one --flag per config_keys() row, plus
/// --config <file>) onto `cfg`; the output flags (--json, --dump-trace,
/// --trace-cache) are accepted and ignored. The file loads first wherever
/// --config appears; the flags then apply in order, later ones winning. A
/// bare bool flag (--collapse-ranks) means on. Returns "" or a one-line
/// error.
std::string parse_run_flags(const std::vector<std::string>& args,
                            ExperimentConfig& cfg);

/// Every --flag the commands' key tables accept (run, report, tune, serve,
/// calibrate), in table order; usage() mentions each.
std::vector<std::string> cli_flags();

/// The report ids `fibersim report` accepts (T1, T2, F1, ..., E1).
std::vector<std::string> cli_report_ids();

}  // namespace fibersim::core
