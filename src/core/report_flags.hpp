// The report options shared by `fibersim report`, `bench/experiment` and
// the serve `report` verb: one key table, report_keys(), so sweep,
// resilience and cache options cannot drift between the three. Callers set
// front-end defaults (dataset, jobs, supplements) on ReportFlags::ctx
// before parsing; parsed flags override them.
#pragma once

#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/report_emit.hpp"
#include "core/config_parse.hpp"
#include "core/journal.hpp"
#include "core/reports.hpp"

namespace fibersim::core {

class Runner;
struct Experiment;

struct ReportFlags {
  /// ctx.runner is the caller's business; set it before building artifacts.
  ReportContext ctx;
  ReportFormat format = ReportFormat::kText;
  bool list = false;  ///< --list: print the experiment registry and exit
  std::string trace_cache_dir;
  /// Owns the --journal file handle; ctx.sweep.journal points at it.
  std::shared_ptr<SweepJournal> journal;
};

/// Every report option. The rows with process-wide effects (--fault-plan
/// installs a plan, --processor-dir loads descriptors into the registry,
/// --journal opens a file, --trace-cache picks a store, --watchdog dooms
/// blocked waits process-wide) and the rest the wire never carried
/// (--ranks, --threads, --retries and the switches) are command-line only.
std::span<const KeyRow<ReportFlags>> report_keys();

/// `fibersim report`'s starting point: the large dataset on every core.
ReportFlags report_defaults();

/// Parse `args` onto `flags` through report_keys(). Returns "" on success
/// or a one-line error message: numeric values go through the checked
/// flag_* parsers, so garbage and out-of-range magnitudes come back as the
/// error string. --fault-plan installs its plan at once, overriding any
/// env plan.
std::string parse_report_flags(const std::vector<std::string>& args,
                               ReportFlags& flags);

/// Print one experiment the way `fibersim report <id>` does: unframed, in
/// flags.format, built on `runner`, with T3 pinned to the small dataset
/// (the paper's compiler study only exists there; bench/experiment honours
/// --dataset). A serve `report` payload is exactly these bytes.
void write_report(const Experiment& entry, const ReportFlags& flags,
                  Runner& runner, std::ostream& out);

/// Attach the persistent trace store selected by --trace-cache (`dir`), or
/// — when empty — by FIBERSIM_TRACE_CACHE, to the runner.
void attach_trace_store(Runner& runner, const std::string& dir);

/// Print "id  title  [paper ref]" for every registered experiment.
void print_experiment_list(std::ostream& out);

}  // namespace fibersim::core
