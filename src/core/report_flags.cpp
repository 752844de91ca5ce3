#include "core/report_flags.hpp"

#include <algorithm>
#include <ostream>

#include "common/string_util.hpp"
#include "core/experiment_registry.hpp"
#include "core/runner.hpp"
#include "core/sweep_pool.hpp"
#include "fault/fault.hpp"
#include "machine/registry.hpp"
#include "trace/trace_store.hpp"

namespace fibersim::core {

namespace {

using enum KeyArity;
using enum KeyScope;

using RF = ReportFlags;
using RC = ReportContext;

constexpr KeyRow<RF> kReportKeys[] = {
    {"apps", [](RF& f, Label, Token t, KeySource) {
       return assign(f.ctx.app_names, split(t, ','));
     }},
    {"dataset", set_parsed<parse_dataset, &RF::ctx, &RC::dataset>},
    {"iterations", set_int<1, &RF::ctx, &RC::iterations>},
    {"seed", set_u64<&RF::ctx, &RC::seed>},
    {"jobs", set_int<1, &RF::ctx, &RC::jobs>},
    {"ranks", set_int<1, &RF::ctx, &RC::override_ranks>, kValue, kCommandLine},
    {"threads", set_int<1, &RF::ctx, &RC::override_threads>, kValue,
     kCommandLine},
    {"collapse_ranks", set_bool<&RF::ctx, &RC::collapse>, kBool},
    {"format", set_parsed<parse_report_format, &RF::format>},
    {"csv",
     [](RF& f, Label, Token, KeySource) {
       return assign(f.format, ReportFormat::kCsv);
     },
     kSwitch, kCommandLine},
    {"list", set_bool<&RF::list>, kSwitch, kCommandLine},
    {"fault_plan",
     [](RF&, Label, Token t, KeySource) {
       fault::install(fault::Plan::parse(t));
       return std::string();
     },
     kValue, kCommandLine},
    {"retries", set_int<0, &RF::ctx, &RC::sweep, &SweepControl::max_retries>,
     kValue, kCommandLine},
    {"watchdog",
     [](RF& f, Label l, Token t, KeySource) {
       return flag_f64(l, t, 0.0, &f.ctx.sweep.watchdog_s);
     },
     kValue, kCommandLine},
    {"journal",
     [](RF& f, Label, Token t, KeySource) {
       f.journal = std::make_shared<SweepJournal>(t);
       return assign(f.ctx.sweep.journal, f.journal.get());
     },
     kValue, kCommandLine},
    {"keep_going", set_bool<&RF::ctx, &RC::sweep, &SweepControl::keep_going>,
     kSwitch, kCommandLine},
    {"fail_fast",
     [](RF& f, Label, Token, KeySource) {
       return assign(f.ctx.sweep.keep_going, false);
     },
     kSwitch, kCommandLine},
    {"trace_cache", set_text<&RF::trace_cache_dir>, kValue, kCommandLine},
    {"processor_dir",
     [](RF&, Label, Token t, KeySource) {
       machine::ProcessorRegistry::instance().load_directory(t);
       return std::string();
     },
     kValue, kCommandLine},
};

}  // namespace

std::span<const KeyRow<ReportFlags>> report_keys() { return kReportKeys; }

ReportFlags report_defaults() {
  ReportFlags flags;
  flags.ctx.dataset = apps::Dataset::kLarge;
  flags.ctx.jobs = SweepPool::default_jobs();
  return flags;
}

std::string parse_report_flags(const std::vector<std::string>& args,
                               ReportFlags& flags) {
  return parse_flags(args, "report", KeyTable{report_keys(), flags});
}

void write_report(const Experiment& entry, const ReportFlags& flags,
                  Runner& runner, std::ostream& out) {
  ReportContext ctx = flags.ctx;
  ctx.runner = &runner;
  if (to_lower(entry.id) == "t3") ctx.dataset = apps::Dataset::kSmall;
  EmitOptions opts;
  opts.format = flags.format;
  opts.framed = false;
  emit_report(ExperimentRegistry::instance().build(entry.id, ctx), opts,
              out);
}

void attach_trace_store(Runner& runner, const std::string& dir) {
  if (!dir.empty()) {
    runner.set_trace_store(std::make_shared<trace::TraceStore>(dir));
  } else if (std::shared_ptr<trace::TraceStore> store =
                 trace::TraceStore::from_env()) {
    runner.set_trace_store(std::move(store));
  }
}

void print_experiment_list(std::ostream& out) {
  const auto& experiments = ExperimentRegistry::instance().experiments();
  std::size_t id_width = 0;
  std::size_t title_width = 0;
  for (const Experiment& e : experiments) {
    id_width = std::max(id_width, e.id.size());
    title_width = std::max(title_width, e.title.size());
  }
  for (const Experiment& e : experiments) {
    out << "  " << e.id << std::string(id_width - e.id.size() + 2, ' ')
        << e.title << std::string(title_width - e.title.size() + 2, ' ')
        << '[' << e.paper_ref << "]\n";
  }
}

}  // namespace fibersim::core
