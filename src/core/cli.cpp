#include "core/cli.hpp"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/error.hpp"
#include "trace/serialize.hpp"
#include "common/string_util.hpp"
#include "core/config_parse.hpp"
#include "machine/calibrate.hpp"
#include "machine/descriptor.hpp"
#include "machine/registry.hpp"
#include "core/experiment_registry.hpp"
#include "core/report_flags.hpp"
#include "core/reports.hpp"
#include "core/runner.hpp"
#include "core/serve.hpp"
#include "core/supervise.hpp"
#include "core/sweep_pool.hpp"
#include "core/tuner.hpp"
#include "fault/fault.hpp"

namespace fibersim::core {

namespace {

using enum KeyArity;
using enum KeyScope;

/// `fibersim run`: its own output flags, then config_keys() onto `config`.
struct RunFlags {
  ExperimentConfig config;
  bool json = false;
  std::string dump_trace_path;
  std::string trace_cache_dir;
};

constexpr KeyRow<RunFlags> kRunKeys[] = {
    {"config",
     [](RunFlags& f, Label, Token t, KeySource) {
       return assign(f.config, load_experiment_config(t));
     },
     kValue, kCommandLine, true},
    {"json", set_bool<&RunFlags::json>, kSwitch},
    {"dump_trace", set_text<&RunFlags::dump_trace_path>},
    {"trace_cache", set_text<&RunFlags::trace_cache_dir>},
};

std::string parse_run(const std::vector<std::string>& args, RunFlags& flags) {
  return parse_flags(args, "run", KeyTable{kRunKeys, flags},
                     KeyTable{config_keys(), flags.config});
}

struct TuneFlags {
  TunerOptions options;
  ReportFormat format = ReportFormat::kText;
  std::string trace_cache_dir;
};

using TF = TuneFlags;
using TO = TunerOptions;

constexpr KeyRow<TF> kTuneKeys[] = {
    {"app", set_text<&TF::options, &TO::app>},
    {"dataset", set_parsed<parse_dataset, &TF::options, &TO::dataset>},
    {"iterations", set_int<1, &TF::options, &TO::iterations>},
    {"seed", set_u64<&TF::options, &TO::seed>},
    {"jobs", set_int<1, &TF::options, &TO::jobs>},
    {"processors", [](TF& f, Label, Token t, KeySource) {
       f.options.processors.clear();
       for (const std::string& name : split(t, ',')) {
         f.options.processors.push_back(parse_processor(name));
       }
       return std::string();
     }},
    {"presets", [](TF& f, Label, Token t, KeySource) {
       const std::string v = to_lower(trim(t));
       if (v == "full") return assign(f.options.presets, cg::search_presets());
       if (v == "ladder") {
         return assign(f.options.presets, cg::tuning_ladder());
       }
       return "unknown --presets value: " + t + " (expected full | ladder)";
     }},
    {"combos", [](TF& f, Label, Token t, KeySource) {
       const std::string v = to_lower(trim(t));
       if (v == "full") return assign(f.options.full_mpi_omp, true);
       if (v == "representative") {
         return assign(f.options.full_mpi_omp, false);
       }
       return "unknown --combos value: " + t +
              " (expected full | representative)";
     }},
    {"collapse_ranks", set_bool<&TF::options, &TO::collapse>, kBool},
    {"format", set_parsed<parse_report_format, &TF::format>},
    {"trace_cache", set_text<&TF::trace_cache_dir>},
};

struct ServeFlags {
  ServeOptions serve;
  SuperviseOptions supervisor;
  bool supervise = false;
};

using SF = ServeFlags;
using SO = ServeOptions;

constexpr KeyRow<SF> kServeKeys[] = {
    {"socket", set_text<&SF::serve, &SO::socket_path>},
    {"workers", set_int<1, &SF::serve, &SO::workers>},
    {"queue", set_int<1, &SF::serve, &SO::queue_capacity>},
    {"trace_cache", set_text<&SF::serve, &SO::trace_cache_dir>},
    {"journal", set_text<&SF::serve, &SO::journal_path>},
    {"supervise", set_bool<&SF::supervise>, kSwitch},
    {"breaker_failures", set_int<1, &SF::serve, &SO::circuit,
                                 &CircuitOptions::failure_threshold>},
    {"breaker_window",
     set_int<1, &SF::serve, &SO::circuit, &CircuitOptions::window>},
    {"breaker_open_ms", [](SF& f, Label l, Token t, KeySource) {
       int ms = 0;
       const std::string problem = flag_int(l, t, 1, &ms);
       f.serve.circuit.open_ms = ms;
       return problem;
     }},
    {"max_restarts",
     set_int<0, &SF::supervisor, &SuperviseOptions::max_restarts>},
    {"restart_backoff_ms", [](SF& f, Label l, Token t, KeySource) {
       int ms = 0;
       const std::string problem = flag_int(l, t, 1, &ms);
       f.supervisor.initial_backoff_ms = ms;
       f.supervisor.max_backoff_ms = std::max(f.supervisor.max_backoff_ms,
                                              f.supervisor.initial_backoff_ms);
       return problem;
     }},
};

struct CalibrateFlags {
  machine::CalibrationOptions options;
  std::string out_path;
  std::string measurements_out;  ///< --measurements: save the raw results
  std::string measurements_in;   ///< --from-measurements: refit these
};

using CF = CalibrateFlags;
using CO = machine::CalibrationOptions;

constexpr KeyRow<CF> kCalibrateKeys[] = {
    {"out", set_text<&CF::out_path>},
    {"name", set_text<&CF::options, &CO::name>},
    {"seed", set_u64<&CF::options, &CO::seed>},
    {"trials", set_int<1, &CF::options, &CO::trials>},
    {"quick", set_bool<&CF::options, &CO::quick>, kSwitch},
    {"measurements", set_text<&CF::measurements_out>},
    {"from_measurements", set_text<&CF::measurements_in>},
};

/// Print a command line's parse problem, if any; true when there was one.
bool failed(const std::string& problem, std::ostream& err) {
  if (problem.empty()) return false;
  err << problem << "\n";
  return true;
}

constexpr const char* kUsageHead =
    "usage: fibersim <command> [options]\n"
    "\n"
    "commands:\n"
    "  list                      apps, processors and report ids\n"
    "  describe <app|processor>  one miniapp's description, or a registered\n"
    "                            processor dumped as a canonical descriptor\n"
    "                            (round-trips bit-exactly through --processor)\n"
    "  run [--key value ...]     run one experiment; keys are the config-\n"
    "                            file keys with '_' written '-':\n";

/// Follows run's key list.
constexpr const char* kUsageTail =
    "                            --processor also takes a descriptor .json\n"
    "                            path, loaded and registered on first use;\n"
    "                            --collapse-ranks [on|off] executes one\n"
    "                            representative rank per symmetry class and\n"
    "                            replicates the rest analytically (byte-\n"
    "                            identical results, feasible to 10^6 ranks)\n"
    "                            (--config <file> loads key=value settings\n"
    "                            first, wherever it appears; flags override;\n"
    "                            --json emits the prediction as JSON;\n"
    "                            --dump-trace <file> writes the recorded\n"
    "                            trace as JSON; --trace-cache <dir> reuses\n"
    "                            native runs from a persistent trace store,\n"
    "                            also read from env FIBERSIM_TRACE_CACHE)\n"
    "  report <id> [--apps a,b] [--dataset small|large] [--iterations N]\n"
    "         [--seed N]         workload seed (default 42)\n"
    "         [--ranks N] [--threads N]  override the placement-report\n"
    "                            MPI x OMP split (checked integers)\n"
    "         [--collapse-ranks on|off]  run every sweep point collapsed\n"
    "                            (output is byte-identical to a full run)\n"
    "         [--jobs N]         regenerate one table/figure (see list);\n"
    "                            id 'all' (or --all) regenerates every\n"
    "                            registered experiment. --jobs sets the\n"
    "                            sweep worker count (default: all cores;\n"
    "                            output is identical for any job count)\n"
    "         [--format text|csv|json]  output format (--csv = --format\n"
    "                            csv); --format json emits one machine-\n"
    "                            readable object per experiment (a JSON\n"
    "                            array under --all)\n"
    "         [--trace-cache D]  persistent trace store: cold runs publish\n"
    "                            to D, warm runs replay with zero native\n"
    "                            executions and byte-identical output (env\n"
    "                            FIBERSIM_TRACE_CACHE also enables it)\n"
    "         [--processor-dir D]  load every descriptor in D/*.json into\n"
    "                            the processor registry first; a descriptor\n"
    "                            whose name matches a built-in replaces it\n"
    "                            in every comparison table\n"
    "         [--list]           print the report ids and exit\n"
    "  calibrate [--out FILE]    measure this host (clock, L1/L2/DRAM\n"
    "            [--name N]      bandwidth, FMA peak, NUMA penalty, barrier\n"
    "            [--seed S]      cost) with seeded micro-kernels and fit a\n"
    "            [--trials N]    processor descriptor to it; --out writes\n"
    "            [--quick]       the descriptor (default: stdout), --quick\n"
    "            [--measurements F]       shrinks the kernels for CI,\n"
    "            [--from-measurements F]  --measurements saves the raw\n"
    "                            kernel results, --from-measurements skips\n"
    "                            the kernels and refits deterministically\n"
    "                            from a saved measurement file\n"
    "  tune [--app name]         memoized exhaustive autotune over the\n"
    "       [--dataset d]        full MPI x OMP / stride / alloc / compile-\n"
    "       [--iterations N]     preset / compiler-profile / processor\n"
    "       [--seed N]           cross-product: predicts every candidate\n"
    "       [--jobs N]           once at the target budget. Output is the\n"
    "       [--processors a,b]   best-config recommendation and the time-\n"
    "       [--presets full|ladder]  vs-BW-pressure Pareto front, byte-\n"
    "       [--combos full|representative]  identical for any --jobs N.\n"
    "       [--collapse-ranks on|off]  --trace-cache D reuses native runs\n"
    "       [--format text|csv|json]   across tune runs\n"
    "       [--trace-cache D]\n"
    "  serve [--socket path]     long-lived prediction daemon on a Unix\n"
    "        [--workers N]       socket (default fibersim.sock): line-\n"
    "        [--queue N]         delimited JSON requests (ping | stats |\n"
    "        [--trace-cache D]   predict | report), N workers over one\n"
    "        [--journal path]    bounded queue (full -> typed BUSY), warm\n"
    "        [--supervise]       trace store shared across requests and\n"
    "                            restarts; SIGINT/SIGTERM drain and exit.\n"
    "                            --journal fsyncs completed predict results\n"
    "                            before the ack (answered tier=journal after\n"
    "                            a crash); --supervise forks the server and\n"
    "                            restarts it on abnormal exit with backoff\n"
    "                            [--max-restarts N] [--restart-backoff-ms M]\n"
    "                            and a per-config-class circuit breaker\n"
    "                            [--breaker-failures N] [--breaker-window W]\n"
    "                            [--breaker-open-ms M] sheds poisoned work\n"
    "                            (typed CIRCUIT_OPEN; requests may also set\n"
    "                            deadline_ms -> typed DEADLINE)\n"
    "    resilience: [--fault-plan spec] install a deterministic fault plan\n"
    "                (also read from env FIBERSIM_FAULT_PLAN)\n"
    "                [--retries N] retry failed sweep tasks up to N times\n"
    "                [--watchdog S] doom mailbox waits blocked > S seconds\n"
    "                [--journal path] JSONL journal: skip completed configs\n"
    "                on resume, record fresh completions\n"
    "                [--keep-going] render failed slots as FAILED(class)\n"
    "                [--fail-fast] abort on the first failed slot (default)\n";

/// The usage text; `run`'s key list prints from config_keys().
std::string usage() {
  constexpr std::size_t kIndent = 28;
  constexpr std::size_t kWidth = 76;
  std::string text = kUsageHead;
  std::string line(kIndent - 1, ' ');
  for (const ConfigKey& row : config_keys()) {
    const std::string flag = row.flag();
    if (line.size() + 1 + flag.size() > kWidth) {
      text += line + "\n";
      line.assign(kIndent - 1, ' ');
    }
    line += " " + flag;
  }
  return text + line + "\n" + kUsageTail;
}

int cmd_list(std::ostream& out) {
  out << "miniapps:\n";
  for (const auto& name : apps::registry_names()) {
    out << "  " << name << " - " << apps::create_miniapp(name)->description()
        << "\n";
  }
  out << "processors: ";
  bool first = true;
  for (const auto& entry : machine::ProcessorRegistry::instance().entries()) {
    if (!first) out << ", ";
    first = false;
    out << entry.key;
    if (entry.config.boost_freq_hz > 0.0) out << ", " << entry.key << "-boost";
    if (entry.config.eco_fp_pipes > 0) out << ", " << entry.key << "-eco";
  }
  out << "\n";
  out << "reports:\n";
  print_experiment_list(out);
  return 0;
}

int cmd_describe(const std::vector<std::string>& args, std::ostream& out,
                 std::ostream& err) {
  if (args.size() != 1) {
    err << "describe takes exactly one app or processor name\n";
    return 2;
  }
  // Miniapps first (historical behaviour), then the processor registry: any
  // resolvable token — built-in, loaded name, -boost/-eco variant or a
  // descriptor path — dumps as a canonical descriptor that round-trips
  // bit-exactly through --processor.
  try {
    const auto app = apps::create_miniapp(args[0]);
    out << app->name() << ": " << app->description() << "\n";
    return 0;
  } catch (const Error&) {
  }
  try {
    const machine::ProcessorConfig cfg =
        machine::ProcessorRegistry::instance().resolve(args[0]);
    out << machine::to_descriptor(cfg);
    return 0;
  } catch (const Error& e) {
    err << "unknown app or processor: " << args[0] << " (" << e.what()
        << ")\n";
    return 2;
  }
}

int cmd_calibrate(const std::vector<std::string>& args, std::ostream& out,
                  std::ostream& err) {
  CalibrateFlags flags;
  if (failed(parse_flags(args, "calibrate", KeyTable{kCalibrateKeys, flags}),
             err)) {
    return 2;
  }
  machine::CalibrationMeasurements m;
  if (!flags.measurements_in.empty()) {
    std::ifstream in(flags.measurements_in, std::ios::binary);
    if (!in.good()) {
      err << "cannot open measurements file: " << flags.measurements_in
          << "\n";
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    m = machine::parse_measurements(buf.str());
  } else {
    m = machine::measure(flags.options);
  }
  if (!flags.measurements_out.empty()) {
    std::ofstream meas_out(flags.measurements_out, std::ios::binary);
    if (!meas_out.good()) {
      err << "cannot write measurements file: " << flags.measurements_out
          << "\n";
      return 2;
    }
    meas_out << machine::measurements_to_json(m);
  }
  const machine::ProcessorConfig cfg =
      machine::fit_descriptor(m, flags.options);
  const std::string descriptor = machine::to_descriptor(cfg);
  if (flags.out_path.empty()) {
    out << descriptor;
    return 0;
  }
  std::ofstream desc_out(flags.out_path, std::ios::binary);
  if (!desc_out.good()) {
    err << "cannot write descriptor file: " << flags.out_path << "\n";
    return 2;
  }
  desc_out << descriptor;
  out << "calibrated '" << cfg.name << "' -> " << flags.out_path << "\n";
  TextTable table({"ceiling", "measured", "fitted"});
  table.add_row({"clock", si_format(m.freq_hz) + "Hz",
                 si_format(cfg.freq_hz) + "Hz"});
  table.add_row({"L1 bandwidth", si_format(m.l1_bw) + "B/s",
                 strfmt("%.3g B/cycle", cfg.l1.bytes_per_cycle)});
  table.add_row({"L2 bandwidth", si_format(m.l2_bw) + "B/s",
                 strfmt("%.3g B/cycle", cfg.l2.bytes_per_cycle)});
  table.add_row({"DRAM bandwidth", si_format(m.dram_bw) + "B/s",
                 si_format(cfg.node_mem_bw()) + "B/s"});
  table.add_row({"FMA peak", si_format(m.fma_flops) + "flop/s",
                 si_format(cfg.peak_flops_per_core()) + "flop/s"});
  table.add_row({"barrier", strfmt("%.0f ns", m.barrier_ns),
                 strfmt("%.0f ns/hop", cfg.barrier_hop_ns_same_numa)});
  table.add_row({"threads", strfmt("%d", m.threads),
                 strfmt("%d cores", cfg.cores())});
  table.add_row({"calibration wall time", strfmt("%.2f s", m.wall_s), "-"});
  table.print(out);
  return 0;
}

int cmd_run(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err) {
  RunFlags flags;
  if (failed(parse_run(args, flags), err)) return 2;
  Runner runner;
  attach_trace_store(runner, flags.trace_cache_dir);
  const ExperimentResult res = runner.run(flags.config);

  if (!flags.dump_trace_path.empty()) {
    std::ofstream trace_out(flags.dump_trace_path);
    if (!trace_out.good()) {
      err << "cannot write trace file: " << flags.dump_trace_path << "\n";
      return 2;
    }
    trace_out << trace::to_json(runner.expanded_trace(flags.config)) << "\n";
  }
  if (flags.json) {
    out << trace::to_json(res.prediction) << "\n";
    return res.verified ? 0 : 1;
  }

  out << res.config.label() << "\n";
  TextTable table({"quantity", "value"});
  table.add_row({"predicted time", strfmt("%.6f ms", res.seconds() * 1e3)});
  table.add_row({"performance", strfmt("%.2f GFLOPS", res.gflops())});
  table.add_row({"compute", strfmt("%.6f ms", res.prediction.compute_s * 1e3)});
  table.add_row({"memory", strfmt("%.6f ms", res.prediction.memory_s * 1e3)});
  table.add_row({"communication", strfmt("%.6f ms", res.prediction.comm_s * 1e3)});
  table.add_row({"barriers", strfmt("%.6f ms", res.prediction.barrier_s * 1e3)});
  table.add_row({"setup (untimed)", strfmt("%.6f ms", res.prediction.setup_s * 1e3)});
  table.add_row({"power", strfmt("%.1f W", res.power.watts)});
  table.add_row({"energy", strfmt("%.6f J", res.power.joules)});
  table.add_row({"verified", res.verified ? "yes" : "NO"});
  table.add_row({"check", res.check_description + " = " +
                              strfmt("%.6g", res.check_value)});
  table.print(out);

  out << "\nphases:\n";
  TextTable phases({"phase", "total ms", "limited by", "timed"});
  for (const auto& phase : res.prediction.phases) {
    phases.add_row({phase.name, strfmt("%.6f", phase.total_s * 1e3),
                    machine::limiter_name(phase.time.limiter),
                    phase.timed ? "yes" : "no"});
  }
  phases.print(out);
  return res.verified ? 0 : 1;
}

int cmd_report(const std::vector<std::string>& args, std::ostream& out,
               std::ostream& err) {
  const ExperimentRegistry& registry = ExperimentRegistry::instance();
  // The id comes first, unless the arguments are flags only (`--list`).
  const bool has_id =
      !args.empty() && (args[0] == "--all" || args[0].rfind("--", 0) != 0);
  const bool all =
      has_id && (to_lower(args[0]) == "all" || args[0] == "--all");
  const Experiment* single =
      has_id && !all ? registry.find(args[0]) : nullptr;
  if (has_id && !all && single == nullptr) {
    err << "unknown report id: " << args[0] << "\n";
    return 2;
  }
  ReportFlags flags = report_defaults();
  const std::vector<std::string> rest(args.begin() + (has_id ? 1 : 0),
                                      args.end());
  if (failed(parse_report_flags(rest, flags), err)) return 2;
  if (flags.list) {
    print_experiment_list(out);
    return 0;
  }
  if (!has_id) {
    err << "report needs an id; one of:";
    for (const auto& id : registry.ids()) err << ' ' << id;
    err << "\n";
    return 2;
  }
  const auto print = [&](const Experiment& entry) {
    Runner runner;  // fresh per report; traces are cheap at suite scale
    attach_trace_store(runner, flags.trace_cache_dir);
    write_report(entry, flags, runner, out);
  };
  if (!all) {
    print(*single);
    return 0;
  }
  if (flags.format == ReportFormat::kJson) {
    out << "[\n";
    bool first = true;
    for (const Experiment& entry : registry.experiments()) {
      if (!first) out << ",";
      first = false;
      print(entry);
    }
    out << "]\n";
    return 0;
  }
  for (const Experiment& entry : registry.experiments()) {
    out << "== " << entry.id << " ==\n";
    print(entry);
    out << "\n";
  }
  return 0;
}

int cmd_tune(const std::vector<std::string>& args, std::ostream& out,
             std::ostream& err) {
  TuneFlags flags;
  flags.options.jobs = SweepPool::default_jobs();
  if (failed(parse_flags(args, "tune", KeyTable{kTuneKeys, flags}), err)) {
    return 2;
  }
  Runner runner;
  attach_trace_store(runner, flags.trace_cache_dir);
  const TuneOutcome outcome = Tuner(runner, flags.options).run();
  EmitOptions opts;
  opts.format = flags.format;
  opts.framed = false;
  emit_report(tune_artifact(outcome, flags.options), opts, out);
  return 0;
}

int cmd_serve(const std::vector<std::string>& args, std::ostream& out,
              std::ostream& err) {
  ServeFlags flags;
  if (failed(parse_flags(args, "serve", KeyTable{kServeKeys, flags}), err)) {
    return 2;
  }
  const auto serve_once = [&]() -> int {
    Server server(flags.serve);
    server.start();
    server.install_signal_handlers();
    // Readiness line: CI and the load generator wait for it before
    // connecting. In supervise mode every (re)started child prints one.
    out << "serving on " << server.socket_path() << "\n" << std::flush;
    server.wait();
    out << "server stopped\n" << std::flush;
    return 0;
  };
  if (flags.supervise) {
    // The child must not inherit the parent's idea of an error path: report
    // its own failures and exit nonzero so the supervisor backs off.
    return run_supervised(
        [&]() -> int {
          try {
            return serve_once();
          } catch (const std::exception& e) {
            err << "error: " << e.what() << "\n" << std::flush;
            return 1;
          }
        },
        flags.supervisor, out, err);
  }
  return serve_once();
}

}  // namespace

std::string parse_run_flags(const std::vector<std::string>& args,
                            ExperimentConfig& cfg) {
  RunFlags flags;
  flags.config = cfg;
  const std::string problem = parse_run(args, flags);
  cfg = flags.config;
  return problem;
}

std::vector<std::string> cli_flags() {
  std::vector<std::string> flags;
  const auto add = [&](const auto& rows) {
    for (const auto& row : rows) flags.push_back(row.flag());
  };
  add(kRunKeys);
  add(config_keys());
  add(report_keys());
  add(kTuneKeys);
  add(kServeKeys);
  add(kCalibrateKeys);
  return flags;
}

std::vector<std::string> cli_report_ids() {
  return ExperimentRegistry::instance().ids();
}

int cli_main(const std::vector<std::string>& args, std::ostream& out,
             std::ostream& err) {
  if (args.size() < 2) {
    err << usage();
    return 2;
  }
  const std::string command = args[1];
  const std::vector<std::string> rest(args.begin() + 2, args.end());
  try {
    // Environment fault plan (FIBERSIM_FAULT_PLAN) applies to every command;
    // an explicit --fault-plan flag overrides it.
    fault::install_from_env();
    if (command == "list") return cmd_list(out);
    if (command == "describe") return cmd_describe(rest, out, err);
    if (command == "calibrate") return cmd_calibrate(rest, out, err);
    if (command == "run") return cmd_run(rest, out, err);
    if (command == "report") return cmd_report(rest, out, err);
    if (command == "tune") return cmd_tune(rest, out, err);
    if (command == "serve") return cmd_serve(rest, out, err);
    if (command == "help" || command == "--help" || command == "-h") {
      out << usage();
      return 0;
    }
  } catch (const Error& e) {
    err << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    return 2;
  }
  err << "unknown command: " << command << "\n" << usage();
  return 2;
}

}  // namespace fibersim::core
