#include "core/cli.hpp"

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
  machine::CalibrationOptions copt;
  std::string out_path, meas_out_path, meas_in_path;
  std::string problem;
  for (std::size_t i = 0; i < args.size();) {
    const std::string& key = args[i];
    if (key == "--quick") {  // the one valueless calibrate flag
      copt.quick = true;
      ++i;
      continue;
    }
    if (i + 1 >= args.size()) {
      err << "missing value for " << key << "\n";
      return 2;
    }
    const std::string& value = args[i + 1];
    i += 2;
    if (key == "--out") {
      out_path = value;
    } else if (key == "--name") {
      copt.name = value;
    } else if (key == "--seed") {
      problem = flag_u64(key, value, &copt.seed);
    } else if (key == "--trials") {
      problem = flag_int(key, value, 1, &copt.trials);
    } else if (key == "--measurements") {
      meas_out_path = value;
    } else if (key == "--from-measurements") {
      meas_in_path = value;
    } else {
      err << "unknown calibrate flag: " << key << "\n";
      return 2;
    }
    if (!problem.empty()) {
      err << problem << "\n";
      return 2;
    }
  }
  machine::CalibrationMeasurements m;
  if (!meas_in_path.empty()) {
    std::ifstream in(meas_in_path, std::ios::binary);
    if (!in.good()) {
      err << "cannot open measurements file: " << meas_in_path << "\n";
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    m = machine::parse_measurements(buf.str());
  } else {
    m = machine::measure(copt);
  }
  if (!meas_out_path.empty()) {
    std::ofstream meas_out(meas_out_path, std::ios::binary);
    if (!meas_out.good()) {
      err << "cannot write measurements file: " << meas_out_path << "\n";
      return 2;
    }
    meas_out << machine::measurements_to_json(m);
  }
  const machine::ProcessorConfig cfg = machine::fit_descriptor(m, copt);
  const std::string descriptor = machine::to_descriptor(cfg);
  if (out_path.empty()) {
    out << descriptor;
    return 0;
  }
  std::ofstream desc_out(out_path, std::ios::binary);
  if (!desc_out.good()) {
    err << "cannot write descriptor file: " << out_path << "\n";
    return 2;
  }
  desc_out << descriptor;
  out << "calibrated '" << cfg.name << "' -> " << out_path << "\n";
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
  ExperimentConfig cfg;
  bool json = false;
  std::string dump_trace_path;
  std::string trace_cache_dir;
  // Pull out the output-control flags, leave the rest for parse_run_flags.
  std::vector<std::string> config_args;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--json") {
      json = true;
    } else if (args[i] == "--dump-trace") {
      if (i + 1 >= args.size()) {
        err << "missing value for --dump-trace\n";
        return 2;
      }
      dump_trace_path = args[++i];
    } else if (args[i] == "--trace-cache") {
      if (i + 1 >= args.size()) {
        err << "missing value for --trace-cache\n";
        return 2;
      }
      trace_cache_dir = args[++i];
    } else {
      config_args.push_back(args[i]);
    }
  }
  const std::string problem = parse_run_flags(config_args, cfg);
  if (!problem.empty()) {
    err << problem << "\n";
    return 2;
  }
  Runner runner;
  attach_trace_store(runner, trace_cache_dir);
  const ExperimentResult res = runner.run(cfg);

  if (!dump_trace_path.empty()) {
    std::ofstream trace_out(dump_trace_path);
    if (!trace_out.good()) {
      err << "cannot write trace file: " << dump_trace_path << "\n";
      return 2;
    }
    trace_out << trace::to_json(runner.expanded_trace(cfg)) << "\n";
  }
  if (json) {
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
  if (args.empty()) {
    err << "report needs an id; one of:";
    for (const auto& id : registry.ids()) err << ' ' << id;
    err << "\n";
    return 2;
  }
  const bool all = to_lower(args[0]) == "all" || args[0] == "--all";
  const Experiment* single = all ? nullptr : registry.find(args[0]);
  if (!all && single == nullptr) {
    err << "unknown report id: " << args[0] << "\n";
    return 2;
  }
  ReportFlags flags;
  flags.ctx.dataset = apps::Dataset::kLarge;
  flags.ctx.jobs = SweepPool::default_jobs();
  const std::vector<std::string> rest(args.begin() + 1, args.end());
  const std::string problem = parse_report_flags(rest, flags);
  if (!problem.empty()) {
    err << problem << "\n";
    return 2;
  }
  if (flags.list) {
    print_experiment_list(out);
    return 0;
  }
  const auto build_one = [&](const Experiment& entry) {
    Runner runner;  // fresh per report; traces are cheap at suite scale
    attach_trace_store(runner, flags.trace_cache_dir);
    ReportContext ctx = flags.ctx;
    ctx.runner = &runner;
    // The CLI has always pinned T3 to the small dataset (the paper's
    // compiler study only exists there); the bench shim honours --dataset.
    if (to_lower(entry.id) == "t3") ctx.dataset = apps::Dataset::kSmall;
    return registry.build(entry.id, ctx);
  };
  EmitOptions opts;
  opts.format = flags.format;
  opts.framed = false;
  if (!all) {
    emit_report(build_one(*single), opts, out);
    return 0;
  }
  if (flags.format == ReportFormat::kJson) {
    out << "[\n";
    bool first = true;
    for (const Experiment& entry : registry.experiments()) {
      if (!first) out << ",";
      first = false;
      emit_report(build_one(entry), opts, out);
    }
    out << "]\n";
    return 0;
  }
  for (const Experiment& entry : registry.experiments()) {
    out << "== " << entry.id << " ==\n";
    emit_report(build_one(entry), opts, out);
    out << "\n";
  }
  return 0;
}

int cmd_tune(const std::vector<std::string>& args, std::ostream& out,
             std::ostream& err) {
  TunerOptions topts;
  topts.jobs = SweepPool::default_jobs();
  ReportFormat format = ReportFormat::kText;
  std::string trace_cache_dir;
  std::string problem;
  for (std::size_t i = 0; i < args.size(); i += 2) {
    const std::string& key = args[i];
    if (i + 1 >= args.size()) {
      err << "missing value for " << key << "\n";
      return 2;
    }
    const std::string& value = args[i + 1];
    bool flag = false;
    if (key == "--app") {
      topts.app = value;
    } else if (key == "--dataset") {
      topts.dataset = parse_dataset(value);
    } else if (key == "--iterations") {
      problem = flag_int(key, value, 1, &topts.iterations);
    } else if (key == "--seed") {
      problem = flag_u64(key, value, &topts.seed);
    } else if (key == "--jobs") {
      problem = flag_int(key, value, 1, &topts.jobs);
    } else if (key == "--processors") {
      topts.processors.clear();
      for (const std::string& name : split(value, ',')) {
        topts.processors.push_back(parse_processor(name));
      }
    } else if (key == "--presets") {
      const std::string t = to_lower(trim(value));
      if (t == "full") {
        topts.presets = cg::search_presets();
      } else if (t == "ladder") {
        topts.presets = cg::tuning_ladder();
      } else {
        err << "unknown --presets value: " << value
            << " (expected full | ladder)\n";
        return 2;
      }
    } else if (key == "--combos") {
      const std::string t = to_lower(trim(value));
      if (t == "full") {
        topts.full_mpi_omp = true;
      } else if (t == "representative") {
        topts.full_mpi_omp = false;
      } else {
        err << "unknown --combos value: " << value
            << " (expected full | representative)\n";
        return 2;
      }
    } else if (key == "--collapse-ranks") {
      problem = flag_bool(key, value, &flag);
      topts.collapse = flag;
    } else if (key == "--format") {
      format = parse_report_format(value);
    } else if (key == "--trace-cache") {
      trace_cache_dir = value;
    } else {
      err << "unknown tune flag: " << key << "\n";
      return 2;
    }
    if (!problem.empty()) {
      err << problem << "\n";
      return 2;
    }
  }
  Runner runner;
  attach_trace_store(runner, trace_cache_dir);
  const TuneOutcome outcome = Tuner(runner, topts).run();
  EmitOptions opts;
  opts.format = format;
  opts.framed = false;
  emit_report(tune_artifact(outcome, topts), opts, out);
  return 0;
}

int cmd_serve(const std::vector<std::string>& args, std::ostream& out,
              std::ostream& err) {
  ServeOptions opts;
  SuperviseOptions sup;
  bool supervise = false;
  std::string problem;
  for (std::size_t i = 0; i < args.size();) {
    const std::string& key = args[i];
    if (key == "--supervise") {  // the one valueless serve flag
      supervise = true;
      ++i;
      continue;
    }
    if (i + 1 >= args.size()) {
      err << "missing value for " << key << "\n";
      return 2;
    }
    const std::string& value = args[i + 1];
    i += 2;
    int ms = 0;
    if (key == "--socket") {
      opts.socket_path = value;
    } else if (key == "--workers") {
      problem = flag_int(key, value, 1, &opts.workers);
    } else if (key == "--queue") {
      problem = flag_int(key, value, 1, &opts.queue_capacity);
    } else if (key == "--trace-cache") {
      opts.trace_cache_dir = value;
    } else if (key == "--journal") {
      opts.journal_path = value;
    } else if (key == "--breaker-failures") {
      problem = flag_int(key, value, 1, &opts.circuit.failure_threshold);
    } else if (key == "--breaker-window") {
      problem = flag_int(key, value, 1, &opts.circuit.window);
    } else if (key == "--breaker-open-ms") {
      problem = flag_int(key, value, 1, &ms);
      opts.circuit.open_ms = ms;
    } else if (key == "--max-restarts") {
      problem = flag_int(key, value, 0, &sup.max_restarts);
    } else if (key == "--restart-backoff-ms") {
      problem = flag_int(key, value, 1, &ms);
      sup.initial_backoff_ms = ms;
      if (sup.max_backoff_ms < sup.initial_backoff_ms) {
        sup.max_backoff_ms = sup.initial_backoff_ms;
      }
    } else {
      err << "unknown serve flag: " << key << "\n";
      return 2;
    }
    if (!problem.empty()) {
      err << problem << "\n";
      return 2;
    }
  }
  const auto serve_once = [&]() -> int {
    Server server(opts);
    server.start();
    server.install_signal_handlers();
    // Readiness line: CI and the load generator wait for it before
    // connecting. In supervise mode every (re)started child prints one.
    out << "serving on " << server.socket_path() << "\n" << std::flush;
    server.wait();
    out << "server stopped\n" << std::flush;
    return 0;
  };
  if (supervise) {
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
        sup, out, err);
  }
  return serve_once();
}

}  // namespace

std::string parse_run_flags(const std::vector<std::string>& args,
                            ExperimentConfig& cfg) {
  struct Setting {
    const ConfigKey* row;
    std::string flag, value;
  };
  std::vector<Setting> settings;
  std::string config_path;
  for (std::size_t i = 0; i < args.size();) {
    const std::string& flag = args[i];
    // A bare --collapse-ranks (last, or followed by another flag) means on.
    const bool bare = flag == "--collapse-ranks" &&
                      (i + 1 == args.size() || args[i + 1].starts_with("--"));
    if (!bare && i + 1 >= args.size()) return "missing value for " + flag;
    const std::string value = bare ? "on" : args[i + 1];
    i += bare ? 1 : 2;
    if (flag == "--config") {
      config_path = value;
      continue;
    }
    const ConfigKey* row = find_config_flag(flag);
    if (row == nullptr) return "unknown flag: " + flag;
    settings.push_back({row, flag, value});
  }
  // The file loads first wherever --config appears, so flags override it.
  if (!config_path.empty()) cfg = load_experiment_config(config_path);
  for (const Setting& s : settings) {
    const std::string problem =
        s.row->set(cfg, s.flag, s.value, KeySource::kLocal);
    if (!problem.empty()) return problem;
  }
  return "";
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
