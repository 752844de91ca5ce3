// perf_scale — rank-symmetry collapsed simulation at Tofu scale.
//
// Three legs, one E2-style weak-scaling shape throughout (4 ranks/node x
// 12 threads, ffvc/large, weak_scale = nodes):
//
//   * overlap: rank counts where BOTH paths are feasible. The full and the
//     collapsed simulation run back to back; their predictions and expanded
//     raw traces must be byte-identical, and the collapsed pass must
//     execute exactly one native rank per symmetry class
//     (Runner::collapse_native_ranks() == Runner::collapse_classes() — the
//     invariant tools/ci.sh checks in the JSON artifact).
//   * weak scale: collapsed-only rank counts up to >= 10^5. The full-
//     simulation trend is extrapolated linearly from the largest overlap
//     point (conservative: real cost grows superlinearly with the thread
//     count); the collapsed path must beat that trend by >= 20x at the
//     largest point.
//   * store: the largest weak-scaling config cold (native + publish) vs
//     warm (a fresh Runner replays the representative traces from disk and
//     replicates) — warm must not run natively and must reproduce the cold
//     prediction bit for bit.
//
// Results go to stdout and a JSON file (default BENCH_scale.json — run from
// the repo root to refresh the committed artifact). Any violated invariant
// makes the exit code nonzero.
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/report_emit.hpp"
#include "common/string_util.hpp"
#include "common/timer.hpp"
#include "core/config_parse.hpp"
#include "core/runner.hpp"
#include "trace/serialize.hpp"
#include "trace/trace_store.hpp"

namespace {

using namespace fibersim;
namespace fs = std::filesystem;

constexpr int kRanksPerNode = 4;
constexpr int kThreads = 12;

core::ExperimentConfig scale_config(const std::string& app, int nodes,
                                    bool collapse) {
  core::ExperimentConfig cfg;
  cfg.app = app;
  cfg.dataset = apps::Dataset::kLarge;
  cfg.nodes = nodes;
  cfg.ranks = kRanksPerNode * nodes;
  cfg.threads = kThreads;
  cfg.iterations = 1;
  cfg.weak_scale = nodes;  // E2 shape: the problem grows with the machine
  cfg.collapse = collapse;
  return cfg;
}

struct Sample {
  int nodes = 0;
  int ranks = 0;
  double full_s = 0.0;       ///< wall time of the full simulation (overlap)
  double collapsed_s = 0.0;  ///< wall time of the collapsed simulation
  std::size_t classes = 0;
  std::size_t native_ranks = 0;  ///< ranks executed natively when collapsed
  bool bits_equal = true;        ///< prediction (+ trace) byte-identity
  bool invariant_ok = true;      ///< native_ranks == classes
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

struct Flags {
  std::string app = "ffvc";
  std::string out_path = "BENCH_scale.json";
  int max_nodes = 25600;  ///< drops the weak-scale points beyond it
};

constexpr core::KeyRow<Flags> kKeys[] = {
    {"app", core::set_text<&Flags::app>},
    {"out", core::set_text<&Flags::out_path>},
    {"max_nodes", core::set_int<1, &Flags::max_nodes>},
};

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  const std::vector<std::string> args(argv + 1, argv + argc);
  const std::string problem =
      core::parse_flags(args, "perf_scale", core::KeyTable{kKeys, flags});
  if (!problem.empty()) {
    std::cerr << problem << "\n";
    return 2;
  }
  const std::string& app = flags.app;
  // Overlap points stay within the native thread budget (ranks x threads
  // OS threads per full run); weak-scale points are collapsed-only.
  const std::vector<int> overlap_nodes = {4, 16, 64};
  std::vector<int> weak_nodes = {256, 4096, 25600};
  while (!weak_nodes.empty() && weak_nodes.back() > flags.max_nodes) {
    weak_nodes.pop_back();
  }

  bool ok = true;
  std::vector<Sample> samples;

  // ---- overlap leg: full vs collapsed, byte-identity + invariant --------
  for (const int nodes : overlap_nodes) {
    Sample s;
    s.nodes = nodes;
    s.ranks = kRanksPerNode * nodes;

    core::Runner full_runner;
    WallTimer full_timer;
    const auto full = full_runner.run(scale_config(app, nodes, false));
    s.full_s = full_timer.elapsed();

    core::Runner coll_runner;
    WallTimer coll_timer;
    const auto coll = coll_runner.run(scale_config(app, nodes, true));
    s.collapsed_s = coll_timer.elapsed();

    s.classes = coll_runner.collapse_classes();
    s.native_ranks = coll_runner.collapse_native_ranks();
    s.invariant_ok = s.classes > 0 && s.native_ranks == s.classes;
    s.bits_equal =
        bits(coll.seconds()) == bits(full.seconds()) &&
        trace::to_json(coll.prediction) == trace::to_json(full.prediction) &&
        trace::to_json(coll_runner.expanded_trace(coll.config)) ==
            trace::to_json(full_runner.expanded_trace(full.config)) &&
        coll.verified && full.verified;
    if (!s.bits_equal) {
      std::cerr << "FATAL: collapsed output diverged from full at "
                << s.ranks << " ranks\n";
      ok = false;
    }
    if (!s.invariant_ok) {
      std::cerr << "FATAL: collapsed pass at " << s.ranks << " ranks ran "
                << s.native_ranks << " native ranks for " << s.classes
                << " classes\n";
      ok = false;
    }
    samples.push_back(s);
  }

  // ---- weak-scale leg: collapsed-only beyond the native ceiling ---------
  for (const int nodes : weak_nodes) {
    Sample s;
    s.nodes = nodes;
    s.ranks = kRanksPerNode * nodes;
    core::Runner runner;
    WallTimer timer;
    const auto res = runner.run(scale_config(app, nodes, true));
    s.collapsed_s = timer.elapsed();
    s.classes = runner.collapse_classes();
    s.native_ranks = runner.collapse_native_ranks();
    s.invariant_ok = s.classes > 0 && s.native_ranks == s.classes;
    s.bits_equal = res.verified;
    if (!s.invariant_ok) {
      std::cerr << "FATAL: collapsed pass at " << s.ranks << " ranks ran "
                << s.native_ranks << " native ranks for " << s.classes
                << " classes\n";
      ok = false;
    }
    samples.push_back(s);
  }

  // ---- trend check: collapsed must beat the full trend by >= 20x --------
  // Linear extrapolation of the full-simulation wall time from the largest
  // overlap point: t_full(r) ~ r * (t / r_overlap). Conservative — a full
  // run's thread count (and scheduler pressure) grows with r.
  const Sample& anchor = samples[overlap_nodes.size() - 1];
  const Sample& peak = samples.back();
  const double full_per_rank = anchor.full_s / anchor.ranks;
  const double trend_full_s = full_per_rank * peak.ranks;
  const double trend_speedup =
      peak.collapsed_s > 0.0 ? trend_full_s / peak.collapsed_s : 0.0;
  const bool trend_ok = trend_speedup >= 20.0;
  if (!trend_ok) {
    std::cerr << "FATAL: collapsed wall time at " << peak.ranks
              << " ranks is only " << trend_speedup
              << "x faster than the full-simulation trend (need >= 20x)\n";
    ok = false;
  }

  // ---- store leg: cold publish vs warm rehydration at peak scale --------
  const fs::path cache_dir =
      fs::temp_directory_path() /
      ("fibersim-bench-scale-" + std::to_string(static_cast<long>(::getpid())));
  {
    std::error_code ec;
    fs::remove_all(cache_dir, ec);
  }
  double cold_s = 0.0;
  double warm_s = 0.0;
  {
    const auto store =
        std::make_shared<trace::TraceStore>(cache_dir.string());
    core::Runner cold;
    cold.set_trace_store(store);
    WallTimer cold_timer;
    const auto cold_res = cold.run(scale_config(app, peak.nodes, true));
    cold_s = cold_timer.elapsed();

    core::Runner warm;
    warm.set_trace_store(store);
    WallTimer warm_timer;
    const auto warm_res = warm.run(scale_config(app, peak.nodes, true));
    warm_s = warm_timer.elapsed();
    if (warm.native_runs() != 0 || warm.disk_hits() != 1) {
      std::cerr << "FATAL: warm pass ran natively (native_runs="
                << warm.native_runs() << " disk_hits=" << warm.disk_hits()
                << ")\n";
      ok = false;
    }
    if (bits(warm_res.seconds()) != bits(cold_res.seconds()) ||
        trace::to_json(warm_res.prediction) !=
            trace::to_json(cold_res.prediction)) {
      std::cerr << "FATAL: warm prediction diverged from cold\n";
      ok = false;
    }
  }
  {
    std::error_code ec;
    fs::remove_all(cache_dir, ec);
  }

  // ---- report ------------------------------------------------------------
  ReportArtifact artifact;
  artifact.id = "perf_scale";
  TextTable table({"ranks", "full s", "collapsed s", "classes",
                   "native ranks", "bits"});
  for (const Sample& s : samples) {
    table.add_row({std::to_string(s.ranks),
                   s.full_s > 0.0 ? strfmt("%g", s.full_s) : "-",
                   strfmt("%g", s.collapsed_s), std::to_string(s.classes),
                   std::to_string(s.native_ranks),
                   s.bits_equal ? "ok" : "DIVERGED"});
  }
  ReportSection& section = artifact.add_table(
      strfmt("perf_scale: %s weak scaling, full vs rank-symmetry collapsed",
             app.c_str()),
      table);
  section.notes.push_back(strfmt(
      "trend: full ~ %g s at %d ranks -> %g s at %d ranks; collapsed %g s "
      "(%.0fx)",
      anchor.full_s, anchor.ranks, trend_full_s, peak.ranks, peak.collapsed_s,
      trend_speedup));
  section.notes.push_back(
      strfmt("store at %d ranks: cold %g s, warm %g s", peak.ranks, cold_s,
             warm_s));
  artifact.metrics.push_back({"trend_speedup", trend_speedup, "x"});
  artifact.metrics.push_back(
      {"peak_ranks", static_cast<double>(peak.ranks), "ranks"});
  EmitOptions emit_opts;
  emit_opts.framed = true;
  emit_report(artifact, emit_opts, std::cout);

  using json::Layout;
  json::Emitter doc;
  doc.object(Layout::kBlock);
  doc.str("app", app);
  doc.i64("ranks_per_node", kRanksPerNode);
  doc.i64("threads", kThreads);
  doc.array("samples", Layout::kBlock);
  for (const Sample& s : samples) {
    doc.object(Layout::kInline);
    doc.i64("nodes", s.nodes);
    doc.i64("ranks", s.ranks);
    doc.num("full_s", s.full_s);
    doc.num("collapsed_s", s.collapsed_s);
    doc.u64("classes", s.classes);
    doc.u64("native_ranks", s.native_ranks);
    doc.boolean("byte_identical", s.bits_equal);
    doc.boolean("native_equals_classes", s.invariant_ok);
    doc.close();
  }
  doc.close();
  doc.i64("peak_ranks", peak.ranks);
  doc.num("trend_full_s", trend_full_s);
  doc.num("peak_collapsed_s", peak.collapsed_s);
  doc.num("trend_speedup", trend_speedup);
  doc.boolean("trend_speedup_ok", trend_ok);
  doc.num("store_cold_s", cold_s);
  doc.num("store_warm_s", warm_s);
  doc.boolean("ok", ok);
  std::ofstream out(flags.out_path);
  out << std::move(doc).finish() << '\n';
  std::cout << "\nwrote " << flags.out_path << "\n";

  return ok ? 0 : 1;
}
