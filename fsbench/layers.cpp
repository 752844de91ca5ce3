// Link-time wrappers around each layer's public entry points (see
// layers.hpp). CMakeLists.txt reads the FSB_SYM_* lines below and passes one
// `--wrap=<symbol>` per line to the traced link only.
//
// Each wrapper has exactly the signature of the function it wraps, with the
// object pointer spelled out as the first parameter for member functions
// (the Itanium C++ ABI passes `this` that way). The __real_ declarations are
// weak: if a refactor renames or re-signatures an entry point, its mangled
// name changes, nothing calls the wrapper any more, and the traced build
// still links — that layer then simply reads zero.
#include "layers.hpp"

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <mutex>
#include <ostream>
#include <set>
#include <utility>

#include "cg/codegen_cache.hpp"
#include "common/report_emit.hpp"
#include "core/runner.hpp"
#include "machine/eval_cache.hpp"
#include "machine/exec_model.hpp"
#include "machine/network_model.hpp"
#include "mp/job.hpp"
#include "mp/symmetry.hpp"
#include "rt/thread_team.hpp"
#include "trace/canonical.hpp"
#include "trace/collapsed.hpp"
#include "trace/predict.hpp"
#include "trace/serialize.hpp"
#include "trace/trace_store.hpp"

// mp::Job::run(int, const RankFn&, const fault::Session*)
#define FSB_SYM_JOB_RUN _ZN8fibersim2mp3Job3runEiRKSt8functionIFvRNS0_4CommEEEPKNS_5fault7SessionE
// mp::Job::run_collapsed(const RankSymmetry&, const RankFn&)
#define FSB_SYM_JOB_RUN_COLLAPSED _ZN8fibersim2mp3Job13run_collapsedERKNS0_12RankSymmetryERKSt8functionIFvRNS0_4CommEEE
// rt::ThreadTeam::ThreadTeam(int) (complete-object constructor)
#define FSB_SYM_TEAM_CTOR _ZN8fibersim2rt10ThreadTeamC1Ei
// trace::CanonicalTrace::build(const JobTrace&)
#define FSB_SYM_CANON_BUILD _ZN8fibersim5trace14CanonicalTrace5buildERKSt6vectorIS2_INS0_11PhaseRecordESaIS3_EESaIS5_EE
// mp::RankSymmetry::build(const CollapseSpec&, int)
#define FSB_SYM_SYMMETRY_BUILD _ZN8fibersim2mp12RankSymmetry5buildERKNS0_12CollapseSpecEi
// trace::CollapsedTrace::assemble(mp::RankSymmetry, const JobTrace&)
#define FSB_SYM_ASSEMBLE _ZN8fibersim5trace14CollapsedTrace8assembleENS_2mp12RankSymmetryERKSt6vectorIS4_INS0_11PhaseRecordESaIS5_EESaIS7_EE
// trace::TraceStore::store(const StoreKey&, const StoredExecution&)
#define FSB_SYM_STORE_STORE _ZN8fibersim5trace10TraceStore5storeERKNS0_8StoreKeyERKNS0_15StoredExecutionE
// trace::TraceStore::load(const StoreKey&)
#define FSB_SYM_STORE_LOAD _ZN8fibersim5trace10TraceStore4loadERKNS0_8StoreKeyE
// trace::predict_job(..., const CanonicalTrace&, const PredictMemo&)
#define FSB_SYM_PREDICT_CANONICAL _ZN8fibersim5trace11predict_jobERKNS_7machine15ProcessorConfigERKNS_2cg14CompileOptionsERKNS_4topo7BindingERKNS0_14CanonicalTraceERKNS0_11PredictMemoE
// trace::predict_job(..., const CollapsedTrace&, const PredictMemo&)
#define FSB_SYM_PREDICT_COLLAPSED _ZN8fibersim5trace11predict_jobERKNS_7machine15ProcessorConfigERKNS_2cg14CompileOptionsERKNS_4topo7BindingERKNS0_14CollapsedTraceERKNS0_11PredictMemoE
// cg::CodegenCache::apply(const CompileOptions&, const WorkEstimate&, uint64_t)
#define FSB_SYM_CODEGEN_APPLY _ZN8fibersim2cg12CodegenCache5applyERKNS0_14CompileOptionsERKNS_3isa12WorkEstimateEm
// machine::EvalCache::work_eval(const ExecModel&, uint64_t, const WorkEstimate&, uint64_t)
#define FSB_SYM_WORK_EVAL _ZN8fibersim7machine9EvalCache9work_evalERKNS0_9ExecModelEmRKNS_3isa12WorkEstimateEm
// machine::ExecModel::evaluate_phase_refs(const std::vector<ThreadRef>&) const
#define FSB_SYM_PHASE_REFS _ZNK8fibersim7machine9ExecModel19evaluate_phase_refsERKSt6vectorINS0_9ThreadRefESaIS3_EE
// machine::LinkContention::add_flow(int, int, uint64_t)
#define FSB_SYM_ADD_FLOW _ZN8fibersim7machine14LinkContention8add_flowEiim
// machine::LinkContention::seal()
#define FSB_SYM_SEAL _ZN8fibersim7machine14LinkContention4sealEv
// machine::LinkContention::foreign_bytes(int, int) const
#define FSB_SYM_FOREIGN_BYTES _ZNK8fibersim7machine14LinkContention13foreign_bytesEii
// core::Runner::run(const ExperimentConfig&, int, RunTier*)
#define FSB_SYM_RUNNER_RUN _ZN8fibersim4core6Runner3runERKNS0_16ExperimentConfigEiPNS0_7RunTierE
// emit_report(const ReportArtifact&, const EmitOptions&, std::ostream&)
#define FSB_SYM_EMIT_REPORT _ZN8fibersim11emit_reportERKNS_14ReportArtifactERKNS_11EmitOptionsERSo
// trace::to_json(const JobPrediction&)
#define FSB_SYM_TO_JSON _ZN8fibersim5trace7to_jsonB5cxx11ERKNS0_13JobPredictionE

#define FSB_CAT_(a, b) a##b
#define FSB_CAT(a, b) FSB_CAT_(a, b)
#define FSB_WRAP(sym) FSB_CAT(__wrap_, sym)
#define FSB_REAL(sym) FSB_CAT(__real_, sym)

namespace fsbench::layers {
namespace {

using namespace fibersim;

enum Counter {
  kNativeRuns, kNativeNs, kOsThreads,
  kCanonCalls, kCanonNs, kCanonClasses, kCanonRankPhases,
  kCollapseClasses, kCollapseNativeRanks, kCollapseNs,
  kPublishCalls, kPublishNs, kBytesWritten, kLoadCalls, kLoadHits, kLoadNs,
  kPredictCalls, kPredictNs,
  kCodegenNs, kExecNs,
  kReplayRefs, kReplayNs,
  kContentionNs, kPairsRouted, kMaxLinkLoad,
  kRunnerCalls, kRunnerRetries, kTierMemo, kTierDisk, kTierNative,
  kRenderCalls, kRenderBytes, kRenderNs, kPayloadNs,
  kTopLevelNs,
  kCounterCount
};

std::array<std::atomic<std::uint64_t>, kCounterCount> g_counters{};
std::atomic<bool> g_on{false};

std::mutex g_durations_mutex;
std::vector<double> g_native_ms;   // guarded by g_durations_mutex
std::vector<double> g_predict_us;  // guarded by g_durations_mutex

thread_local int t_work_depth = 0;

void add(Counter c, std::uint64_t v) {
  g_counters[c].fetch_add(v, std::memory_order_relaxed);
}

std::uint64_t read(Counter c) {
  return g_counters[c].load(std::memory_order_relaxed);
}

double seconds(Counter c) { return static_cast<double>(read(c)) * 1e-9; }

/// One timed call. Work-layer spans track nesting on their thread so the
/// outermost one can be credited to top-level busy time.
class Span {
 public:
  Span(Counter ns, bool work)
      : ns_(ns), work_(work), on_(g_on.load(std::memory_order_relaxed)) {
    if (!on_) return;
    if (work_) ++t_work_depth;
    start_ = std::chrono::steady_clock::now();
  }
  ~Span() { stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  bool on() const { return on_; }

  /// End the span (idempotent); returns its duration in nanoseconds.
  std::uint64_t stop() {
    if (!on_ || stopped_) return elapsed_;
    stopped_ = true;
    elapsed_ = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
    add(ns_, elapsed_);
    if (work_ && --t_work_depth == 0) add(kTopLevelNs, elapsed_);
    return elapsed_;
  }

 private:
  Counter ns_;
  bool work_;
  bool on_;
  bool stopped_ = false;
  std::uint64_t elapsed_ = 0;
  std::chrono::steady_clock::time_point start_;
};

/// The wrapped function, or a loud stop if the linker resolved it to null
/// (the defining archive member was not extracted).
template <class Fn>
Fn* real(Fn* fn, const char* what) {
  if (fn == nullptr) {
    std::fprintf(stderr, "fsbench: traced build cannot reach %s\n", what);
    std::abort();
  }
  return fn;
}

/// Distinct inter-node pairs fed to each live LinkContention on this thread,
/// counted when the contention map is sealed (that is when every distinct
/// pair is routed through the torus once). A LinkContention that receives
/// flows after its address was already sealed is a new object.
struct ContentionPairs {
  bool sealed = false;
  std::set<std::pair<int, int>> pairs;
};
thread_local std::map<const void*, ContentionPairs> t_contention;

}  // namespace

bool linked() {
#ifdef FSBENCH_TRACED
  return true;
#else
  return false;
#endif
}

void enable(bool on) { g_on.store(on, std::memory_order_relaxed); }

void reset() {
  for (auto& c : g_counters) c.store(0, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(g_durations_mutex);
  g_native_ms.clear();
  g_predict_us.clear();
}

Snapshot snapshot() {
  Snapshot s;
  s.native_runs = read(kNativeRuns);
  s.native_s = seconds(kNativeNs);
  s.native_os_threads = read(kOsThreads);
  s.canon_calls = read(kCanonCalls);
  s.canon_s = seconds(kCanonNs);
  s.canon_classes = read(kCanonClasses);
  s.canon_rank_phases = read(kCanonRankPhases);
  s.collapse_classes = read(kCollapseClasses);
  s.collapse_native_ranks = read(kCollapseNativeRanks);
  s.collapse_s = seconds(kCollapseNs);
  s.store_publish_calls = read(kPublishCalls);
  s.store_publish_s = seconds(kPublishNs);
  s.store_bytes_written = read(kBytesWritten);
  s.store_load_calls = read(kLoadCalls);
  s.store_load_hits = read(kLoadHits);
  s.store_load_s = seconds(kLoadNs);
  s.predict_calls = read(kPredictCalls);
  s.predict_s = seconds(kPredictNs);
  s.codegen_s = seconds(kCodegenNs);
  s.exec_s = seconds(kExecNs);
  s.replay_thread_refs = read(kReplayRefs);
  s.replay_s = seconds(kReplayNs);
  s.contention_s = seconds(kContentionNs);
  s.torus_pairs_routed = read(kPairsRouted);
  s.torus_max_link_load = read(kMaxLinkLoad);
  s.runner_calls = read(kRunnerCalls);
  s.runner_retries = read(kRunnerRetries);
  s.tier_memo = read(kTierMemo);
  s.tier_disk = read(kTierDisk);
  s.tier_native = read(kTierNative);
  s.render_calls = read(kRenderCalls);
  s.render_bytes = read(kRenderBytes);
  s.render_s = seconds(kRenderNs);
  s.payload_s = seconds(kPayloadNs);
  s.top_level_s = seconds(kTopLevelNs);
  std::lock_guard<std::mutex> lock(g_durations_mutex);
  s.native_run_ms = g_native_ms;
  s.predict_us = g_predict_us;
  return s;
}

}  // namespace fsbench::layers

using namespace fibersim;
using fsbench::layers::Span;
namespace L = fsbench::layers;

namespace fsbench::layers {
namespace {
template <class Trace, class Fn>
trace::JobPrediction timed_predict(Fn* fn, const machine::ProcessorConfig& cfg,
                                   const cg::CompileOptions& opts,
                                   const topo::Binding& binding,
                                   const Trace& trace,
                                   const trace::PredictMemo& memo) {
  Span span(L::kPredictNs, true);
  trace::JobPrediction out =
      L::real(fn, "trace::predict_job")(cfg, opts, binding, trace, memo);
  if (span.on()) {
    const double us = static_cast<double>(span.stop()) * 1e-3;
    L::add(L::kPredictCalls, 1);
    std::lock_guard<std::mutex> lock(L::g_durations_mutex);
    L::g_predict_us.push_back(us);
  }
  return out;
}
}  // namespace
}  // namespace fsbench::layers

extern "C" {

// ---- native execution (mp, rt) ---------------------------------------------

void FSB_REAL(FSB_SYM_JOB_RUN)(int, const mp::Job::RankFn&,
                               const fault::Session*) __attribute__((weak));
void FSB_WRAP(FSB_SYM_JOB_RUN)(int ranks, const mp::Job::RankFn& fn,
                               const fault::Session* faults) {
  Span span(L::kNativeNs, true);
  L::real(&FSB_REAL(FSB_SYM_JOB_RUN), "mp::Job::run")(ranks, fn, faults);
  if (!span.on()) return;
  const double ms = static_cast<double>(span.stop()) * 1e-6;
  L::add(L::kNativeRuns, 1);
  L::add(L::kOsThreads, static_cast<std::uint64_t>(ranks));
  std::lock_guard<std::mutex> lock(L::g_durations_mutex);
  L::g_native_ms.push_back(ms);
}

std::vector<mp::CommLog> FSB_REAL(FSB_SYM_JOB_RUN_COLLAPSED)(
    const mp::RankSymmetry&, const mp::Job::RankFn&) __attribute__((weak));
std::vector<mp::CommLog> FSB_WRAP(FSB_SYM_JOB_RUN_COLLAPSED)(
    const mp::RankSymmetry& symmetry, const mp::Job::RankFn& fn) {
  Span span(L::kNativeNs, true);
  std::vector<mp::CommLog> logs = L::real(
      &FSB_REAL(FSB_SYM_JOB_RUN_COLLAPSED), "mp::Job::run_collapsed")(symmetry,
                                                                       fn);
  if (!span.on()) return logs;
  const double ms = static_cast<double>(span.stop()) * 1e-6;
  const auto slots = static_cast<std::uint64_t>(symmetry.classes());
  L::add(L::kNativeRuns, 1);
  L::add(L::kOsThreads, slots);
  L::add(L::kCollapseNativeRanks, slots);
  std::lock_guard<std::mutex> lock(L::g_durations_mutex);
  L::g_native_ms.push_back(ms);
  return logs;
}

void FSB_REAL(FSB_SYM_TEAM_CTOR)(rt::ThreadTeam*, int) __attribute__((weak));
void FSB_WRAP(FSB_SYM_TEAM_CTOR)(rt::ThreadTeam* self, int size) {
  L::real(&FSB_REAL(FSB_SYM_TEAM_CTOR), "rt::ThreadTeam::ThreadTeam")(self,
                                                                      size);
  // The master is the calling rank thread; the team starts size - 1 more.
  if (L::g_on.load(std::memory_order_relaxed) && size > 1) {
    L::add(L::kOsThreads, static_cast<std::uint64_t>(size - 1));
  }
}

// ---- canonicalize and collapse (trace, mp) ---------------------------------

trace::CanonicalTrace FSB_REAL(FSB_SYM_CANON_BUILD)(const trace::JobTrace&)
    __attribute__((weak));
trace::CanonicalTrace FSB_WRAP(FSB_SYM_CANON_BUILD)(
    const trace::JobTrace& trace) {
  Span span(L::kCanonNs, true);
  trace::CanonicalTrace out = L::real(&FSB_REAL(FSB_SYM_CANON_BUILD),
                                      "trace::CanonicalTrace::build")(trace);
  if (span.on()) {
    span.stop();
    L::add(L::kCanonCalls, 1);
    L::add(L::kCanonClasses, out.class_count());
    L::add(L::kCanonRankPhases, static_cast<std::uint64_t>(out.ranks()) *
                                    out.phase_count());
  }
  return out;
}

mp::RankSymmetry FSB_REAL(FSB_SYM_SYMMETRY_BUILD)(const mp::CollapseSpec&, int)
    __attribute__((weak));
mp::RankSymmetry FSB_WRAP(FSB_SYM_SYMMETRY_BUILD)(const mp::CollapseSpec& spec,
                                                  int size) {
  Span span(L::kCollapseNs, true);
  mp::RankSymmetry out = L::real(&FSB_REAL(FSB_SYM_SYMMETRY_BUILD),
                                 "mp::RankSymmetry::build")(spec, size);
  if (span.on()) {
    L::add(L::kCollapseClasses, static_cast<std::uint64_t>(out.classes()));
  }
  return out;
}

trace::CollapsedTrace FSB_REAL(FSB_SYM_ASSEMBLE)(mp::RankSymmetry,
                                                 const trace::JobTrace&)
    __attribute__((weak));
trace::CollapsedTrace FSB_WRAP(FSB_SYM_ASSEMBLE)(
    mp::RankSymmetry symmetry, const trace::JobTrace& representatives) {
  Span span(L::kCollapseNs, true);
  return L::real(&FSB_REAL(FSB_SYM_ASSEMBLE), "trace::CollapsedTrace::assemble")(
      std::move(symmetry), representatives);
}

// ---- trace store -----------------------------------------------------------

bool FSB_REAL(FSB_SYM_STORE_STORE)(trace::TraceStore*, const trace::StoreKey&,
                                   const trace::StoredExecution&)
    __attribute__((weak));
bool FSB_WRAP(FSB_SYM_STORE_STORE)(trace::TraceStore* self,
                                   const trace::StoreKey& key,
                                   const trace::StoredExecution& exec) {
  Span span(L::kPublishNs, true);
  const bool ok = L::real(&FSB_REAL(FSB_SYM_STORE_STORE),
                          "trace::TraceStore::store")(self, key, exec);
  if (span.on()) {
    span.stop();
    L::add(L::kPublishCalls, 1);
    std::error_code ec;
    const std::uintmax_t bytes =
        std::filesystem::file_size(self->path_for(key), ec);
    if (ok && !ec) L::add(L::kBytesWritten, bytes);
  }
  return ok;
}

std::optional<trace::StoredExecution> FSB_REAL(FSB_SYM_STORE_LOAD)(
    trace::TraceStore*, const trace::StoreKey&) __attribute__((weak));
std::optional<trace::StoredExecution> FSB_WRAP(FSB_SYM_STORE_LOAD)(
    trace::TraceStore* self, const trace::StoreKey& key) {
  Span span(L::kLoadNs, true);
  std::optional<trace::StoredExecution> out = L::real(
      &FSB_REAL(FSB_SYM_STORE_LOAD), "trace::TraceStore::load")(self, key);
  if (span.on()) {
    L::add(L::kLoadCalls, 1);
    if (out) L::add(L::kLoadHits, 1);
  }
  return out;
}

// ---- prediction and the layers only reached inside it ----------------------


trace::JobPrediction FSB_REAL(FSB_SYM_PREDICT_CANONICAL)(
    const machine::ProcessorConfig&, const cg::CompileOptions&,
    const topo::Binding&, const trace::CanonicalTrace&,
    const trace::PredictMemo&) __attribute__((weak));
trace::JobPrediction FSB_WRAP(FSB_SYM_PREDICT_CANONICAL)(
    const machine::ProcessorConfig& cfg, const cg::CompileOptions& opts,
    const topo::Binding& binding, const trace::CanonicalTrace& trace,
    const trace::PredictMemo& memo) {
  return L::timed_predict(&FSB_REAL(FSB_SYM_PREDICT_CANONICAL), cfg, opts,
                       binding, trace, memo);
}

trace::JobPrediction FSB_REAL(FSB_SYM_PREDICT_COLLAPSED)(
    const machine::ProcessorConfig&, const cg::CompileOptions&,
    const topo::Binding&, const trace::CollapsedTrace&,
    const trace::PredictMemo&) __attribute__((weak));
trace::JobPrediction FSB_WRAP(FSB_SYM_PREDICT_COLLAPSED)(
    const machine::ProcessorConfig& cfg, const cg::CompileOptions& opts,
    const topo::Binding& binding, const trace::CollapsedTrace& trace,
    const trace::PredictMemo& memo) {
  return L::timed_predict(&FSB_REAL(FSB_SYM_PREDICT_COLLAPSED), cfg, opts,
                       binding, trace, memo);
}

isa::WorkEstimate FSB_REAL(FSB_SYM_CODEGEN_APPLY)(cg::CodegenCache*,
                                                  const cg::CompileOptions&,
                                                  const isa::WorkEstimate&,
                                                  std::uint64_t)
    __attribute__((weak));
isa::WorkEstimate FSB_WRAP(FSB_SYM_CODEGEN_APPLY)(
    cg::CodegenCache* self, const cg::CompileOptions& opts,
    const isa::WorkEstimate& work, std::uint64_t work_h) {
  Span span(L::kCodegenNs, true);
  return L::real(&FSB_REAL(FSB_SYM_CODEGEN_APPLY), "cg::CodegenCache::apply")(
      self, opts, work, work_h);
}

machine::WorkEval FSB_REAL(FSB_SYM_WORK_EVAL)(machine::EvalCache*,
                                              const machine::ExecModel&,
                                              std::uint64_t,
                                              const isa::WorkEstimate&,
                                              std::uint64_t)
    __attribute__((weak));
machine::WorkEval FSB_WRAP(FSB_SYM_WORK_EVAL)(machine::EvalCache* self,
                                              const machine::ExecModel& exec,
                                              std::uint64_t token,
                                              const isa::WorkEstimate& work,
                                              std::uint64_t work_h) {
  Span span(L::kExecNs, true);
  return L::real(&FSB_REAL(FSB_SYM_WORK_EVAL), "machine::EvalCache::work_eval")(
      self, exec, token, work, work_h);
}

machine::PhaseTime FSB_REAL(FSB_SYM_PHASE_REFS)(
    const machine::ExecModel*, const std::vector<machine::ThreadRef>&)
    __attribute__((weak));
machine::PhaseTime FSB_WRAP(FSB_SYM_PHASE_REFS)(
    const machine::ExecModel* self,
    const std::vector<machine::ThreadRef>& threads) {
  Span span(L::kReplayNs, true);
  if (span.on()) L::add(L::kReplayRefs, threads.size());
  return L::real(&FSB_REAL(FSB_SYM_PHASE_REFS),
                 "machine::ExecModel::evaluate_phase_refs")(self, threads);
}

void FSB_REAL(FSB_SYM_ADD_FLOW)(machine::LinkContention*, int, int,
                                std::uint64_t) __attribute__((weak));
void FSB_WRAP(FSB_SYM_ADD_FLOW)(machine::LinkContention* self, int src,
                                int dst, std::uint64_t bytes) {
  Span span(L::kContentionNs, true);
  if (span.on() && src != dst && bytes != 0) {
    L::ContentionPairs& state = L::t_contention[self];
    if (state.sealed) state = {};
    state.pairs.emplace(src, dst);
  }
  L::real(&FSB_REAL(FSB_SYM_ADD_FLOW), "machine::LinkContention::add_flow")(
      self, src, dst, bytes);
}

void FSB_REAL(FSB_SYM_SEAL)(machine::LinkContention*) __attribute__((weak));
void FSB_WRAP(FSB_SYM_SEAL)(machine::LinkContention* self) {
  Span span(L::kContentionNs, true);
  L::real(&FSB_REAL(FSB_SYM_SEAL), "machine::LinkContention::seal")(self);
  if (!span.on()) return;
  L::ContentionPairs& state = L::t_contention[self];
  if (state.sealed) state = {};  // a new object that never saw a flow
  L::add(L::kPairsRouted, state.pairs.size());
  state.pairs.clear();
  state.sealed = true;
  const std::uint64_t load = self->max_link_load();
  std::uint64_t seen = L::read(L::kMaxLinkLoad);
  while (load > seen && !L::g_counters[L::kMaxLinkLoad].compare_exchange_weak(
                            seen, load, std::memory_order_relaxed)) {
  }
}

std::uint64_t FSB_REAL(FSB_SYM_FOREIGN_BYTES)(const machine::LinkContention*,
                                              int, int) __attribute__((weak));
std::uint64_t FSB_WRAP(FSB_SYM_FOREIGN_BYTES)(
    const machine::LinkContention* self, int src, int dst) {
  Span span(L::kContentionNs, true);
  return L::real(&FSB_REAL(FSB_SYM_FOREIGN_BYTES),
                 "machine::LinkContention::foreign_bytes")(self, src, dst);
}

// ---- runner ----------------------------------------------------------------

core::ExperimentResult FSB_REAL(FSB_SYM_RUNNER_RUN)(
    core::Runner*, const core::ExperimentConfig&, int, core::RunTier*)
    __attribute__((weak));
core::ExperimentResult FSB_WRAP(FSB_SYM_RUNNER_RUN)(
    core::Runner* self, const core::ExperimentConfig& config, int attempt,
    core::RunTier* tier) {
  auto* fn = L::real(&FSB_REAL(FSB_SYM_RUNNER_RUN), "core::Runner::run");
  if (!L::g_on.load(std::memory_order_relaxed)) {
    return fn(self, config, attempt, tier);
  }
  // Callers that do not ask for the tier still get it counted.
  core::RunTier local = core::RunTier::kMemo;
  core::RunTier* out = tier != nullptr ? tier : &local;
  core::ExperimentResult result = fn(self, config, attempt, out);
  L::add(L::kRunnerCalls, 1);
  if (attempt > 0) L::add(L::kRunnerRetries, 1);
  switch (*out) {
    case core::RunTier::kMemo: L::add(L::kTierMemo, 1); break;
    case core::RunTier::kDisk: L::add(L::kTierDisk, 1); break;
    case core::RunTier::kNative: L::add(L::kTierNative, 1); break;
  }
  return result;
}

// ---- rendering -------------------------------------------------------------

void FSB_REAL(FSB_SYM_EMIT_REPORT)(const ReportArtifact&, const EmitOptions&,
                                   std::ostream&) __attribute__((weak));
void FSB_WRAP(FSB_SYM_EMIT_REPORT)(const ReportArtifact& artifact,
                                   const EmitOptions& opts, std::ostream& os) {
  Span span(L::kRenderNs, true);
  const std::streampos before = span.on() ? os.tellp() : std::streampos(-1);
  L::real(&FSB_REAL(FSB_SYM_EMIT_REPORT), "emit_report")(artifact, opts, os);
  if (!span.on()) return;
  L::add(L::kRenderCalls, 1);
  const std::streampos after = os.tellp();
  if (before != std::streampos(-1) && after != std::streampos(-1)) {
    L::add(L::kRenderBytes, static_cast<std::uint64_t>(after - before));
  }
}

std::string FSB_REAL(FSB_SYM_TO_JSON)(const trace::JobPrediction&)
    __attribute__((weak));
std::string FSB_WRAP(FSB_SYM_TO_JSON)(const trace::JobPrediction& prediction) {
  Span span(L::kPayloadNs, true);
  return L::real(&FSB_REAL(FSB_SYM_TO_JSON), "trace::to_json")(prediction);
}

}  // extern "C"
