#include "core/runner.hpp"

#include <chrono>
#include <mutex>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "common/string_util.hpp"
#include "fault/fault.hpp"
#include "mp/job.hpp"
#include "rt/thread_team.hpp"

namespace fibersim::core {

namespace {

/// The body every native rank runs, full or collapsed: the app on a fresh
/// team and recorder. Each rank stores its phases in its slot of `traces`
/// and folds its result into `stored` (`verified` is the AND over ranks;
/// virtual rank 0 supplies the check value).
struct NativeRanks {
  NativeRanks(const ExperimentConfig& config_in,
              const fault::Session* faults_in,
              trace::StoredExecution& stored_in, std::size_t slots)
      : config(config_in),
        faults(faults_in),
        stored(stored_in),
        traces(slots) {
    stored.verified = true;
  }

  void run(mp::Comm& comm, std::size_t slot) {
    rt::ThreadTeam team(config.threads);
    if (faults != nullptr) {
      team.set_faults(faults, static_cast<std::uint64_t>(comm.rank()));
    }
    trace::Recorder recorder(&comm);
    apps::RunContext ctx;
    ctx.comm = &comm;
    ctx.team = &team;
    ctx.recorder = &recorder;
    ctx.dataset = config.dataset;
    ctx.seed = config.seed;
    ctx.iterations = config.iterations;
    ctx.weak_scale = config.weak_scale;

    const apps::RunResult result = apps::create_miniapp(config.app)->run(ctx);

    traces[slot] = recorder.phases();
    std::lock_guard<std::mutex> lock(mutex);
    stored.verified = stored.verified && result.verified;
    if (comm.rank() == 0) {
      stored.check_value = result.check_value;
      stored.check_description = result.check_description;
    }
  }

  const ExperimentConfig& config;
  const fault::Session* faults;
  trace::StoredExecution& stored;
  trace::JobTrace traces;
  std::mutex mutex;
};

/// The rank symmetry of `config`'s app at `config.ranks`; throws when the
/// app declares none.
mp::RankSymmetry collapse_symmetry(const ExperimentConfig& config) {
  const auto app = apps::create_miniapp(config.app);
  const mp::CollapseSpec spec =
      app->collapse_spec(config.dataset, config.weak_scale);
  if (!spec.collapsible()) {
    throw Error(config.app + ": app declares no rank symmetry");
  }
  return mp::RankSymmetry::build(spec, config.ranks);
}

}  // namespace

trace::StoreKey Runner::execution_key(const ExperimentConfig& config) {
  trace::StoreKey key;
  key.app = config.app;
  key.dataset = static_cast<int>(config.dataset);
  key.ranks = config.ranks;
  key.threads = config.threads;
  key.iterations = config.iterations;
  key.weak_scale = config.weak_scale;
  key.collapse = config.collapse ? 1 : 0;
  key.seed = config.seed;
  return key;
}

void Runner::set_trace_store(std::shared_ptr<trace::TraceStore> store) {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  store_ = std::move(store);
}

void Runner::count_collapsed(const ExperimentConfig& config, int classes) {
  collapse_classes_.fetch_add(static_cast<std::size_t>(classes),
                              std::memory_order_relaxed);
  collapse_replicated_.fetch_add(
      static_cast<std::size_t>(config.ranks - classes),
      std::memory_order_relaxed);
}

Runner::Execution Runner::run_native_collapsed(const ExperimentConfig& config) {
  mp::RankSymmetry symmetry = collapse_symmetry(config);
  const int classes = symmetry.classes();
  FS_LOG(kInfo) << "collapsed native run: " << config.app << "/"
                << apps::dataset_name(config.dataset) << " " << config.ranks
                << "x" << config.threads << " -> " << classes
                << " representative rank(s)";

  Execution exec;
  NativeRanks ranks(config, nullptr, exec.stored,
                    static_cast<std::size_t>(classes));
  mp::Job::run_collapsed(symmetry, [&](mp::Comm& comm) {
    // comm.rank() is the representative's *virtual* rank; its slot is the
    // class id.
    ranks.run(comm, static_cast<std::size_t>(symmetry.class_of(comm.rank())));
  });

  // Throws when a send cannot be factored on the grid; the caller falls
  // back to full simulation.
  exec.collapsed =
      trace::CollapsedTrace::assemble(std::move(symmetry), ranks.traces);
  exec.is_collapsed = true;
  // Canonical form of the representative slots — what the tier-2 store
  // persists; the virtual job is re-assembled at load (rehydrate_collapsed).
  exec.stored.canonical = trace::CanonicalTrace::build(ranks.traces);

  count_collapsed(config, classes);
  collapse_native_ranks_.fetch_add(static_cast<std::size_t>(classes),
                                   std::memory_order_relaxed);
  return exec;
}

void Runner::rehydrate_collapsed(const ExperimentConfig& config,
                                 Execution& exec) {
  mp::RankSymmetry symmetry = collapse_symmetry(config);
  const int classes = symmetry.classes();
  FS_REQUIRE(exec.stored.canonical.ranks() == classes,
             "stored collapsed trace does not match the app's rank symmetry");
  exec.collapsed = trace::CollapsedTrace::assemble(
      std::move(symmetry), exec.stored.canonical.expand());
  exec.is_collapsed = true;
  count_collapsed(config, classes);
}

Runner::Execution Runner::run_native(const ExperimentConfig& config,
                                     int attempt) {
  if (config.collapse) {
    if (fault::enabled() && fault::active() != nullptr) {
      // Fault plans perturb individual physical ranks; a collapsed run would
      // replicate the perturbation to a whole class. Run full instead.
      FS_LOG(kWarn) << "fault plan active: running " << config.app
                    << " without rank collapse";
    } else {
      try {
        return run_native_collapsed(config);
      } catch (const Error& e) {
        FS_LOG(kWarn) << "rank collapse unavailable for "
                      << config.label() << ": " << e.what()
                      << "; falling back to full simulation";
      }
    }
  }
  FS_LOG(kInfo) << "native run: " << config.app << "/"
                << apps::dataset_name(config.dataset) << " " << config.ranks
                << "x" << config.threads
                << (attempt > 0 ? strfmt(" (attempt %d)", attempt) : "");

  // Fault context for this attempt (cheap no-op construction when no plan
  // is installed: one relaxed atomic load).
  fault::Session session;
  const fault::Session* faults = nullptr;
  if (fault::enabled()) {
    session = fault::Session(fault::active(), execution_key(config).hash(),
                             attempt);
    if (session.plan() != nullptr) {
      faults = &session;
      if (session.should_fail_native_run()) {
        throw Error(strfmt("%s: native run failure (attempt %d of %s)",
                           fault::kInjectedMarker, attempt,
                           config.label().c_str()));
      }
    }
  }

  Execution exec;
  NativeRanks ranks(config, faults, exec.stored,
                    static_cast<std::size_t>(config.ranks));
  mp::Job::run(
      config.ranks,
      [&](mp::Comm& comm) {
        ranks.run(comm, static_cast<std::size_t>(comm.rank()));
      },
      faults);

  // Canonicalize at admission: validates the SPMD agreement contract once
  // and compacts rank duplicates, so predictions never re-check or re-scan
  // the raw ranks x phases trace.
  exec.stored.canonical = trace::CanonicalTrace::build(ranks.traces);
  return exec;
}

const char* run_tier_name(RunTier tier) {
  switch (tier) {
    case RunTier::kMemo: return "memo";
    case RunTier::kDisk: return "disk";
    case RunTier::kNative: return "native";
  }
  return "?";
}

std::shared_ptr<const Runner::Execution> Runner::execute(
    const ExperimentConfig& config, RunTier* tier) {
  const trace::StoreKey key = execution_key(config);
  std::shared_ptr<Entry> entry;
  std::shared_ptr<trace::TraceStore> store;
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    std::shared_ptr<Entry>& slot = cache_[key];
    if (!slot) slot = std::make_shared<Entry>();
    entry = slot;
    store = store_;
  }
  // The persistent tier is bypassed whenever a fault plan is installed: a
  // faulted native run must never publish its (possibly perturbed) trace,
  // and a warm load must never mask the injection the plan asked for.
  const bool use_store = store != nullptr && !fault::enabled();

  // Claim-or-wait loop. Exactly one caller runs natively at a time per key;
  // everyone else waits. A throwing run releases the claim with the entry
  // still pending, so the first caller to wake (or arrive) retries — the
  // entry is never wedged by a failure.
  std::unique_lock<std::mutex> lock(entry->mutex);
  while (true) {
    if (entry->done) {
      // Tier-1 hit — either the entry was already complete or this caller
      // coalesced onto another thread's in-flight run; only the claimant
      // that executed reports native/disk.
      if (tier != nullptr) *tier = RunTier::kMemo;
      return {entry, &entry->exec};
    }
    if (entry->running) {
      // Bounded wait so a waiter with an expired cancellation token can
      // leave the queue instead of blocking forever behind a slow leader.
      // Throwing here (checkpoint) is safe: this caller holds no claim.
      entry->waiters.wait_until(
          lock, rt::Clock::now() + std::chrono::milliseconds(100));
      cancel::checkpoint();
      continue;
    }
    entry->running = true;
    const int attempt = entry->attempts++;
    lock.unlock();
    try {
      // A cancelled leader must not start the run; throwing inside the try
      // releases the claim below, so waiters retry instead of hanging — a
      // cancelled leader never poisons the coalescing entry.
      cancel::checkpoint();
      Execution exec;
      bool from_disk = false;
      if (use_store) {
        // Tier-2 lookup inside the claim: at most one loader per key, and
        // waiters read the completed entry exactly as for a native run. A
        // corrupt or missing file simply falls through to run_native.
        if (std::optional<trace::StoredExecution> stored =
                store->load(key)) {
          exec.stored = std::move(*stored);
          from_disk = true;
          if (config.collapse) {
            // The store holds the representative slots; re-derive the
            // symmetry and assemble the virtual job. A spec that drifted
            // since the file was written falls back to a native run.
            try {
              rehydrate_collapsed(config, exec);
            } catch (const Error& e) {
              FS_LOG(kWarn) << "stored collapsed trace rejected for "
                            << config.label() << ": " << e.what();
              exec = Execution{};
              from_disk = false;
            }
          }
        }
      }
      if (from_disk) {
        disk_hits_.fetch_add(1, std::memory_order_relaxed);
      } else {
        exec = run_native(config, attempt);
        if (use_store) {
          // Publish only after a clean, complete native run (a throwing run
          // never reaches this line, so no poisoned trace can land on disk).
          if (store->store(key, exec.stored)) {
            disk_writes_.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
      lock.lock();
      entry->exec = std::move(exec);
      entry->done = true;
      entry->running = false;
      if (!from_disk) {
        native_runs_.fetch_add(1, std::memory_order_relaxed);
      }
      if (tier != nullptr) {
        *tier = from_disk ? RunTier::kDisk : RunTier::kNative;
      }
      entry->waiters.notify_all(lock);
      return {entry, &entry->exec};
    } catch (...) {
      lock.lock();
      entry->running = false;
      entry->waiters.notify_all(lock);
      throw;
    }
  }
}

trace::JobTrace Runner::expanded_trace(const ExperimentConfig& config) {
  config.validate();
  const std::shared_ptr<const Execution> exec = execute(config, nullptr);
  return exec->is_collapsed ? exec->collapsed.expand()
                            : exec->stored.canonical.expand();
}

ExperimentResult Runner::run(const ExperimentConfig& config, int attempt,
                             RunTier* tier) {
  const Placement placement{config.alloc, config.bind};
  PresetResults placed = run_presets(config, {&placement, 1},
                                     {&config.compile, 1}, attempt, tier);
  ExperimentResult result;
  result.config = config;
  result.prediction = std::move(placed.predictions.front());
  result.verified = placed.verified;
  result.check_value = placed.check_value;
  result.check_description = std::move(placed.check_description);
  result.power = placed.power.front();
  return result;
}

PresetResults Runner::run_presets(const ExperimentConfig& config,
                                  std::span<const Placement> placements,
                                  std::span<const cg::CompileOptions> presets,
                                  int attempt, RunTier* tier) {
  config.validate();
  FS_REQUIRE(!placements.empty(), "run_presets needs a placement");
  cancel::checkpoint();

  // Deterministic prediction-failure injection: fires for the first
  // plan.predict_fail attempts of any task, before the native run so a
  // keep-going sweep that exhausts retries has not burned an execution slot.
  if (fault::enabled()) {
    const std::shared_ptr<const fault::Plan> plan = fault::active();
    if (plan != nullptr && attempt < plan->predict_fail) {
      fault::Log::record(strfmt("predict.fail config=%s attempt=%d",
                                config.label().c_str(), attempt));
      throw Error(strfmt("%s: prediction failure (attempt %d of %s)",
                         fault::kInjectedMarker, attempt,
                         config.label().c_str()));
    }
  }

  const std::shared_ptr<const Execution> exec = execute(config, tier);

  const topo::Topology topology(config.processor.shape, config.nodes);
  std::vector<topo::Binding> bindings;
  bindings.reserve(placements.size());
  for (const Placement& placement : placements) {
    bindings.push_back(topo::Binding::make(topology, config.ranks,
                                           config.threads, placement.alloc,
                                           placement.bind));
  }

  PresetResults out;
  const trace::PredictMemo memo{&stage1_memo_};
  const auto predict = [&](const auto& form) {
    // One placement under one preset goes through predict_job, the
    // one-preset, one-binding call of the same engine (same bits):
    // fsbench's traced build wraps that entry point.
    if (bindings.size() == 1 && presets.size() == 1) {
      out.predictions.push_back(trace::predict_job(
          config.processor, presets.front(), bindings.front(), form, memo));
    } else {
      out.predictions = trace::predict_presets(config.processor, presets,
                                               bindings, form, memo);
    }
  };
  if (exec->is_collapsed) {
    predict(exec->collapsed);
  } else {
    predict(exec->stored.canonical);
  }
  out.verified = exec->stored.verified;
  out.check_value = exec->stored.check_value;
  out.check_description = exec->stored.check_description;

  const int active_cores_per_node =
      (config.ranks * config.threads + config.nodes - 1) / config.nodes;
  const double nominal = config.nominal_freq_hz > 0.0
                             ? config.nominal_freq_hz
                             : config.processor.freq_hz;
  out.power.reserve(out.predictions.size());
  for (const trace::JobPrediction& prediction : out.predictions) {
    machine::PhaseTime aggregate;
    aggregate.total_s = prediction.total_s;
    aggregate.flops = prediction.flops;
    aggregate.dram_bytes = prediction.dram_bytes;
    out.power.push_back(machine::estimate_power(
        config.processor, aggregate, active_cores_per_node, nominal));
  }
  return out;
}

}  // namespace fibersim::core
