// EvalCache — the stage-1 prediction memo: one lookup from (processor,
// compile options, thread share, class work) to the WorkEval of the class's
// generated per-thread work. A hit costs no codegen, no hashing and one
// bitwise compare.
//
//   * context_token() registers the exact (processor, options) pair by
//     field-wise equality; with_share() packs the thread share into the
//     token losslessly, so equal tokens mean equal contexts.
//   * work_eval() finds the entry by (token, class work hash) and verifies
//     the class work bitwise (isa::exactly_equal): a hash collision costs a
//     chain scan, never a wrong answer. A miss computes evaluate(), the
//     memo-free path's expression, so cached and fresh results share bits.
//
// Thread-safe. The table is insert-only: fixed atomic bucket heads publish
// immutable nodes (release store, acquire load), so a hit takes no lock. A
// miss rescans and computes under the bucket's stripe lock, so evals()
// equals the number of distinct inputs whatever the interleaving. Callers
// count lookups in bulk (count_lookups(), one add per predict) before
// issuing them, so hits() = lookups() - evals() never underflows.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <utility>
#include <vector>

#include "cg/compile_options.hpp"
#include "isa/work_estimate.hpp"
#include "machine/exec_model.hpp"
#include "machine/processor.hpp"

namespace fibersim::machine {

class EvalCache {
 public:
  EvalCache() = default;
  EvalCache(const EvalCache&) = delete;
  EvalCache& operator=(const EvalCache&) = delete;

  /// The stage-1 value of one class: codegen under `opts`, the even split
  /// over `share` threads (share > 1 only), then the work evaluation. The
  /// memo-free path and every memo miss run exactly this.
  static WorkEval evaluate(const ExecModel& exec,
                           const cg::CompileOptions& opts, int share,
                           const isa::WorkEstimate& work);

  /// Registers the exact (cfg, opts) pair and returns its token (share 1).
  /// Validates `opts` (through its fingerprint). Call once per predict.
  std::uint64_t context_token(const ProcessorConfig& cfg,
                              const cg::CompileOptions& opts);
  /// The token of the same context with the work split over `share` threads.
  static std::uint64_t with_share(std::uint64_t context, int share);

  /// Records `n` work_eval() calls about to be issued.
  void count_lookups(std::size_t n) {
    lookups_.fetch_add(n, std::memory_order_relaxed);
  }

  /// Memoized evaluate(exec, opts, share, work) for the context `context`
  /// names. `exec` must model that context's processor; `work_h` must be
  /// isa::work_hash(work) (the class records carry it precomputed).
  WorkEval work_eval(const ExecModel& exec, std::uint64_t context,
                     const isa::WorkEstimate& work, std::uint64_t work_h);

  /// Distinct inputs actually evaluated. Deterministic.
  std::size_t evals() const { return evals_.load(std::memory_order_acquire); }
  /// Lookups counted through count_lookups().
  std::size_t lookups() const {
    return lookups_.load(std::memory_order_relaxed);
  }
  /// Lookups served from the memo (acquire evals() first: see above).
  std::size_t hits() const {
    const std::size_t evals = this->evals();
    return lookups() - evals;
  }
  /// Distinct processors registered so far.
  std::size_t processors() const;

 private:
  /// One memo entry; immutable once published.
  struct Node {
    const Node* next;
    std::uint64_t context;
    std::uint64_t work_h;
    isa::WorkEstimate work;
    WorkEval eval;
  };
  /// A bucket stripe's insert lock and node storage (stable addresses).
  struct alignas(64) Stripe {
    std::mutex mutex;
    std::deque<Node> nodes;
  };
  static constexpr std::size_t kBuckets = std::size_t{1} << 16;
  static constexpr std::size_t kStripes = 64;

  static const Node* find(const Node* node, std::uint64_t context,
                          const isa::WorkEstimate& work, std::uint64_t work_h);

  mutable std::shared_mutex context_mutex_;
  std::vector<ProcessorConfig> processors_;
  std::vector<cg::CompileOptions> contexts_;  // by token >> 32
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t>
      context_index_;  // (processor, options fingerprint) -> contexts_ index

  std::unique_ptr<std::atomic<const Node*>[]> heads_ =
      std::make_unique<std::atomic<const Node*>[]>(kBuckets);
  std::array<Stripe, kStripes> stripes_;
  std::atomic<std::size_t> evals_{0};
  std::atomic<std::size_t> lookups_{0};
};

}  // namespace fibersim::machine
