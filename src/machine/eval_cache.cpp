#include "machine/eval_cache.hpp"

#include "cg/codegen_model.hpp"
#include "common/error.hpp"

namespace fibersim::machine {

namespace {

// A token is (context index << 32) | thread share.
constexpr int kShareBits = 32;
constexpr std::uint64_t kShareMask = (std::uint64_t{1} << kShareBits) - 1;

}  // namespace

WorkEval EvalCache::evaluate(const ExecModel& exec,
                             const cg::CompileOptions& opts, int share,
                             const isa::WorkEstimate& work) {
  const isa::WorkEstimate generated = cg::apply(opts, work);
  return exec.evaluate_work(
      share > 1 ? generated.scaled(1.0 / static_cast<double>(share))
                : generated);
}

std::uint64_t EvalCache::context_token(const ProcessorConfig& cfg,
                                       const cg::CompileOptions& opts) {
  const std::uint64_t fp = opts.fingerprint();
  // Exact registration: the processor by field-wise equality, the options
  // by their collision-free fingerprint, confirmed with operator==.
  const auto processor_of = [&] {
    std::uint64_t proc = 0;
    while (proc < processors_.size() && !(processors_[proc] == cfg)) ++proc;
    return proc;
  };
  const auto token_of = [&](std::uint64_t index) {
    FS_REQUIRE(contexts_[index] == opts,
               "compile options fingerprint is not exact");
    return (index << kShareBits) | 1;
  };
  {
    std::shared_lock<std::shared_mutex> lock(context_mutex_);
    const auto it = context_index_.find({processor_of(), fp});
    if (it != context_index_.end()) return token_of(it->second);
  }
  std::unique_lock<std::shared_mutex> lock(context_mutex_);
  const std::uint64_t proc = processor_of();
  if (proc == processors_.size()) processors_.push_back(cfg);
  const auto [it, inserted] =
      context_index_.try_emplace({proc, fp}, contexts_.size());
  if (inserted) contexts_.push_back(opts);
  return token_of(it->second);
}

std::uint64_t EvalCache::with_share(std::uint64_t context, int share) {
  FS_REQUIRE(share >= 1, "thread share must be positive");
  return (context & ~kShareMask) | static_cast<std::uint64_t>(share);
}

std::size_t EvalCache::processors() const {
  std::shared_lock<std::shared_mutex> lock(context_mutex_);
  return processors_.size();
}

const EvalCache::Node* EvalCache::find(const Node* node,
                                       std::uint64_t context,
                                       const isa::WorkEstimate& work,
                                       std::uint64_t work_h) {
  while (node != nullptr &&
         !(node->context == context && node->work_h == work_h &&
           isa::exactly_equal(node->work, work))) {
    node = node->next;
  }
  return node;
}

WorkEval EvalCache::work_eval(const ExecModel& exec, std::uint64_t context,
                              const isa::WorkEstimate& work,
                              std::uint64_t work_h) {
  // A 64-bit finalizer over (token, hash) spreads contexts over the table.
  std::uint64_t h = work_h ^ (context * 0x9E3779B97F4A7C15ull);
  h = (h ^ (h >> 29)) * 0xBF58476D1CE4E5B9ull;
  const std::size_t b = static_cast<std::size_t>((h ^ (h >> 32)) % kBuckets);
  std::atomic<const Node*>& head = heads_[b];
  // Hit: no lock. The acquire load pairs with the release store that
  // published the head, which makes every older node of the chain visible.
  if (const Node* hit =
          find(head.load(std::memory_order_acquire), context, work, work_h)) {
    return hit->eval;
  }

  // Miss: rescan and compute under the stripe lock, so a concurrent caller
  // with the same input blocks here and then hits — evals_ counts unique
  // inputs. Every insert into this bucket happens under this lock.
  Stripe& stripe = stripes_[b % kStripes];
  std::lock_guard<std::mutex> lock(stripe.mutex);
  const Node* first = head.load(std::memory_order_relaxed);
  if (const Node* hit = find(first, context, work, work_h)) return hit->eval;
  cg::CompileOptions opts;
  {
    std::shared_lock<std::shared_mutex> ctx_lock(context_mutex_);
    FS_REQUIRE((context >> kShareBits) < contexts_.size(),
               "work_eval: context token was not issued by this memo");
    opts = contexts_[context >> kShareBits];
  }
  const int share = static_cast<int>(context & kShareMask);
  const Node& node = stripe.nodes.emplace_back(
      Node{first, context, work_h, work, evaluate(exec, opts, share, work)});
  head.store(&node, std::memory_order_release);
  evals_.fetch_add(1, std::memory_order_release);
  return node.eval;
}

}  // namespace fibersim::machine
