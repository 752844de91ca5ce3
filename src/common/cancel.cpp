#include "common/cancel.hpp"

#include <utility>

#include "common/error.hpp"

namespace fibersim::cancel {
namespace {

thread_local Token* g_current = nullptr;

}  // namespace

[[gnu::noinline]] Token** current_slot() {
  Token** slot = &g_current;
  asm volatile("" : "+r"(slot));
  return slot;
}

void Token::cancel(std::string_view reason) {
  {
    std::lock_guard<std::mutex> lock(reason_mutex_);
    if (reason_.empty()) reason_.assign(reason.begin(), reason.end());
  }
  cancelled_.store(true, std::memory_order_release);
}

bool Token::expired() const {
  if (cancelled_.load(std::memory_order_acquire)) return true;
  const std::int64_t ns = deadline_ns_.load(std::memory_order_acquire);
  if (ns == kNoDeadline) return false;
  return Clock::now().time_since_epoch().count() >= ns;
}

std::string Token::reason() const {
  if (cancelled_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(reason_mutex_);
    if (!reason_.empty()) return reason_;
  }
  if (expired()) return "deadline exceeded";
  return "";
}

Scope::Scope(std::shared_ptr<Token> token)
    : token_(std::move(token)), previous_(current()) {
  if (token_) *current_slot() = token_.get();
}

Scope::~Scope() {
  if (token_) *current_slot() = previous_;
}

Token* current() { return *current_slot(); }

void checkpoint() {
  const Token* token = current();
  if (token == nullptr || !token->expired()) return;
  std::string reason = token->reason();
  if (reason.empty()) reason = "deadline exceeded";
  throw Error(std::string(kCancelMarker) + " " + reason);
}

bool is_cancelled(std::string_view what) {
  const std::string_view marker(kCancelMarker);
  return what.size() >= marker.size() &&
         what.substr(0, marker.size()) == marker;
}

}  // namespace fibersim::cancel
