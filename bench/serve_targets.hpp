// The predict mix shared by the serve benches (perf_serve, perf_resilience):
// every client cycles through kTargets. Two apps x two splits = four unique
// execution keys, so coalescing and both cache tiers are exercised at any
// client count.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"
#include "core/config_parse.hpp"
#include "core/experiment.hpp"

namespace fibersim::bench {

struct Target {
  std::string app;
  int ranks;
  int threads;
  std::string dataset = "small";
  int iterations = 1;  ///< 0 = left out (the server default)
};

inline const std::vector<Target> kTargets = {
    {"ffvc", 2, 2}, {"ffvc", 4, 2}, {"ffb", 2, 2}, {"ffb", 4, 2}};

/// One predict request line for `t`. The correlation `id`, the `seed` and
/// the `deadline_ms` are left out when empty / 0.
inline std::string predict_line(const Target& t, std::string_view id,
                                std::uint64_t seed = 0, int deadline_ms = 0) {
  json::Emitter w;
  w.object(json::Layout::kCompact);
  w.str("verb", "predict");
  if (!id.empty()) w.str("id", id);
  w.str("app", t.app);
  w.str("dataset", t.dataset);
  w.i64("ranks", t.ranks);
  w.i64("threads", t.threads);
  if (t.iterations > 0) w.i64("iterations", t.iterations);
  if (seed != 0) w.u64("seed", seed);
  if (deadline_ms > 0) w.i64("deadline_ms", deadline_ms);
  return std::move(w).finish();
}

/// The config predict_line asks for, built by hand rather than through the
/// request parser, so the benches check the parser against a reference.
inline core::ExperimentConfig config_of(const Target& t) {
  core::ExperimentConfig cfg;
  cfg.app = t.app;
  cfg.dataset = core::parse_dataset(t.dataset);
  cfg.ranks = t.ranks;
  cfg.threads = t.threads;
  if (t.iterations > 0) cfg.iterations = t.iterations;
  return cfg;
}

/// Extract the payload of an ok:true response: everything after the single
/// `"payload":` key (always the last key, by the codec contract), minus the
/// closing brace. "" when the response carries no payload.
inline std::string payload_of(const std::string& response) {
  const std::string marker = "\"payload\":";
  const std::size_t pos = response.find(marker);
  if (pos == std::string::npos || response.empty() ||
      response.back() != '}') {
    return "";
  }
  return response.substr(pos + marker.size(),
                         response.size() - pos - marker.size() - 1);
}

}  // namespace fibersim::bench
