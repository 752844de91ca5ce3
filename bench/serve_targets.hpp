// The predict mix shared by the serve benches (perf_serve, perf_resilience):
// every client cycles through kTargets. Two apps x two splits = four unique
// execution keys, so coalescing and both cache tiers are exercised at any
// client count.
#pragma once

#include <string>
#include <vector>

#include "common/string_util.hpp"
#include "core/experiment.hpp"

namespace fibersim::bench {

struct Target {
  std::string app;
  int ranks;
  int threads;
};

inline const std::vector<Target> kTargets = {
    {"ffvc", 2, 2}, {"ffvc", 4, 2}, {"ffb", 2, 2}, {"ffb", 4, 2}};

/// One predict request line for `t`, tagged with the correlation `id`.
inline std::string predict_line(const Target& t, const std::string& id) {
  return strfmt("{\"verb\":\"predict\",\"id\":\"%s\",\"app\":\"%s\","
                "\"dataset\":\"small\",\"ranks\":%d,\"threads\":%d,"
                "\"iterations\":1}",
                id.c_str(), t.app.c_str(), t.ranks, t.threads);
}

/// The config predict_line asks for, built by hand rather than through the
/// request parser, so the benches check the parser against a reference.
inline core::ExperimentConfig config_of(const Target& t) {
  core::ExperimentConfig cfg;
  cfg.app = t.app;
  cfg.dataset = apps::Dataset::kSmall;
  cfg.ranks = t.ranks;
  cfg.threads = t.threads;
  cfg.iterations = 1;
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
