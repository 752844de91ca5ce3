// Serialization of traces and predictions to compact JSON (json::Emitter,
// %.17g doubles) so external tooling — plotting scripts, regression diffing —
// can consume the framework's raw data. `fibersim run --json`, serve predict
// payloads and `--dump-trace` are built on these; their bytes are a contract.
#pragma once

#include <string>

#include "trace/predict.hpp"

namespace fibersim::trace {

/// One rank's phases with full WorkEstimate fields and comm traffic.
/// Compact (single-line) JSON.
std::string to_json(const JobTrace& trace);

/// A prediction with per-phase breakdown. Compact (single-line) JSON.
std::string to_json(const JobPrediction& prediction);

}  // namespace fibersim::trace
