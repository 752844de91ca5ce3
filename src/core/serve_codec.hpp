// Request/response codec for the `fibersim serve` daemon.
//
// Wire protocol: line-delimited JSON over a Unix-domain stream socket. Every
// request is one JSON object on one LF-terminated line; every response is
// one JSON object on one line. The request grammar (DESIGN.md "Serve
// daemon") mirrors the CLI flag vocabulary exactly, so a request is a
// `fibersim run` / `fibersim report` invocation by other means:
//
//   {"verb":"ping"}
//   {"verb":"stats"}
//   {"verb":"predict","app":"ffvc","dataset":"small","ranks":4,"threads":2}
//   {"verb":"predict","app":"ffvc","ranks":4,"collapse":"on"}
//   {"verb":"predict","app":"ffvc","deadline_ms":500}
//   {"verb":"report","report":"T1","apps":"ffvc","dataset":"small",
//    "iterations":1,"format":"json"}
//
// The predict fields are core::config_keys(), the same table behind the
// config file and the `fibersim run` flags; the report fields are the
// core::report_keys() rows that are not command-line only, the table
// behind `fibersim report` and bench/experiment. In both verbs "collapse"
// ("on"/"off") is accepted as the spelling of collapse_ranks: the execution
// collapses symmetric ranks, the payload stays byte-identical. A predict
// "app" and a report "report" must name a registered miniapp / experiment.
// A predict "processor" must name a registered machine: a descriptor path
// is rejected, because loading it would read a file and change the
// registry for every client.
//
// All field values pass through the same checked parsers as the CLI flags
// (core::flag_int / parse_dataset / ...): non-numeric, trailing-garbage and
// out-of-range values come back as a one-line error string that the server
// turns into a typed BAD_REQUEST response — malformed input can never throw
// past the codec. Unknown keys are rejected (typos must not silently
// disappear — same contract as the config-file parser). Numeric fields
// accept either a JSON number (the raw token is re-parsed, so 64-bit seeds
// stay exact) or a numeric string.
//
// An optional "id" string (<= 256 bytes) is echoed verbatim in the response
// so clients may pipeline requests on one connection and match replies.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"
#include "core/experiment.hpp"
#include "core/report_flags.hpp"

namespace fibersim::core {

/// Typed response codes (the `code` field of every ok:false response).
inline constexpr const char* kCodeBadRequest = "BAD_REQUEST";
inline constexpr const char* kCodeBusy = "BUSY";
inline constexpr const char* kCodeShutdown = "SHUTDOWN";
inline constexpr const char* kCodeFailed = "FAILED";
inline constexpr const char* kCodeInternal = "INTERNAL";
/// Request deadline expired (in queue or mid-execution); work was shed.
inline constexpr const char* kCodeDeadline = "DEADLINE";
/// Circuit breaker open for this config class; retry after the hinted delay.
inline constexpr const char* kCodeCircuitOpen = "CIRCUIT_OPEN";

struct ServeRequest {
  enum class Verb { kPing, kStats, kPredict, kReport };
  Verb verb = Verb::kPing;
  /// Client correlation token, echoed in the response ("" = absent).
  std::string id;
  /// Optional request deadline in milliseconds from receipt (predict and
  /// report verbs). <= 0 = none. Expired work — still queued or already
  /// executing — is shed with a typed DEADLINE response.
  int deadline_ms = 0;

  // -- predict --------------------------------------------------------------
  /// Starts from ExperimentConfig defaults; request keys override, exactly
  /// like `fibersim run` flags.
  ExperimentConfig config;

  // -- report ---------------------------------------------------------------
  /// A registered experiment id, as the client spelled it.
  std::string report_id;
  /// report_keys() fields over report_defaults(), so a serve response is
  /// byte-identical to `fibersim report <id>` with the same flags.
  ReportFlags report;
};

/// Parse one request line. Returns "" and fills `req` on success, else a
/// one-line error message (the caller sends it back as BAD_REQUEST). Never
/// throws for malformed input.
std::string parse_serve_request(std::string_view line, ServeRequest& req);

/// One-line ok:false response: {"ok":false,"id":...,"code":...,"error":...}
/// (id omitted when empty). No trailing newline. `retry_after_ms` > 0 adds
/// a "retry_after_ms" hint (CIRCUIT_OPEN rejections carry one).
std::string serve_error_response(std::string_view code, std::string_view id,
                                 std::string_view message,
                                 std::int64_t retry_after_ms = 0);

/// An ok:true response, opened: {"ok":true[,"id":...],"verb":... (id
/// omitted when empty). The caller writes the verb's fields, then
/// "payload" last — clients may split on `"payload":` exactly once — and
/// finish()es it. No trailing newline.
json::Emitter serve_ok_envelope(std::string_view verb, std::string_view id);

}  // namespace fibersim::core
