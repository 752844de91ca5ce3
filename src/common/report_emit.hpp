// Renderers for ReportArtifact — text, CSV and machine-readable JSON.
//
// Two text framings exist, preserving the repo's historical front ends
// byte-for-byte:
//   * bare   — the CLI's `report <id>`: tables/figures only, plus the
//              section's cli_notes.
//   * framed — the bench binaries': "== title ==" headers, a blank line
//              after each table, bar charts for sections with a ChartSpec,
//              and the section's notes.
// CSV mode renders tables via TextTable::print_csv (RFC 4180) under the
// same two framings; charts are for eyes and are skipped. JSON is one
// framing-independent object per artifact: id, sections, metrics.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "common/report_artifact.hpp"

namespace fibersim {

enum class ReportFormat { kText, kCsv, kJson };

/// Parse "text" | "csv" | "json" (case-insensitive); throws Error otherwise.
ReportFormat parse_report_format(std::string_view text);

const char* report_format_name(ReportFormat format);

struct EmitOptions {
  ReportFormat format = ReportFormat::kText;
  /// Framed (bench) vs bare (CLI) rendering; ignored for JSON.
  bool framed = false;
};

/// Render an artifact to `os`. Output is byte-stable for a given artifact:
/// the determinism contract ("identical for any --jobs N") holds whenever
/// the artifact itself is deterministic. JSON has no NaN or infinity, so a
/// non-finite metric makes the JSON form throw fibersim::Error (before any
/// byte reaches `os`).
void emit_report(const ReportArtifact& artifact, const EmitOptions& opts,
                 std::ostream& os);

}  // namespace fibersim
