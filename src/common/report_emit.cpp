#include "common/report_emit.hpp"

#include <cstdlib>
#include <ostream>

#include "common/barchart.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/string_util.hpp"

namespace fibersim {

ReportFormat parse_report_format(std::string_view text) {
  const std::string t = to_lower(trim(text));
  if (t == "text") return ReportFormat::kText;
  if (t == "csv") return ReportFormat::kCsv;
  if (t == "json") return ReportFormat::kJson;
  throw Error("unknown report format: '" + std::string(text) +
              "' (expected text | csv | json)");
}

const char* report_format_name(ReportFormat format) {
  switch (format) {
    case ReportFormat::kText: return "text";
    case ReportFormat::kCsv: return "csv";
    case ReportFormat::kJson: return "json";
  }
  return "?";
}

namespace {

/// %.17g round-trips every double exactly through strtod.
std::string json_number(double v) { return strfmt("%.17g", v); }

/// One bar chart per table row: the first column titles the chart, the
/// header labels the bars, cells that parse as numbers become bars.
void print_charts(const TextTable& table, const ChartSpec& spec,
                  std::ostream& os) {
  for (std::size_t r = 0; r < table.rows(); ++r) {
    BarChart chart(table.row(r)[0], spec.unit);
    for (std::size_t c = spec.first_col;
         c <= spec.last_col && c < table.columns(); ++c) {
      const std::string& cell = table.row(r)[c];
      char* end = nullptr;
      const double v = std::strtod(cell.c_str(), &end);
      if (end != cell.c_str()) chart.add(table.header()[c], v);
    }
    chart.print(os);
    os << '\n';
  }
}

void emit_text(const ReportArtifact& artifact, const EmitOptions& opts,
               std::ostream& os) {
  const bool csv = opts.format == ReportFormat::kCsv;
  for (const ReportSection& section : artifact.sections) {
    if (opts.framed) os << "== " << section.title << " ==\n";
    if (section.table.has_value()) {
      if (csv) {
        section.table->print_csv(os);
      } else {
        section.table->print(os);
      }
      if (opts.framed) os << '\n';
    } else {
      os << section.figure;
    }
    if (opts.framed && !csv && section.chart.enabled &&
        section.table.has_value()) {
      print_charts(*section.table, section.chart, os);
    }
    for (const std::string& note :
         opts.framed ? section.notes : section.cli_notes) {
      os << note << '\n';
    }
  }
}

void emit_json(const ReportArtifact& artifact, std::ostream& os) {
  os << "{\n  \"id\": \"" << json_escape(artifact.id) << "\",\n"
     << "  \"sections\": [";
  for (std::size_t s = 0; s < artifact.sections.size(); ++s) {
    const ReportSection& section = artifact.sections[s];
    os << (s ? "," : "") << "\n    {\n      \"title\": \""
       << json_escape(section.title) << "\",\n";
    if (section.table.has_value()) {
      const TextTable& table = *section.table;
      os << "      \"table\": {\n        \"header\": [";
      for (std::size_t c = 0; c < table.columns(); ++c) {
        os << (c ? ", " : "") << '"' << json_escape(table.header()[c]) << '"';
      }
      os << "],\n        \"rows\": [";
      for (std::size_t r = 0; r < table.rows(); ++r) {
        os << (r ? "," : "") << "\n          [";
        for (std::size_t c = 0; c < table.columns(); ++c) {
          os << (c ? ", " : "") << '"' << json_escape(table.row(r)[c]) << '"';
        }
        os << ']';
      }
      os << (table.rows() ? "\n        " : "") << "]\n      }\n";
    } else {
      os << "      \"figure\": \"" << json_escape(section.figure) << "\"\n";
    }
    os << "    }";
  }
  os << (artifact.sections.empty() ? "" : "\n  ") << "],\n  \"metrics\": [";
  for (std::size_t m = 0; m < artifact.metrics.size(); ++m) {
    const ScalarMetric& metric = artifact.metrics[m];
    os << (m ? "," : "") << "\n    {\"key\": \"" << json_escape(metric.key)
       << "\", \"value\": " << json_number(metric.value) << ", \"unit\": \""
       << json_escape(metric.unit) << "\"}";
  }
  os << (artifact.metrics.empty() ? "" : "\n  ") << "]\n}\n";
}

}  // namespace

void emit_report(const ReportArtifact& artifact, const EmitOptions& opts,
                 std::ostream& os) {
  if (opts.format == ReportFormat::kJson) {
    emit_json(artifact, os);
  } else {
    emit_text(artifact, opts, os);
  }
}

}  // namespace fibersim
