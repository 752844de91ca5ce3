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
  using json::Layout;
  json::Emitter w;
  w.object(Layout::kBlock);
  w.str("id", artifact.id);
  w.array("sections", Layout::kBlock);
  for (const ReportSection& section : artifact.sections) {
    w.object(Layout::kBlock);
    w.str("title", section.title);
    if (section.table.has_value()) {
      const TextTable& table = *section.table;
      w.object("table", Layout::kBlock);
      w.array("header", Layout::kInline);
      for (const std::string& cell : table.header()) w.str(cell);
      w.close();
      w.array("rows", Layout::kBlock);
      for (std::size_t r = 0; r < table.rows(); ++r) {
        w.array(Layout::kInline);
        for (const std::string& cell : table.row(r)) w.str(cell);
        w.close();
      }
      w.close();
      w.close();
    } else {
      w.str("figure", section.figure);
    }
    w.close();
  }
  w.close();
  w.array("metrics", Layout::kBlock);
  for (const ScalarMetric& metric : artifact.metrics) {
    w.object(Layout::kInline);
    w.str("key", metric.key);
    w.num("value", metric.value);
    w.str("unit", metric.unit);
    w.close();
  }
  os << std::move(w).finish() << '\n';
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
