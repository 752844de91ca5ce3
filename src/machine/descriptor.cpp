#include "machine/descriptor.hpp"

#include <fstream>
#include <optional>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/json.hpp"

namespace fibersim::machine {

namespace {

constexpr const char* kErrorPrefix = "processor descriptor";

/// "shape.sockets" -> {"shape", "sockets"}; "freq_hz" -> {"", "freq_hz"}.
std::pair<std::string_view, std::string_view> split_path(std::string_view path) {
  const std::size_t dot = path.find('.');
  if (dot == std::string_view::npos) return {{}, path};
  return {path.substr(0, dot), path.substr(dot + 1)};
}

void emit(json::Emitter& e, std::string_view key, const std::string& v) {
  e.str(key, v);
}
void emit(json::Emitter& e, std::string_view k, double v) { e.shortest(k, v); }
void emit(json::Emitter& e, std::string_view key, int v) { e.i64(key, v); }
void emit(json::Emitter& e, std::string_view key, bool v) { e.boolean(key, v); }

}  // namespace

std::string to_descriptor(const ProcessorConfig& cfg) {
  json::Emitter e;
  e.object(json::Layout::kBlock);
  e.str("format", kDescriptorFormat);
  std::string_view group;  // nested object currently open ("" = root)
  for_each_field(cfg, [&](const char* path, const auto& value, const Bound&,
                          bool /*optional*/) {
    const auto [field_group, key] = split_path(path);
    if (field_group != group) {
      if (!group.empty()) e.close();
      if (!field_group.empty()) e.object(field_group, json::Layout::kBlock);
      group = field_group;
    }
    emit(e, key, value);
  });
  return std::move(e).finish() + "\n";
}

ProcessorConfig parse_descriptor(std::string_view text) {
  const json::Value root = json::parse_document(text, kErrorPrefix);
  json::Reader r(root, "", kErrorPrefix);
  r.require_format(kDescriptorFormat);

  ProcessorConfig cfg;
  std::string_view group;
  std::optional<json::Reader> in_group;  // empty at root or in a left-out group
  for_each_field(cfg, [&](const char* path, auto& value, const Bound& bound,
                          bool optional) {
    const auto [field_group, key] = split_path(path);
    if (field_group != group) {
      if (in_group) in_group->finish();
      in_group.reset();
      group = field_group;
      if (!group.empty() && (!optional || r.has(group))) {
        in_group.emplace(r.member(group), std::string(group), kErrorPrefix);
      }
    }
    if (!group.empty() && !in_group) return;  // optional group left out
    json::Reader& in = in_group ? *in_group : r;
    if (group.empty() && optional && !in.has(key)) return;
    in.read(key, &value);
    // Range-checked as it is read, so the error cites the value's offset.
    if (!bound.admits(value)) {
      in.fail(bound_error(path, bound, value), in.offset(key));
    }
  });
  if (in_group) in_group->finish();
  r.finish();

  if (const auto broken = cfg.first_broken_rule()) {
    // Cite the offset of the value the rule is charged to (the root's if
    // that field sits in a left-out optional group).
    const auto [rule_group, key] = split_path(broken->path);
    const json::Value* holder =
        rule_group.empty() ? &root : root.find(rule_group);
    const json::Value* value = holder != nullptr ? holder->find(key) : nullptr;
    r.fail(broken->message, value != nullptr ? value->offset() : root.offset());
  }
  return cfg;
}

ProcessorConfig load_descriptor_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open processor descriptor '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) throw Error("error reading processor descriptor '" + path + "'");
  try {
    return parse_descriptor(buf.str());
  } catch (const Error& e) {
    throw Error(path + ": " + e.what());
  }
}

}  // namespace fibersim::machine
