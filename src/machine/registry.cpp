#include "machine/registry.hpp"

#include <algorithm>
#include <filesystem>
#include <optional>
#include <utility>

#include "common/error.hpp"
#include "common/string_util.hpp"
#include "machine/descriptor.hpp"

namespace fibersim::machine {

namespace fs = std::filesystem;

ProcessorRegistry& ProcessorRegistry::instance() {
  static ProcessorRegistry registry;
  return registry;
}

ProcessorRegistry::ProcessorRegistry() {
  register_builtins_locked();  // constructor runs single-threaded (magic static)
}

void ProcessorRegistry::register_builtins_locked() {
  struct Builtin {
    const char* key;
    ProcessorConfig (*ctor)();
    Role role;
  };
  static const Builtin kBuiltins[] = {
      {"a64fx", &a64fx, Role::kComparison},
      {"skylake", &skylake8168_dual, Role::kComparison},
      {"thunderx2", &thunderx2_dual, Role::kComparison},
      {"broadwell", &broadwell_dual, Role::kExtended},
  };
  for (const Builtin& b : kBuiltins) {
    // Built-ins flow through the same serialise/parse path as descriptor
    // files; the round-trip must reproduce the constructor bit-exactly.
    const ProcessorConfig compiled = b.ctor();
    const ProcessorConfig loaded = parse_descriptor(to_descriptor(compiled));
    FS_ASSERT(loaded == compiled,
              "descriptor round-trip altered built-in " + compiled.name);
    register_locked(loaded, b.role, b.key, "builtin");
  }
}

void ProcessorRegistry::register_locked(const ProcessorConfig& cfg, Role role,
                                        std::string key, std::string source) {
  const std::string name_lower = to_lower(cfg.name);
  for (Entry& e : entries_) {
    if (e.key == key || to_lower(e.config.name) == name_lower) {
      // Replacement keeps the entry's key and role, so a descriptor loaded
      // over "a64fx" still answers to the short key and still leads the
      // comparison set.
      e.config = cfg;
      e.source = std::move(source);
      return;
    }
  }
  entries_.push_back(Entry{std::move(key), cfg, role, std::move(source)});
}

const ProcessorRegistry::Entry* ProcessorRegistry::find_locked(
    std::string_view lower_token) const {
  for (const Entry& e : entries_) {
    if (e.key == lower_token || to_lower(e.config.name) == lower_token) {
      return &e;
    }
  }
  return nullptr;
}

std::vector<ProcessorRegistry::Entry> ProcessorRegistry::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_;
}

bool ProcessorRegistry::find(std::string_view token,
                             ProcessorConfig* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Entry* e = find_locked(to_lower(token));
  if (e == nullptr) return false;
  *out = e->config;
  return true;
}

std::optional<ProcessorConfig> ProcessorRegistry::lookup_locked(
    std::string_view lower) const {
  if (const Entry* e = find_locked(lower)) return e->config;
  // "-boost" / "-eco" variants of any registered processor.
  for (const auto& [suffix, mode] :
       {std::pair{std::string_view("-boost"), PowerMode::kBoost},
        std::pair{std::string_view("-eco"), PowerMode::kEco}}) {
    if (lower.size() <= suffix.size() || !lower.ends_with(suffix)) continue;
    if (const Entry* e = find_locked(lower.substr(0, lower.size() -
                                                         suffix.size()))) {
      const ProcessorConfig modal = with_power_mode(e->config, mode);
      FS_REQUIRE(!(modal == e->config),
                 "processor '" + e->config.name + "' declares no " +
                     power_mode_name(mode) + " mode");
      return modal;
    }
  }
  return std::nullopt;
}

void ProcessorRegistry::throw_unknown_locked(std::string_view token,
                                             bool paths) const {
  std::string known;
  for (const Entry& e : entries_) {
    if (!known.empty()) known += ", ";
    known += e.key;
  }
  throw Error("unknown processor '" + std::string(token) + "' (known: " +
              known + ", each with optional -boost/-eco" +
              (paths ? "; or a descriptor path)" : ")"));
}

ProcessorConfig ProcessorRegistry::resolve_name(std::string_view token) const {
  const std::string lower = to_lower(trim(token));
  FS_REQUIRE(!lower.empty(), "empty processor token");
  std::lock_guard<std::mutex> lock(mu_);
  std::optional<ProcessorConfig> found = lookup_locked(lower);
  if (!found) throw_unknown_locked(token, false);
  return std::move(*found);
}

ProcessorConfig ProcessorRegistry::resolve(std::string_view token) {
  const std::string lower = to_lower(trim(token));
  FS_REQUIRE(!lower.empty(), "empty processor token");
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (std::optional<ProcessorConfig> found = lookup_locked(lower)) {
      return std::move(*found);
    }
  }

  // A path-looking token (or an existing file) loads as a descriptor.
  const std::string path(trim(token));
  std::error_code ec;
  if (path.find('/') != std::string::npos ||
      (path.size() > 5 && path.ends_with(".json")) ||
      fs::is_regular_file(path, ec)) {
    return load_file(path);
  }
  std::lock_guard<std::mutex> lock(mu_);
  throw_unknown_locked(token, true);
}

ProcessorConfig ProcessorRegistry::load_file(const std::string& path) {
  ProcessorConfig cfg = load_descriptor_file(path);
  std::lock_guard<std::mutex> lock(mu_);
  register_locked(cfg, Role::kExtra, to_lower(cfg.name), path);
  return cfg;
}

void ProcessorRegistry::load_directory(const std::string& dir) {
  std::error_code ec;
  FS_REQUIRE(fs::is_directory(dir, ec),
             "processor descriptor directory '" + dir + "' not found");
  std::vector<std::string> files;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".json") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  for (const std::string& f : files) load_file(f);
}

void ProcessorRegistry::register_config(const ProcessorConfig& cfg, Role role,
                                        std::string key, std::string source) {
  cfg.validate();
  std::lock_guard<std::mutex> lock(mu_);
  register_locked(cfg, role, std::move(key), std::move(source));
}

void ProcessorRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  register_builtins_locked();
}

std::vector<ProcessorConfig> ProcessorRegistry::comparison_set() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ProcessorConfig> set;
  for (const Entry& e : entries_) {
    if (e.role == Role::kComparison) set.push_back(e.config);
  }
  return set;
}

std::vector<ProcessorConfig> ProcessorRegistry::extended_comparison_set()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ProcessorConfig> set;
  for (const Entry& e : entries_) {
    if (e.role != Role::kExtra) set.push_back(e.config);
  }
  return set;
}

// The legacy free functions keep their signatures but are now served by the
// registry, so descriptor replacements reach every report.
std::vector<ProcessorConfig> comparison_set() {
  return ProcessorRegistry::instance().comparison_set();
}

std::vector<ProcessorConfig> extended_comparison_set() {
  return ProcessorRegistry::instance().extended_comparison_set();
}

}  // namespace fibersim::machine
