// Process-wide processor registry: the single authority every front end
// (CLI, tuner, serve codec, experiment reports) consults to turn a token —
// a built-in key, a "-boost"/"-eco" variant, or (resolve only, never from
// the serve socket) a descriptor file path — into a validated
// ProcessorConfig.
//
// Built-ins are registered at first use by round-tripping the C++
// constructors through the descriptor serialise/parse path, so a checked-in
// descriptors/*.json file and the compiled-in model are literally the same
// loader output (asserted bit-exact at registration). Loading a descriptor
// whose name matches a registered processor *replaces* that entry — role
// preserved — so `--processor-dir` swaps the comparison set uniformly for
// every report without touching any call site.
//
// Identity downstream is unchanged: predictions are memoized under
// ProcessorConfig's exact field-wise equality (machine::EvalCache), so a
// descriptor-loaded config that equals a built-in shares its cache entries
// and a config that differs in any field never collides.
#pragma once

#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "machine/processor.hpp"

namespace fibersim::machine {

class ProcessorRegistry {
 public:
  /// Which pre-built sets an entry participates in. kComparison feeds
  /// comparison_set(), kExtended additionally joins
  /// extended_comparison_set(), kExtra is addressable by name only.
  enum class Role { kComparison, kExtended, kExtra };

  struct Entry {
    std::string key;  ///< canonical lower-case lookup key (e.g. "a64fx")
    ProcessorConfig config;
    Role role = Role::kExtra;
    std::string source;  ///< "builtin" or the descriptor file path
  };

  static ProcessorRegistry& instance();

  /// Registration-order snapshot of all entries.
  std::vector<Entry> entries() const;

  /// Exact lookup by key or processor name (case-insensitive); nullopt-style:
  /// returns false and leaves *out untouched when absent.
  bool find(std::string_view token, ProcessorConfig* out) const;

  /// Name-only resolution: key/name, then a "-boost"/"-eco" suffix on a
  /// registered processor (rejected when the base declares no such mode).
  /// Never touches the file system or the registry, so it is the form for
  /// untrusted input. Throws fibersim::Error with the known names on failure.
  ProcessorConfig resolve_name(std::string_view token) const;

  /// resolve_name, then a descriptor file path (loaded, validated, and
  /// registered as a side effect). Throws fibersim::Error on failure.
  ProcessorConfig resolve(std::string_view token);

  /// Load one descriptor file; replaces a same-name entry (role preserved)
  /// or registers a new kExtra entry. Returns the loaded config.
  ProcessorConfig load_file(const std::string& path);

  /// Load every *.json in `dir` (sorted by filename, so replacement order is
  /// deterministic). Throws if the directory cannot be read.
  void load_directory(const std::string& dir);

  /// Register `cfg` under `key` (replaces an existing key/name match, which
  /// keeps its role; `role` applies only to brand-new entries).
  void register_config(const ProcessorConfig& cfg, Role role, std::string key,
                       std::string source);

  /// Drop every loaded entry and restore the four built-ins (test isolation:
  /// the registry is process-global and load_file mutates it).
  void reset();

  std::vector<ProcessorConfig> comparison_set() const;
  std::vector<ProcessorConfig> extended_comparison_set() const;

 private:
  ProcessorRegistry();

  void register_builtins_locked();
  void register_locked(const ProcessorConfig& cfg, Role role, std::string key,
                       std::string source);
  const Entry* find_locked(std::string_view lower_token) const;
  std::optional<ProcessorConfig> lookup_locked(std::string_view lower) const;
  [[noreturn]] void throw_unknown_locked(std::string_view token,
                                         bool paths) const;

  mutable std::mutex mu_;
  std::vector<Entry> entries_;
};

}  // namespace fibersim::machine
