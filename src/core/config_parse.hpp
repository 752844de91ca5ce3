// Textual configuration parsing: build ExperimentConfigs from strings and
// key=value files. Shared by the CLI driver and usable by scripts.
//
// config_keys() is the one list of settable ExperimentConfig fields. Three
// front ends loop over it: the config file (`key = value`), `fibersim run`
// (`--key value`, with '_' written '-') and the serve `predict` verb
// (`"key": value`). A key added to the table is reachable from all three.
//
// File format: one `key = value` per line, `#` comments, blank lines
// ignored. Unknown keys are errors (typos must not silently disappear).
// Later lines win, so `compile` after `unroll` resets the unroll factor.
//
//   app            = ccs_qcd
//   dataset        = large          # small | large
//   ranks          = 4
//   threads        = 12
//   nodes          = 1
//   bind           = compact        # compact | stride-<n> | scatter
//   alloc          = block          # block | cyclic | scatter
//   compile        = simd+swp       # as-is | simd | simd+ | simd+swp | nosimd
//   unroll         = 1
//   fission        = off
//   compiler       = fujitsu        # fujitsu | gnu | arm-llvm
//   processor      = a64fx          # registry key or name (a64fx, skylake,
//                                   # thunderx2, broadwell, each with optional
//                                   # -boost/-eco) or a descriptor *.json path
//   iterations     = 3
//   seed           = 42
//   weak_scale     = 1
//   collapse_ranks = off
#pragma once

#include <span>
#include <string>
#include <string_view>

#include "core/experiment.hpp"

namespace fibersim::core {

/// "compact", "stride-4", "scatter".
topo::ThreadBindPolicy parse_bind(std::string_view text);

/// "block", "cyclic", "scatter".
topo::RankAllocPolicy parse_alloc(std::string_view text);

/// "as-is"/"as_is", "simd", "simd+", "simd+swp"/"simd-swp", "nosimd".
cg::CompileOptions parse_compile(std::string_view text);

/// "fujitsu", "gnu"/"gcc", "arm-llvm"/"llvm".
cg::CompilerProfile parse_compiler_profile(std::string_view text);

/// Any token machine::ProcessorRegistry::resolve accepts: a registered key
/// or processor name (case-insensitive, optional -boost/-eco suffix) or a
/// descriptor file path, which is loaded and registered as a side effect.
machine::ProcessorConfig parse_processor(std::string_view text);

/// "small" or "large".
apps::Dataset parse_dataset(std::string_view text);

/// Where a key's token comes from. A `processor` descriptor path loads a
/// file and registers it process-wide, so only local input (config files,
/// command lines) may name one; socket input is limited to registered names.
enum class KeySource { kLocal, kRemote };

/// One settable ExperimentConfig field.
struct ConfigKey {
  using Parser = std::string (*)(ExperimentConfig& cfg,
                                 const std::string& label,
                                 const std::string& token, KeySource source);

  const char* name;  ///< snake_case: the config-file and serve spelling
  /// Writes the field from `token`; returns "" or a one-line error naming
  /// `label`. May throw fibersim::Error (the parse_* functions above do).
  Parser parse;

  /// parse(), with a thrown fibersim::Error turned into its message: "" on
  /// success, else a one-line error. `label` is the spelling the caller
  /// used (the key, or the --flag).
  std::string set(ExperimentConfig& cfg, const std::string& label,
                  const std::string& token, KeySource source) const;

  /// The `fibersim run` spelling: "--" + name with '_' turned into '-'.
  std::string flag() const;
};

/// Every settable key, in documentation order.
std::span<const ConfigKey> config_keys();

/// The row named `name` (snake_case, exact), or nullptr.
const ConfigKey* find_config_key(std::string_view name);

/// The row whose flag() is `flag` ("--weak-scale"), or nullptr.
const ConfigKey* find_config_flag(std::string_view flag);

/// Parse a whole config from file contents; starts from the defaults and
/// overrides each given key. Throws fibersim::Error with the offending line
/// on any problem.
ExperimentConfig parse_experiment_config(std::string_view text);

/// Convenience: read a file and parse it.
ExperimentConfig load_experiment_config(const std::string& path);

}  // namespace fibersim::core
