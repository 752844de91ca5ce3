// Textual configuration parsing: build ExperimentConfigs from strings and
// key=value files. Shared by the CLI driver and usable by scripts.
//
// KeyRow<T> is the one row type behind every front end that sets fields
// from text. config_keys() is the ExperimentConfig table; three front ends
// loop over it: the config file (`key = value`), `fibersim run` (`--key
// value`, with '_' written '-') and the serve `predict` verb (`"key":
// value`). A key added to the table is reachable from all three.
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

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>

#include "common/error.hpp"
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

/// Checked "flag value" parsers behind every numeric row: write the parsed
/// value to `out` and return "", or return a one-line error naming `flag`
/// and the offending value. `min` is the smallest accepted value.
std::string flag_int(const std::string& flag, const std::string& value,
                     int min, int* out);
std::string flag_u64(const std::string& flag, const std::string& value,
                     std::uint64_t* out);
std::string flag_bool(const std::string& flag, const std::string& value,
                      bool* out);
std::string flag_f64(const std::string& flag, const std::string& value,
                     double min, double* out);

/// Where a key's token comes from. A `processor` descriptor path loads a
/// file and registers it process-wide, so only local input (config files,
/// command lines) may name one; socket input is limited to registered names.
enum class KeySource { kLocal, kRemote };

/// How a row takes its value on a command line.
enum class KeyArity {
  kValue,   ///< --key value
  kBool,    ///< --key on|off, or a bare --key (last, or before another
            ///< --flag) meaning on
  kSwitch,  ///< a bare --key only (its setter sees the token "on")
};

/// Which front ends read a row.
enum class KeyScope {
  kAnywhere,     ///< command line, and a serve field where one is served
  kCommandLine,  ///< command line only; serve answers "unknown field"
};

using Label = const std::string&;  ///< the spelling used: key or --flag
using Token = const std::string&;

/// One settable field of the struct `T` a command fills. Every front end
/// is a constexpr table of these read by one loop: parse_flags() for a
/// command line, parse_experiment_config() for a config file and
/// parse_serve_request() for socket fields.
template <typename T>
struct KeyRow {
  /// Writes the field from the token; returns "" or a one-line error
  /// naming the label. May throw fibersim::Error (the parse_* above do).
  using Parser = std::string (*)(T& target, Label label, Token token,
                                 KeySource source);

  const char* name;  ///< snake_case: the config-file and serve spelling
  Parser parse;
  KeyArity arity = KeyArity::kValue;
  KeyScope scope = KeyScope::kAnywhere;
  /// Applies before every other row wherever it appears (run's --config).
  bool first = false;

  /// parse(), with a thrown fibersim::Error turned into its message.
  std::string set(T& target, Label label, Token token,
                  KeySource source) const {
    try {
      return parse(target, label, token, source);
    } catch (const Error& e) {
      return e.what();
    }
  }

  /// The command-line spelling: "--" + name with '_' turned into '-'.
  std::string flag() const {
    std::string out = std::string("--") + name;
    std::replace(out.begin(), out.end(), '_', '-');
    return out;
  }
};

/// A setter's success path: write `value` into `field` and return "".
template <typename T>
std::string assign(T& field, T value) {
  field = std::move(value);
  return "";
}

// Setters for the common rows. `Path...` is the member-pointer path from
// the command's struct to the field: set_int<1, &TuneFlags::options,
// &TunerOptions::jobs> reads an integer >= 1 into flags.options.jobs.
template <auto... Path>
std::string set_text(auto& target, Label, Token token, KeySource) {
  return assign((target .* ... .* Path), token);
}
/// `Parse` is one of the parse_* functions (they throw on bad input).
template <auto Parse, auto... Path>
std::string set_parsed(auto& target, Label, Token token, KeySource) {
  (target .* ... .* Path) = Parse(token);
  return "";
}
template <int Min, auto... Path>
std::string set_int(auto& target, Label label, Token token, KeySource) {
  return flag_int(label, token, Min, &(target .* ... .* Path));
}
template <auto... Path>
std::string set_u64(auto& target, Label label, Token token, KeySource) {
  return flag_u64(label, token, &(target .* ... .* Path));
}
template <auto... Path>
std::string set_bool(auto& target, Label label, Token token, KeySource) {
  return flag_bool(label, token, &(target .* ... .* Path));
}

/// The row named `name` (snake_case, exact), or nullptr.
template <typename T>
const KeyRow<T>* find_key(std::span<const KeyRow<T>> rows,
                          std::string_view name) {
  for (const KeyRow<T>& row : rows) {
    if (name == row.name) return &row;
  }
  return nullptr;
}

/// A command's rows and the struct they fill.
template <typename T>
struct KeyTable {
  std::span<const KeyRow<T>> rows;
  T& target;
};
template <typename T, std::size_t N>
KeyTable(const KeyRow<T> (&)[N], T&) -> KeyTable<T>;
template <typename T>
KeyTable(std::span<const KeyRow<T>>, T&) -> KeyTable<T>;

/// The one command-line loop: applies `args` ("--flag [value]" ...) onto
/// the tables' targets, a flag matching the first table that has it. Rows
/// marked `first` apply before the rest wherever they appear; the others
/// apply in order, later ones winning. Returns "" or a one-line error:
/// "unknown <command> flag: X", "missing value for X" or the row's own.
template <typename... T>
std::string parse_flags(std::span<const std::string> args,
                        std::string_view command, KeyTable<T>... tables) {
  for (const bool first_pass : {true, false}) {
    for (std::size_t i = 0; i < args.size();) {
      const std::string& flag = args[i];
      std::string problem;
      const auto take = [&](const auto& table) {
        const auto row = std::find_if(
            table.rows.begin(), table.rows.end(),
            [&](const auto& candidate) { return flag == candidate.flag(); });
        if (row == table.rows.end()) return false;
        const bool bare =
            row->arity == KeyArity::kSwitch ||
            (row->arity == KeyArity::kBool &&
             (i + 1 == args.size() || args[i + 1].starts_with("--")));
        if (!bare && i + 1 == args.size()) {
          problem = "missing value for " + flag;
          return true;
        }
        const std::string token = bare ? std::string("on") : args[i + 1];
        i += bare ? 1 : 2;
        if (row->first == first_pass) {
          problem = row->set(table.target, flag, token, KeySource::kLocal);
        }
        return true;
      };
      if (!(take(tables) || ...)) {
        return "unknown " + std::string(command) + " flag: " + flag;
      }
      if (!problem.empty()) return problem;
    }
  }
  return "";
}

/// The ExperimentConfig table.
using ConfigKey = KeyRow<ExperimentConfig>;

/// Every settable ExperimentConfig key, in documentation order: the config
/// file, `fibersim run` and the serve `predict` verb read it.
std::span<const ConfigKey> config_keys();

/// Parse a whole config from file contents; starts from the defaults and
/// overrides each given key. Throws fibersim::Error with the offending line
/// on any problem.
ExperimentConfig parse_experiment_config(std::string_view text);

/// Convenience: read a file and parse it.
ExperimentConfig load_experiment_config(const std::string& path);

}  // namespace fibersim::core
