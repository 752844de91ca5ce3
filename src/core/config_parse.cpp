#include "core/config_parse.hpp"

#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/parse_num.hpp"
#include "common/string_util.hpp"
#include "machine/registry.hpp"

namespace fibersim::core {

topo::ThreadBindPolicy parse_bind(std::string_view text) {
  const std::string t = to_lower(trim(text));
  if (t == "compact") return topo::ThreadBindPolicy::compact();
  if (t == "scatter") return topo::ThreadBindPolicy::scatter();
  if (t.rfind("stride-", 0) == 0) {
    if (const std::optional<int> stride = parse_i32(t.substr(7))) {
      return topo::ThreadBindPolicy::strided(*stride);
    }
    // fall through to the error below ("stride-4x" must not parse as 4)
  }
  throw Error("unknown thread-bind policy: '" + std::string(text) +
              "' (expected compact | stride-<n> | scatter)");
}

topo::RankAllocPolicy parse_alloc(std::string_view text) {
  const std::string t = to_lower(trim(text));
  if (t == "block") return topo::RankAllocPolicy::kBlock;
  if (t == "cyclic") return topo::RankAllocPolicy::kCyclic;
  if (t == "scatter") return topo::RankAllocPolicy::kScatter;
  throw Error("unknown rank-alloc policy: '" + std::string(text) +
              "' (expected block | cyclic | scatter)");
}

cg::CompileOptions parse_compile(std::string_view text) {
  const std::string t = to_lower(trim(text));
  if (t == "as-is" || t == "as_is" || t == "simd") {
    return cg::CompileOptions::as_is();
  }
  if (t == "simd+") return cg::CompileOptions::simd_enhanced();
  if (t == "simd+swp" || t == "simd-swp" || t == "simd+,swp") {
    return cg::CompileOptions::simd_sched();
  }
  if (t == "nosimd") {
    cg::CompileOptions o;
    o.vectorize = cg::VectorizeLevel::kNone;
    return o;
  }
  throw Error("unknown compile preset: '" + std::string(text) +
              "' (expected as-is | simd | simd+ | simd+swp | nosimd)");
}

cg::CompilerProfile parse_compiler_profile(std::string_view text) {
  const std::string t = to_lower(trim(text));
  if (t == "fujitsu") return cg::CompilerProfile::kFujitsu;
  if (t == "gnu" || t == "gcc") return cg::CompilerProfile::kGnu;
  if (t == "arm-llvm" || t == "arm_llvm" || t == "llvm") {
    return cg::CompilerProfile::kArmLlvm;
  }
  throw Error("unknown compiler profile: '" + std::string(text) +
              "' (expected fujitsu | gnu | arm-llvm)");
}

machine::ProcessorConfig parse_processor(std::string_view text) {
  // The registry handles built-in keys, registered names, -boost/-eco
  // variants and descriptor file paths uniformly; loading a path registers
  // the machine so later tokens (and reports) see it by name.
  return machine::ProcessorRegistry::instance().resolve(text);
}

apps::Dataset parse_dataset(std::string_view text) {
  const std::string t = to_lower(trim(text));
  if (t == "small") return apps::Dataset::kSmall;
  if (t == "large") return apps::Dataset::kLarge;
  throw Error("unknown dataset: '" + std::string(text) +
              "' (expected small | large)");
}

std::string flag_int(const std::string& flag, const std::string& value,
                     int min, int* out) {
  const std::optional<int> v = parse_i32(value);
  if (!v) {
    return flag + ": expected an integer, got '" + value + "'";
  }
  if (*v < min) {
    return flag + " must be >= " + std::to_string(min) + ", got '" + value +
           "'";
  }
  *out = *v;
  return "";
}

std::string flag_u64(const std::string& flag, const std::string& value,
                     std::uint64_t* out) {
  const std::optional<std::uint64_t> v = parse_u64(value);
  if (!v) {
    return flag + ": expected a non-negative integer, got '" + value + "'";
  }
  *out = *v;
  return "";
}

std::string flag_bool(const std::string& flag, const std::string& value,
                      bool* out) {
  const std::string t = to_lower(value);
  if (t == "on" || t == "true" || t == "1" || t == "yes") {
    *out = true;
    return "";
  }
  if (t == "off" || t == "false" || t == "0" || t == "no") {
    *out = false;
    return "";
  }
  return flag + ": expected on|off, got '" + value + "'";
}

std::string flag_f64(const std::string& flag, const std::string& value,
                     double min, double* out) {
  const std::optional<double> v = parse_f64(value);
  if (!v) {
    return flag + ": expected a number, got '" + value + "'";
  }
  if (*v < min) {
    return flag + " must be >= " + strfmt("%g", min) + ", got '" + value + "'";
  }
  *out = *v;
  return "";
}

namespace {

using EC = ExperimentConfig;
using cg::CompileOptions;

constexpr ConfigKey kConfigKeys[] = {
    {"app", [](EC& c, Label, Token t, KeySource) {
       if (!apps::is_registered(t)) return "unknown miniapp: " + t;
       return assign(c.app, t);
     }},
    {"dataset", set_parsed<parse_dataset, &EC::dataset>},
    {"ranks", set_int<1, &EC::ranks>},
    {"threads", set_int<1, &EC::threads>},
    {"nodes", set_int<1, &EC::nodes>},
    {"bind", set_parsed<parse_bind, &EC::bind>},
    {"alloc", set_parsed<parse_alloc, &EC::alloc>},
    {"compile", set_parsed<parse_compile, &EC::compile>},
    {"unroll", set_int<1, &EC::compile, &CompileOptions::unroll>},
    {"fission", set_bool<&EC::compile, &CompileOptions::loop_fission>,
     KeyArity::kBool},
    {"compiler", set_parsed<parse_compiler_profile, &EC::compile,
                            &CompileOptions::compiler>},
    {"processor", [](EC& c, Label, Token t, KeySource s) {
       const auto& registry = machine::ProcessorRegistry::instance();
       return assign(c.processor, s == KeySource::kLocal
                                      ? parse_processor(t)
                                      : registry.resolve_name(t));
     }},
    {"iterations", set_int<1, &EC::iterations>},
    {"seed", set_u64<&EC::seed>},
    {"weak_scale", set_int<1, &EC::weak_scale>},
    {"collapse_ranks", set_bool<&EC::collapse>, KeyArity::kBool},
};

}  // namespace

std::span<const ConfigKey> config_keys() { return kConfigKeys; }

ExperimentConfig parse_experiment_config(std::string_view text) {
  ExperimentConfig cfg;
  std::istringstream stream{std::string(text)};
  std::string line;
  int line_no = 0;
  while (std::getline(stream, line)) {
    ++line_no;
    // Strip comments and whitespace.
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const std::string_view body = trim(line);
    if (body.empty()) continue;

    const std::size_t eq = body.find('=');
    FS_REQUIRE(eq != std::string_view::npos,
               strfmt("config line %d has no '=': '%s'", line_no,
                      std::string(body).c_str()));
    const std::string key = to_lower(trim(body.substr(0, eq)));
    const std::string value(trim(body.substr(eq + 1)));
    FS_REQUIRE(!value.empty(), "config key '" + key + "' has no value");

    const ConfigKey* row = find_key(config_keys(), key);
    if (row == nullptr) {
      throw Error(strfmt("unknown config key '%s' on line %d", key.c_str(),
                         line_no));
    }
    const std::string problem = row->set(cfg, key, value, KeySource::kLocal);
    if (!problem.empty()) {
      throw Error(strfmt("%s (config line %d)", problem.c_str(), line_no));
    }
  }
  cfg.validate();
  return cfg;
}

ExperimentConfig load_experiment_config(const std::string& path) {
  std::ifstream in(path);
  FS_REQUIRE(in.good(), "cannot open config file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_experiment_config(buffer.str());
}

}  // namespace fibersim::core
