#include "core/config_parse.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/parse_num.hpp"
#include "common/string_util.hpp"
#include "core/report_flags.hpp"
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

namespace {

using Label = const std::string&;
using Token = const std::string&;

template <typename T>
std::string assign(T& field, T value) {
  field = std::move(value);
  return "";
}

constexpr ConfigKey kConfigKeys[] = {
    {"app", [](ExperimentConfig& c, Label, Token t, KeySource) {
       return assign(c.app, t);
     }},
    {"dataset", [](ExperimentConfig& c, Label, Token t, KeySource) {
       return assign(c.dataset, parse_dataset(t));
     }},
    {"ranks", [](ExperimentConfig& c, Label l, Token t, KeySource) {
       return flag_int(l, t, 1, &c.ranks);
     }},
    {"threads", [](ExperimentConfig& c, Label l, Token t, KeySource) {
       return flag_int(l, t, 1, &c.threads);
     }},
    {"nodes", [](ExperimentConfig& c, Label l, Token t, KeySource) {
       return flag_int(l, t, 1, &c.nodes);
     }},
    {"bind", [](ExperimentConfig& c, Label, Token t, KeySource) {
       return assign(c.bind, parse_bind(t));
     }},
    {"alloc", [](ExperimentConfig& c, Label, Token t, KeySource) {
       return assign(c.alloc, parse_alloc(t));
     }},
    {"compile", [](ExperimentConfig& c, Label, Token t, KeySource) {
       return assign(c.compile, parse_compile(t));
     }},
    {"unroll", [](ExperimentConfig& c, Label l, Token t, KeySource) {
       return flag_int(l, t, 1, &c.compile.unroll);
     }},
    {"fission", [](ExperimentConfig& c, Label l, Token t, KeySource) {
       return flag_bool(l, t, &c.compile.loop_fission);
     }},
    {"compiler", [](ExperimentConfig& c, Label, Token t, KeySource) {
       return assign(c.compile.compiler, parse_compiler_profile(t));
     }},
    {"processor", [](ExperimentConfig& c, Label, Token t, KeySource s) {
       const auto& registry = machine::ProcessorRegistry::instance();
       return assign(c.processor, s == KeySource::kLocal
                                      ? parse_processor(t)
                                      : registry.resolve_name(t));
     }},
    {"iterations", [](ExperimentConfig& c, Label l, Token t, KeySource) {
       return flag_int(l, t, 1, &c.iterations);
     }},
    {"seed", [](ExperimentConfig& c, Label l, Token t, KeySource) {
       return flag_u64(l, t, &c.seed);
     }},
    {"weak_scale", [](ExperimentConfig& c, Label l, Token t, KeySource) {
       return flag_int(l, t, 1, &c.weak_scale);
     }},
    {"collapse_ranks", [](ExperimentConfig& c, Label l, Token t, KeySource) {
       return flag_bool(l, t, &c.collapse);
     }},
};

}  // namespace

std::string ConfigKey::set(ExperimentConfig& cfg, const std::string& label,
                           const std::string& token, KeySource source) const {
  try {
    return parse(cfg, label, token, source);
  } catch (const Error& e) {
    return e.what();
  }
}

std::string ConfigKey::flag() const {
  std::string out = std::string("--") + name;
  std::replace(out.begin(), out.end(), '_', '-');
  return out;
}

std::span<const ConfigKey> config_keys() { return kConfigKeys; }

const ConfigKey* find_config_key(std::string_view name) {
  for (const ConfigKey& row : kConfigKeys) {
    if (name == row.name) return &row;
  }
  return nullptr;
}

const ConfigKey* find_config_flag(std::string_view flag) {
  for (const ConfigKey& row : kConfigKeys) {
    if (flag == row.flag()) return &row;
  }
  return nullptr;
}

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

    const ConfigKey* row = find_config_key(key);
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
