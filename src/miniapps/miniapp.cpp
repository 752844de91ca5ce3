#include "miniapps/miniapp.hpp"

#include <functional>
#include <map>

#include "common/error.hpp"
#include "miniapps/ccs_qcd.hpp"
#include "miniapps/ffb.hpp"
#include "miniapps/ffvc.hpp"
#include "miniapps/modylas.hpp"
#include "miniapps/mvmc.hpp"
#include "miniapps/ngsa.hpp"
#include "miniapps/nicam.hpp"
#include "miniapps/ntchem.hpp"

namespace fibersim::apps {

const char* dataset_name(Dataset dataset) {
  switch (dataset) {
    case Dataset::kSmall: return "small";
    case Dataset::kLarge: return "large";
  }
  return "?";
}

namespace {
using Factory = std::function<std::unique_ptr<Miniapp>()>;

// Canonical Fiber Miniapp Suite order.
const std::vector<std::pair<std::string, Factory>>& registry() {
  static const std::vector<std::pair<std::string, Factory>> kRegistry = {
      {"ccs_qcd", make_ccs_qcd}, {"ffvc", make_ffvc},
      {"nicam", make_nicam},     {"mvmc", make_mvmc},
      {"ngsa", make_ngsa},       {"modylas", make_modylas},
      {"ntchem", make_ntchem},   {"ffb", make_ffb},
  };
  return kRegistry;
}
}  // namespace

std::vector<std::string> registry_names() {
  std::vector<std::string> names;
  names.reserve(registry().size());
  for (const auto& [name, factory] : registry()) names.push_back(name);
  return names;
}

bool is_registered(std::string_view name) {
  for (const auto& [key, factory] : registry()) {
    if (key == name) return true;
  }
  return false;
}

std::unique_ptr<Miniapp> create_miniapp(const std::string& name) {
  for (const auto& [key, factory] : registry()) {
    if (key == name) return factory();
  }
  throw Error("unknown miniapp: " + name);
}

void validate_context(const RunContext& ctx) {
  FS_REQUIRE(ctx.comm != nullptr, "RunContext needs a communicator");
  FS_REQUIRE(ctx.team != nullptr, "RunContext needs a thread team");
  FS_REQUIRE(ctx.recorder != nullptr, "RunContext needs a recorder");
  FS_REQUIRE(ctx.iterations >= 1 && ctx.iterations <= 1000,
             "iteration count out of range");
  FS_REQUIRE(ctx.weak_scale >= 1 && ctx.weak_scale <= (1 << 20),
             "weak-scale factor out of range");
}

}  // namespace fibersim::apps
