#include "common/error.hpp"

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string_view>

namespace fibersim::detail {

namespace {

/// `file` from its last `src/` on, so a message reads the same from every
/// checkout of one commit.
std::string_view source_path(std::string_view file) {
  const std::size_t src = file.rfind("src/");
  return src == std::string_view::npos ? file : file.substr(src);
}

}  // namespace

void throw_error(const char* file, int line, const char* cond,
                 const std::string& msg) {
  std::ostringstream os;
  os << msg << " [" << cond << " at " << source_path(file) << ':' << line
     << ']';
  throw Error(os.str());
}

void fail_assert(const char* file, int line, const char* cond,
                 const std::string& msg) {
  const std::string_view path = source_path(file);
  std::fprintf(stderr,
               "fibersim internal assertion failed: %s [%s at %.*s:%d]\n",
               msg.c_str(), cond, static_cast<int>(path.size()), path.data(),
               line);
  std::abort();
}

}  // namespace fibersim::detail
