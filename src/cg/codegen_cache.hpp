// CodegenCache — retired: codegen is memoized inside the stage-1 memo
// (machine::EvalCache). Only the old entry point stays, as a plain uncached
// cg::apply, because the traced fsbench build wraps it by its mangled name
// and forces it with --undefined, which fails to link once it is undefined.
#pragma once

#include <cstdint>

#include "cg/compile_options.hpp"
#include "isa/work_estimate.hpp"

namespace fibersim::cg {

class CodegenCache {
 public:
  /// cg::apply(opts, work); `work_h` is unused.
  isa::WorkEstimate apply(const CompileOptions& opts,
                          const isa::WorkEstimate& work, std::uint64_t work_h);
};

}  // namespace fibersim::cg
