//===- perfbench/src/Pipeline.h - The driver's steps, one span each -*- C++ -*-===//
//
// The traced runs replay driver/Driver.cpp step by step through the
// public headers the driver itself uses, opening one span per step.  The
// result must equal the driver's own entry point byte for byte; pgo-interp
// checks that on every traced compile.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PIPELINE_H
#define PERFBENCH_PIPELINE_H

#include "Trace.h"

#include "driver/Driver.h"

#include <string_view>
#include <vector>

namespace perfbench {

/// compileWithReordering(Source, Training, Options), for Options without
/// common-successor reordering.
bropt::CompileResult
tracedCompileWithReordering(Tracer &T, const std::string &Id,
                            std::string_view Source,
                            const std::vector<std::string_view> &Training,
                            const bropt::CompileOptions &Options);

/// Printed IR of \p R's module plus its profile text: two compiles agree
/// byte for byte when these agree.
std::string fingerprint(const bropt::CompileResult &R);

} // namespace perfbench

#endif // PERFBENCH_PIPELINE_H
