//===- tests/GoldenFile.h - Golden-file comparison for tests ----*- C++ -*-===//
//
// Part of the bropt project, a reproduction of "Improving Performance by
// Branch Reordering" (Yang, Uh & Whalley, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins generated text against a committed golden file byte for byte, so
/// any drift shows up as a reviewable diff.  With BROPT_UPDATE_GOLDEN set
/// the file is rewritten instead:
///
///   BROPT_UPDATE_GOLDEN=1 ctest -R <suite>
///
/// Review the new output by eye before committing it.
///
//===----------------------------------------------------------------------===//

#ifndef BROPT_TESTS_GOLDENFILE_H
#define BROPT_TESTS_GOLDENFILE_H

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace bropt {

/// \returns the path of golden file \p Name under tests/\p Dir/golden.
inline std::string goldenPath(const std::string &Dir, const std::string &Name) {
  return std::string(BROPT_SOURCE_DIR) + "/tests/" + Dir + "/golden/" + Name;
}

/// Compares \p Actual against the golden file at \p Path; with
/// BROPT_UPDATE_GOLDEN set, rewrites the golden instead.
inline void expectGolden(const std::string &Actual, const std::string &Path) {
  if (std::getenv("BROPT_UPDATE_GOLDEN")) {
    std::ofstream Out(Path, std::ios::trunc | std::ios::binary);
    ASSERT_TRUE(Out.good()) << "cannot write " << Path;
    Out << Actual;
    return;
  }
  std::ifstream In(Path, std::ios::binary);
  ASSERT_TRUE(In.good()) << "missing golden file " << Path
                         << "; regenerate with BROPT_UPDATE_GOLDEN=1";
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  EXPECT_EQ(Buffer.str(), Actual)
      << "output drifted from " << Path
      << "; review the diff, then regenerate with BROPT_UPDATE_GOLDEN=1";
}

} // namespace bropt

#endif // BROPT_TESTS_GOLDENFILE_H
