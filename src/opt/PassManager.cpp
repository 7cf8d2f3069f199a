//===- opt/PassManager.cpp - Fixed optimization pipelines ------------------===//

#include "opt/Passes.h"

#include "support/Debug.h"

using namespace bropt;

namespace {

PassObserver &observer() {
  thread_local PassObserver Observer;
  return Observer;
}

/// Runs \p Pass and reports it to the observer if it changed anything.
bool runObserved(bool (*Pass)(Function &), const char *Name, Function &F) {
  if (!Pass(F))
    return false;
  notifyPassObserver(Name, F);
  return true;
}

} // namespace

void bropt::setPassObserver(PassObserver Observer) {
  observer() = std::move(Observer);
}

void bropt::notifyPassObserver(const char *PassName, Function &F) {
  if (observer())
    observer()(PassName, F);
}

bool bropt::runCleanupPipeline(Function &F) {
  bool EverChanged = false;
  // The pipeline converges quickly; the bound is a backstop against a pass
  // pair oscillating.
  for (unsigned Round = 0; Round < 8; ++Round) {
    bool Changed = false;
    Changed |= runObserved(foldConstants, "constant-folding", F);
    Changed |= runObserved(propagateCopies, "copy-propagation", F);
    Changed |= runObserved(eliminateDeadCode, "dead-code-elimination", F);
    Changed |= runObserved(chainBranches, "branch-chaining", F);
    Changed |= runObserved(removeUnreachableBlocks, "unreachable-blocks", F);
    if (!Changed)
      return EverChanged;
    EverChanged = true;
  }
  return EverChanged;
}

void bropt::finalizeFunction(Function &F) {
  runCleanupPipeline(F);
  runObserved(repositionCode, "repositioning", F);
  // Redundant-compare elimination works on the final block adjacency, then
  // a last DCE sweep catches anything it exposed.
  if (runObserved(eliminateRedundantCompares, "redundant-compare-elimination",
                  F))
    runObserved(eliminateDeadCode, "dead-code-elimination", F);
  runObserved(repositionCode, "repositioning", F);
}

void bropt::optimizeModule(Module &M) {
  for (auto &F : M)
    finalizeFunction(*F);
}
