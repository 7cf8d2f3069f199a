//===- ir/Function.h - Functions --------------------------------*- C++ -*-===//
//
// Part of the bropt project, a reproduction of "Improving Performance by
// Branch Reordering" (Yang, Uh & Whalley, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A function owns its basic blocks in layout order.  Layout order matters:
/// a CondBr whose fall-through successor is the next block in layout costs
/// nothing extra, while any other placement requires the repositioning pass
/// to insert an unconditional jump.  The paper's transformation explicitly
/// duplicates code to avoid introducing such jumps (Figure 10).
///
//===----------------------------------------------------------------------===//

#ifndef BROPT_IR_FUNCTION_H
#define BROPT_IR_FUNCTION_H

#include "ir/BasicBlock.h"

#include <memory>
#include <string>
#include <vector>

namespace bropt {

class Module;

/// A function: parameters arrive in registers 0..NumParams-1.
class Function {
public:
  Function(Module *Parent, std::string Name, unsigned NumParams)
      : Parent(Parent), Name(std::move(Name)), NumParams(NumParams),
        NumRegs(NumParams) {}

  Function(const Function &) = delete;
  Function &operator=(const Function &) = delete;

  Module *getParent() const { return Parent; }
  const std::string &getName() const { return Name; }
  unsigned getNumParams() const { return NumParams; }
  unsigned getNumRegs() const { return NumRegs; }

  /// Allocates a fresh virtual register.
  unsigned newReg() { return NumRegs++; }

  /// Ensures the register space covers register \p Reg (used when splicing
  /// cloned code between functions in tests).
  void growRegsTo(unsigned Reg) {
    if (Reg >= NumRegs)
      NumRegs = Reg + 1;
  }

  //===--------------------------------------------------------------------===//
  // Block list (layout order)
  //===--------------------------------------------------------------------===//

  bool empty() const { return Blocks.empty(); }
  size_t size() const { return Blocks.size(); }

  BasicBlock &getEntryBlock() {
    assert(!Blocks.empty() && "function has no blocks");
    return *Blocks.front();
  }
  const BasicBlock &getEntryBlock() const {
    assert(!Blocks.empty() && "function has no blocks");
    return *Blocks.front();
  }

  auto begin() { return Blocks.begin(); }
  auto end() { return Blocks.end(); }
  auto begin() const { return Blocks.begin(); }
  auto end() const { return Blocks.end(); }

  BasicBlock *getBlock(size_t Index) {
    assert(Index < Blocks.size() && "block index out of range");
    return Blocks[Index].get();
  }
  const BasicBlock *getBlock(size_t Index) const {
    assert(Index < Blocks.size() && "block index out of range");
    return Blocks[Index].get();
  }

  /// Appends a new block at the end of the layout.
  BasicBlock *createBlock(std::string BlockName = "");

  /// Appends a block with an explicit id, for tools that must reproduce an
  /// existing function exactly (the IR text parser).  The id must not be in
  /// use; future automatic ids continue past it.
  BasicBlock *createBlockWithId(unsigned Id, std::string BlockName = "");

  /// Creates a new block placed immediately after \p After in the layout.
  BasicBlock *createBlockAfter(BasicBlock *After, std::string BlockName = "");

  /// \returns the layout position of \p B.
  size_t blockIndex(const BasicBlock *B) const;

  /// \returns the block following \p B in layout, or null for the last one.
  BasicBlock *getNextBlock(const BasicBlock *B);

  /// Moves \p B so it immediately follows \p After in the layout.
  void moveBlockAfter(BasicBlock *B, BasicBlock *After);

  /// Reorders the block list to \p Order, which must be a permutation of
  /// the current blocks with the entry block first.
  void setLayout(const std::vector<BasicBlock *> &Order);

  /// Removes \p B from the function.  The caller guarantees no other block
  /// branches to \p B.
  void eraseBlock(BasicBlock *B);

  /// \returns the number of instructions across all blocks.
  size_t instructionCount() const;

  /// Static code size: instructions that would occupy space in machine
  /// code.  Excludes layout fall-through jumps and profiling hooks.
  size_t codeSize() const;

  /// Renders the function as text.
  std::string toString() const;

private:
  Module *Parent;
  std::string Name;
  unsigned NumParams;
  unsigned NumRegs;
  unsigned NextBlockId = 0;
  std::vector<std::unique_ptr<BasicBlock>> Blocks;
};

} // namespace bropt

#endif // BROPT_IR_FUNCTION_H
