//===- ir/BasicBlock.h - Basic blocks ---------------------------*- C++ -*-===//
//
// Part of the bropt project, a reproduction of "Improving Performance by
// Branch Reordering" (Yang, Uh & Whalley, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A basic block owns an ordered list of instructions, the last of which is
/// a terminator once the block is complete.  Blocks live in a function's
/// layout order, which determines fall-through placement.
///
//===----------------------------------------------------------------------===//

#ifndef BROPT_IR_BASICBLOCK_H
#define BROPT_IR_BASICBLOCK_H

#include "ir/Instruction.h"

#include <memory>
#include <string>
#include <vector>

namespace bropt {

class Function;

/// A node of the control-flow graph.
class BasicBlock {
public:
  BasicBlock(Function *Parent, unsigned Id, std::string Name)
      : Parent(Parent), Id(Id), Name(std::move(Name)) {}

  BasicBlock(const BasicBlock &) = delete;
  BasicBlock &operator=(const BasicBlock &) = delete;

  Function *getParent() const { return Parent; }
  unsigned getId() const { return Id; }
  const std::string &getName() const { return Name; }

  /// A printable label, e.g. "bb3" or "bb3.loop".
  std::string getLabel() const;

  //===--------------------------------------------------------------------===//
  // Instruction list
  //===--------------------------------------------------------------------===//

  bool empty() const { return Insts.empty(); }
  size_t size() const { return Insts.size(); }
  Instruction &front() { return *Insts.front(); }
  Instruction &back() { return *Insts.back(); }
  const Instruction &front() const { return *Insts.front(); }
  const Instruction &back() const { return *Insts.back(); }

  Instruction *getInstruction(size_t Index) {
    assert(Index < Insts.size() && "instruction index out of range");
    return Insts[Index].get();
  }
  const Instruction *getInstruction(size_t Index) const {
    assert(Index < Insts.size() && "instruction index out of range");
    return Insts[Index].get();
  }

  /// Iteration over raw instruction pointers.
  auto begin() { return Insts.begin(); }
  auto end() { return Insts.end(); }
  auto begin() const { return Insts.begin(); }
  auto end() const { return Insts.end(); }

  /// \returns the terminator, or null if the block is incomplete.
  Instruction *getTerminator();
  const Instruction *getTerminator() const;

  /// \returns true if this block ends with a terminator.
  bool hasTerminator() const { return getTerminator() != nullptr; }

  /// Appends \p I; asserts that no terminator precedes it.
  Instruction *append(std::unique_ptr<Instruction> I);

  /// Inserts \p I before position \p Index.
  Instruction *insertAt(size_t Index, std::unique_ptr<Instruction> I);

  /// Removes and returns the instruction at \p Index.
  std::unique_ptr<Instruction> removeAt(size_t Index);

  /// Removes instructions [Index, end).
  void truncateFrom(size_t Index);

  /// \returns the position of \p I within the block.
  size_t indexOf(const Instruction *I) const;

  //===--------------------------------------------------------------------===//
  // CFG
  //===--------------------------------------------------------------------===//

  /// Successor blocks in terminator order (empty for incomplete blocks);
  /// predecessorMap (ir/CFG.h) gives the other direction.
  std::vector<BasicBlock *> successors() const;

  /// Renders the block as text.
  std::string toString() const;

private:
  Function *Parent;
  unsigned Id;
  std::string Name;
  std::vector<std::unique_ptr<Instruction>> Insts;
};

} // namespace bropt

#endif // BROPT_IR_BASICBLOCK_H
