//===- lang/Lowering.cpp - AST-to-IR lowering ------------------------------===//

#include "lang/Lowering.h"

#include "ir/IRBuilder.h"
#include "lang/Parser.h"
#include "lang/Sema.h"
#include "support/Debug.h"

#include <unordered_map>

using namespace bropt;

namespace {

class LoweringImpl {
public:
  explicit LoweringImpl(const TranslationUnit &Unit) : Unit(Unit) {}

  std::unique_ptr<Module> run() {
    M = std::make_unique<Module>();
    for (const GlobalDecl &Global : Unit.Globals) {
      uint32_t Words = Global.ArraySize.value_or(1);
      GlobalVariable *GV =
          M->createGlobal(Global.Name, Words, Global.Init);
      Globals.emplace(Global.Name, GV);
    }
    // Declare functions first so calls can reference later definitions.
    for (const FunctionDecl &Func : Unit.Functions)
      Functions.emplace(
          Func.Name,
          M->createFunction(Func.Name,
                            static_cast<unsigned>(Func.Params.size())));
    for (const FunctionDecl &Func : Unit.Functions)
      lowerFunction(Func);
    return std::move(M);
  }

private:
  //===------------------------------------------------------------------===//
  // Function scaffolding
  //===------------------------------------------------------------------===//

  void lowerFunction(const FunctionDecl &Decl) {
    F = Functions.at(Decl.Name);
    Scopes.clear();
    Scopes.emplace_back();
    BreakTargets.clear();
    ContinueTargets.clear();
    for (size_t Index = 0; Index < Decl.Params.size(); ++Index)
      Scopes.back()[Decl.Params[Index]] = static_cast<unsigned>(Index);
    Builder.setInsertionPoint(F->createBlock("entry"));
    lowerStmt(Decl.Body.get());
    if (!Builder.atTerminator())
      Builder.emitRet(Operand::imm(0));
  }

  /// Starts a fresh insertion block (used after emitting a terminator when
  /// lowering must continue, e.g. for code after a return).
  void startBlock(BasicBlock *Block) { Builder.setInsertionPoint(Block); }

  BasicBlock *newBlock(const char *Name) { return F->createBlock(Name); }

  //===------------------------------------------------------------------===//
  // Name resolution
  //===------------------------------------------------------------------===//

  /// \returns the register of a local, or nullopt for a global scalar.
  std::optional<unsigned> lookupLocal(const std::string &Name) const {
    for (auto It = Scopes.rbegin(); It != Scopes.rend(); ++It) {
      auto Found = It->find(Name);
      if (Found != It->end())
        return Found->second;
    }
    return std::nullopt;
  }

  /// True if \p Reg currently backs a named local (or parameter).
  bool isLocalRegister(unsigned Reg) const {
    for (const auto &Scope : Scopes)
      for (const auto &[Name, LocalReg] : Scope)
        if (LocalReg == Reg)
          return true;
    return false;
  }

  const GlobalVariable *globalOf(const std::string &Name) const {
    auto It = Globals.find(Name);
    assert(It != Globals.end() && "sema admitted an unknown global");
    return It->second;
  }

  //===------------------------------------------------------------------===//
  // Expressions
  //===------------------------------------------------------------------===//

  /// Lowers \p E to an operand; literals stay immediates so comparisons
  /// against constants remain single compare instructions.
  Operand lowerExpr(const Expr *E) {
    switch (E->getKind()) {
    case ExprKind::IntLit:
      return Operand::imm(cast<IntLitExpr>(E)->getValue());
    case ExprKind::VarRef: {
      const std::string &Name = cast<VarRefExpr>(E)->getName();
      if (auto Reg = lookupLocal(Name))
        return Operand::reg(*Reg);
      const GlobalVariable *GV = globalOf(Name);
      unsigned Dest = F->newReg();
      Builder.emitLoad(Dest, Operand::imm(GV->BaseAddress));
      return Operand::reg(Dest);
    }
    case ExprKind::ArrayRef: {
      Operand Address = lowerArrayAddress(cast<ArrayRefExpr>(E));
      unsigned Dest = F->newReg();
      Builder.emitLoad(Dest, Address);
      return Operand::reg(Dest);
    }
    case ExprKind::Call:
      return lowerCall(cast<CallExpr>(E));
    case ExprKind::Unary: {
      const auto *Un = cast<UnaryExpr>(E);
      Operand Src = lowerExpr(Un->getOperand());
      if (Src.isImm())
        return Operand::imm(Un->getOp() == UnOpKind::Neg
                                ? -Src.getImm()
                                : (Src.getImm() == 0 ? 1 : 0));
      unsigned Dest = F->newReg();
      Builder.emitUnary(
          Un->getOp() == UnOpKind::Neg ? UnaryOp::Neg : UnaryOp::Not, Dest,
          Src);
      return Operand::reg(Dest);
    }
    case ExprKind::Binary: {
      const auto *Bin = cast<BinaryExpr>(E);
      if (Bin->getOp() == BinOpKind::LogicalAnd ||
          Bin->getOp() == BinOpKind::LogicalOr || isComparisonOp(Bin->getOp()))
        return materializeBool(E);
      Operand Lhs = lowerExpr(Bin->getLhs());
      Operand Rhs = lowerExpr(Bin->getRhs());
      BinaryOp Op = arithOpFor(Bin->getOp());
      if (Lhs.isImm() && Rhs.isImm())
        if (auto Folded = foldBinary(Op, Lhs.getImm(), Rhs.getImm()))
          return Operand::imm(*Folded);
      unsigned Dest = F->newReg();
      Builder.emitBinary(Op, Dest, Lhs, Rhs);
      return Operand::reg(Dest);
    }
    case ExprKind::Assign:
      return lowerAssign(cast<AssignExpr>(E));
    case ExprKind::IncDec:
      return lowerIncDec(cast<IncDecExpr>(E));
    case ExprKind::Ternary: {
      const auto *Ternary = cast<TernaryExpr>(E);
      unsigned Dest = F->newReg();
      BasicBlock *ThenBB = newBlock("tern.then");
      BasicBlock *ElseBB = newBlock("tern.else");
      BasicBlock *JoinBB = newBlock("tern.join");
      lowerCondition(Ternary->getCond(), ThenBB, ElseBB);
      startBlock(ThenBB);
      Builder.emitMove(Dest, lowerExpr(Ternary->getThen()));
      Builder.emitJump(JoinBB);
      startBlock(ElseBB);
      Builder.emitMove(Dest, lowerExpr(Ternary->getElse()));
      Builder.emitJump(JoinBB);
      startBlock(JoinBB);
      return Operand::reg(Dest);
    }
    }
    BROPT_UNREACHABLE("unknown expression kind");
  }

  static BinaryOp arithOpFor(BinOpKind Op) {
    switch (Op) {
    case BinOpKind::Add:
      return BinaryOp::Add;
    case BinOpKind::Sub:
      return BinaryOp::Sub;
    case BinOpKind::Mul:
      return BinaryOp::Mul;
    case BinOpKind::Div:
      return BinaryOp::Div;
    case BinOpKind::Rem:
      return BinaryOp::Rem;
    case BinOpKind::BitAnd:
      return BinaryOp::And;
    case BinOpKind::BitOr:
      return BinaryOp::Or;
    case BinOpKind::BitXor:
      return BinaryOp::Xor;
    case BinOpKind::Shl:
      return BinaryOp::Shl;
    case BinOpKind::Shr:
      return BinaryOp::Shr;
    default:
      BROPT_UNREACHABLE("not an arithmetic operator");
    }
  }

  static std::optional<int64_t> foldBinary(BinaryOp Op, int64_t L, int64_t R) {
    switch (Op) {
    case BinaryOp::Add:
      return static_cast<int64_t>(static_cast<uint64_t>(L) +
                                  static_cast<uint64_t>(R));
    case BinaryOp::Sub:
      return static_cast<int64_t>(static_cast<uint64_t>(L) -
                                  static_cast<uint64_t>(R));
    case BinaryOp::Mul:
      return static_cast<int64_t>(static_cast<uint64_t>(L) *
                                  static_cast<uint64_t>(R));
    case BinaryOp::Div:
      if (R == 0 || (L == INT64_MIN && R == -1))
        return std::nullopt; // keep the trap at run time
      return L / R;
    case BinaryOp::Rem:
      if (R == 0 || (L == INT64_MIN && R == -1))
        return std::nullopt;
      return L % R;
    case BinaryOp::And:
      return L & R;
    case BinaryOp::Or:
      return L | R;
    case BinaryOp::Xor:
      return L ^ R;
    case BinaryOp::Shl:
      return static_cast<int64_t>(static_cast<uint64_t>(L)
                                  << (static_cast<uint64_t>(R) & 63));
    case BinaryOp::Shr:
      return L >> (static_cast<uint64_t>(R) & 63);
    }
    BROPT_UNREACHABLE("unknown binary op");
  }

  Operand lowerArrayAddress(const ArrayRefExpr *Ref) {
    const GlobalVariable *GV = globalOf(Ref->getName());
    Operand Index = lowerExpr(Ref->getIndex());
    if (Index.isImm())
      return Operand::imm(GV->BaseAddress + Index.getImm());
    unsigned AddrReg = F->newReg();
    Builder.emitBinary(BinaryOp::Add, AddrReg,
                       Operand::imm(GV->BaseAddress), Index);
    return Operand::reg(AddrReg);
  }

  Operand lowerCall(const CallExpr *Call) {
    const std::string &Name = Call->getCallee();
    if (Name == "getchar") {
      unsigned Dest = F->newReg();
      Builder.emitReadChar(Dest);
      return Operand::reg(Dest);
    }
    if (Name == "putchar") {
      Operand Arg = lowerExpr(Call->getArgs()[0].get());
      Builder.emitPutChar(Arg);
      return Arg;
    }
    if (Name == "printint") {
      Operand Arg = lowerExpr(Call->getArgs()[0].get());
      Builder.emitPrintInt(Arg);
      return Arg;
    }
    std::vector<Operand> Args;
    Args.reserve(Call->getArgs().size());
    for (const ExprPtr &Arg : Call->getArgs())
      Args.push_back(lowerExpr(Arg.get()));
    unsigned Dest = F->newReg();
    Builder.emitCall(Dest, Functions.at(Name), std::move(Args));
    return Operand::reg(Dest);
  }

  /// Lowers \p E so its result lands directly in \p Dest when the
  /// expression produces a value in one instruction; otherwise falls back
  /// to lowerExpr + move.  Avoiding the temporary keeps idioms like
  /// `c = getchar()` comparing the same register everywhere, which is what
  /// sequence detection keys on.
  void lowerExprInto(unsigned Dest, const Expr *E) {
    if (const auto *Call = dyn_cast<CallExpr>(E)) {
      if (Call->getCallee() == "getchar") {
        Builder.emitReadChar(Dest);
        return;
      }
      if (!isBuiltinFunction(Call->getCallee())) {
        std::vector<Operand> Args;
        Args.reserve(Call->getArgs().size());
        for (const ExprPtr &Arg : Call->getArgs())
          Args.push_back(lowerExpr(Arg.get()));
        Builder.emitCall(Dest, Functions.at(Call->getCallee()),
                         std::move(Args));
        return;
      }
    }
    if (const auto *Bin = dyn_cast<BinaryExpr>(E)) {
      if (!isComparisonOp(Bin->getOp()) &&
          Bin->getOp() != BinOpKind::LogicalAnd &&
          Bin->getOp() != BinOpKind::LogicalOr) {
        Operand Lhs = lowerExpr(Bin->getLhs());
        Operand Rhs = lowerExpr(Bin->getRhs());
        Builder.emitBinary(arithOpFor(Bin->getOp()), Dest, Lhs, Rhs);
        return;
      }
    }
    if (const auto *Un = dyn_cast<UnaryExpr>(E)) {
      Operand Src = lowerExpr(Un->getOperand());
      if (!Src.isImm()) {
        Builder.emitUnary(Un->getOp() == UnOpKind::Neg ? UnaryOp::Neg
                                                       : UnaryOp::Not,
                          Dest, Src);
        return;
      }
    }
    if (const auto *Ref = dyn_cast<ArrayRefExpr>(E)) {
      Builder.emitLoad(Dest, lowerArrayAddress(Ref));
      return;
    }
    Builder.emitMove(Dest, lowerExpr(E));
  }

  Operand lowerAssign(const AssignExpr *Assign) {
    // Plain assignment into a local: produce the value in place.
    if (Assign->getOp() == AssignExpr::OpKind::Plain) {
      if (const auto *Var = dyn_cast<VarRefExpr>(Assign->getTarget())) {
        if (auto Reg = lookupLocal(Var->getName())) {
          lowerExprInto(*Reg, Assign->getValue());
          return Operand::reg(*Reg);
        }
      }
    }
    Operand Value = lowerExpr(Assign->getValue());
    if (Assign->getOp() != AssignExpr::OpKind::Plain) {
      Operand Current = lowerExpr(Assign->getTarget());
      unsigned Dest = F->newReg();
      Builder.emitBinary(Assign->getOp() == AssignExpr::OpKind::Add
                             ? BinaryOp::Add
                             : BinaryOp::Sub,
                         Dest, Current, Value);
      Value = Operand::reg(Dest);
    }
    storeToLValue(Assign->getTarget(), Value);
    // When the target is a local, yield its register rather than the
    // source operand: idioms like `(c = getchar()) != EOF` then compare
    // the same register the loop body tests, which is what lets detection
    // chain the EOF test into the body's sequence (paper Figure 1).
    if (const auto *Var = dyn_cast<VarRefExpr>(Assign->getTarget()))
      if (auto Reg = lookupLocal(Var->getName()))
        return Operand::reg(*Reg);
    return Value;
  }

  Operand lowerIncDec(const IncDecExpr *IncDec) {
    Operand Old = lowerExpr(IncDec->getTarget());
    if (!IncDec->isPrefix() && Old.isReg()) {
      // Postfix yields the pre-update value; snapshot it, because the
      // register we just read may be the variable itself.
      unsigned Snapshot = F->newReg();
      Builder.emitMove(Snapshot, Old);
      Old = Operand::reg(Snapshot);
    }
    unsigned NewReg = F->newReg();
    Builder.emitBinary(IncDec->isIncrement() ? BinaryOp::Add : BinaryOp::Sub,
                       NewReg, Old, Operand::imm(1));
    storeToLValue(IncDec->getTarget(), Operand::reg(NewReg));
    return IncDec->isPrefix() ? Operand::reg(NewReg) : Old;
  }

  void storeToLValue(const Expr *Target, Operand Value) {
    if (const auto *Var = dyn_cast<VarRefExpr>(Target)) {
      if (auto Reg = lookupLocal(Var->getName())) {
        Builder.emitMove(*Reg, Value);
        return;
      }
      const GlobalVariable *GV = globalOf(Var->getName());
      Builder.emitStore(Value, Operand::imm(GV->BaseAddress));
      return;
    }
    const auto *Ref = cast<ArrayRefExpr>(Target);
    Operand Address = lowerArrayAddress(Ref);
    Builder.emitStore(Value, Address);
  }

  /// Lowers a boolean-valued expression to a register holding 0 or 1.
  Operand materializeBool(const Expr *E) {
    unsigned Dest = F->newReg();
    BasicBlock *TrueBB = newBlock("bool.true");
    BasicBlock *FalseBB = newBlock("bool.false");
    BasicBlock *JoinBB = newBlock("bool.join");
    lowerCondition(E, TrueBB, FalseBB);
    startBlock(TrueBB);
    Builder.emitMove(Dest, Operand::imm(1));
    Builder.emitJump(JoinBB);
    startBlock(FalseBB);
    Builder.emitMove(Dest, Operand::imm(0));
    Builder.emitJump(JoinBB);
    startBlock(JoinBB);
    return Operand::reg(Dest);
  }

  static CondCode condCodeFor(BinOpKind Op) {
    switch (Op) {
    case BinOpKind::Eq:
      return CondCode::EQ;
    case BinOpKind::Ne:
      return CondCode::NE;
    case BinOpKind::Lt:
      return CondCode::LT;
    case BinOpKind::Le:
      return CondCode::LE;
    case BinOpKind::Gt:
      return CondCode::GT;
    case BinOpKind::Ge:
      return CondCode::GE;
    default:
      BROPT_UNREACHABLE("not a comparison operator");
    }
  }

  /// Lowers \p E as control flow: jumps to \p TrueBB when it is nonzero
  /// and \p FalseBB otherwise, with short-circuit evaluation.
  void lowerCondition(const Expr *E, BasicBlock *TrueBB, BasicBlock *FalseBB) {
    if (const auto *Bin = dyn_cast<BinaryExpr>(E)) {
      if (Bin->getOp() == BinOpKind::LogicalAnd) {
        BasicBlock *MidBB = newBlock("and.rhs");
        lowerCondition(Bin->getLhs(), MidBB, FalseBB);
        startBlock(MidBB);
        lowerCondition(Bin->getRhs(), TrueBB, FalseBB);
        return;
      }
      if (Bin->getOp() == BinOpKind::LogicalOr) {
        BasicBlock *MidBB = newBlock("or.rhs");
        lowerCondition(Bin->getLhs(), TrueBB, MidBB);
        startBlock(MidBB);
        lowerCondition(Bin->getRhs(), TrueBB, FalseBB);
        return;
      }
      if (isComparisonOp(Bin->getOp())) {
        Operand Lhs = lowerExpr(Bin->getLhs());
        Operand Rhs = lowerExpr(Bin->getRhs());
        CondCode CC = condCodeFor(Bin->getOp());
        if (Lhs.isImm() && Rhs.isImm()) {
          // Constant condition: fold to an unconditional jump.
          Builder.emitJump(evalCondCode(CC, Lhs.getImm(), Rhs.getImm())
                               ? TrueBB
                               : FalseBB);
          return;
        }
        if (Lhs.isImm()) {
          // Canonicalize to register-vs-immediate compares, the shape the
          // range-condition detector expects.
          std::swap(Lhs, Rhs);
          CC = swapCondCode(CC);
        }
        Builder.emitCmp(Lhs, Rhs);
        Builder.emitCondBr(CC, TrueBB, FalseBB);
        return;
      }
    }
    if (const auto *Un = dyn_cast<UnaryExpr>(E)) {
      if (Un->getOp() == UnOpKind::Not) {
        lowerCondition(Un->getOperand(), FalseBB, TrueBB);
        return;
      }
    }
    Operand Value = lowerExpr(E);
    if (Value.isImm()) {
      Builder.emitJump(Value.getImm() != 0 ? TrueBB : FalseBB);
      return;
    }
    Builder.emitCmp(Value, Operand::imm(0));
    Builder.emitCondBr(CondCode::NE, TrueBB, FalseBB);
  }

  //===------------------------------------------------------------------===//
  // Statements
  //===------------------------------------------------------------------===//

  void lowerStmt(const Stmt *S) {
    switch (S->getKind()) {
    case StmtKind::Block: {
      Scopes.emplace_back();
      for (const StmtPtr &Child : cast<BlockStmt>(S)->getStmts())
        lowerStmt(Child.get());
      Scopes.pop_back();
      return;
    }
    case StmtKind::If: {
      const auto *If = cast<IfStmt>(S);
      BasicBlock *ThenBB = newBlock("if.then");
      BasicBlock *JoinBB = newBlock("if.join");
      BasicBlock *ElseBB = If->getElse() ? newBlock("if.else") : JoinBB;
      lowerCondition(If->getCond(), ThenBB, ElseBB);
      startBlock(ThenBB);
      lowerStmt(If->getThen());
      if (!Builder.atTerminator())
        Builder.emitJump(JoinBB);
      if (If->getElse()) {
        startBlock(ElseBB);
        lowerStmt(If->getElse());
        if (!Builder.atTerminator())
          Builder.emitJump(JoinBB);
      }
      startBlock(JoinBB);
      return;
    }
    case StmtKind::While: {
      const auto *While = cast<WhileStmt>(S);
      BasicBlock *CondBB = newBlock("while.cond");
      BasicBlock *BodyBB = newBlock("while.body");
      BasicBlock *ExitBB = newBlock("while.exit");
      Builder.emitJump(CondBB);
      startBlock(CondBB);
      lowerCondition(While->getCond(), BodyBB, ExitBB);
      startBlock(BodyBB);
      BreakTargets.push_back(ExitBB);
      ContinueTargets.push_back(CondBB);
      lowerStmt(While->getBody());
      BreakTargets.pop_back();
      ContinueTargets.pop_back();
      if (!Builder.atTerminator())
        Builder.emitJump(CondBB);
      startBlock(ExitBB);
      return;
    }
    case StmtKind::DoWhile: {
      const auto *Do = cast<DoWhileStmt>(S);
      BasicBlock *BodyBB = newBlock("do.body");
      BasicBlock *CondBB = newBlock("do.cond");
      BasicBlock *ExitBB = newBlock("do.exit");
      Builder.emitJump(BodyBB);
      startBlock(BodyBB);
      BreakTargets.push_back(ExitBB);
      ContinueTargets.push_back(CondBB);
      lowerStmt(Do->getBody());
      BreakTargets.pop_back();
      ContinueTargets.pop_back();
      if (!Builder.atTerminator())
        Builder.emitJump(CondBB);
      startBlock(CondBB);
      lowerCondition(Do->getCond(), BodyBB, ExitBB);
      startBlock(ExitBB);
      return;
    }
    case StmtKind::For: {
      const auto *For = cast<ForStmt>(S);
      Scopes.emplace_back();
      if (For->getInit())
        lowerStmt(For->getInit());
      BasicBlock *CondBB = newBlock("for.cond");
      BasicBlock *BodyBB = newBlock("for.body");
      BasicBlock *StepBB = newBlock("for.step");
      BasicBlock *ExitBB = newBlock("for.exit");
      Builder.emitJump(CondBB);
      startBlock(CondBB);
      if (For->getCond())
        lowerCondition(For->getCond(), BodyBB, ExitBB);
      else
        Builder.emitJump(BodyBB);
      startBlock(BodyBB);
      BreakTargets.push_back(ExitBB);
      ContinueTargets.push_back(StepBB);
      lowerStmt(For->getBody());
      BreakTargets.pop_back();
      ContinueTargets.pop_back();
      if (!Builder.atTerminator())
        Builder.emitJump(StepBB);
      startBlock(StepBB);
      if (For->getStep())
        lowerExpr(For->getStep());
      Builder.emitJump(CondBB);
      Scopes.pop_back();
      startBlock(ExitBB);
      return;
    }
    case StmtKind::Switch:
      lowerSwitch(cast<SwitchStmt>(S));
      return;
    case StmtKind::Break:
      assert(!BreakTargets.empty() && "sema admitted a stray break");
      Builder.emitJump(BreakTargets.back());
      startBlock(newBlock("after.break"));
      return;
    case StmtKind::Continue:
      assert(!ContinueTargets.empty() && "sema admitted a stray continue");
      Builder.emitJump(ContinueTargets.back());
      startBlock(newBlock("after.continue"));
      return;
    case StmtKind::Return: {
      const auto *Ret = cast<ReturnStmt>(S);
      Operand Value =
          Ret->getValue() ? lowerExpr(Ret->getValue()) : Operand::imm(0);
      Builder.emitRet(Value);
      startBlock(newBlock("after.return"));
      return;
    }
    case StmtKind::ExprStmt:
      lowerExpr(cast<ExprStmt>(S)->getExpr());
      return;
    case StmtKind::VarDecl: {
      const auto *Decl = cast<VarDeclStmt>(S);
      Operand Init =
          Decl->getInit() ? lowerExpr(Decl->getInit()) : Operand::imm(0);
      // Adopt a freshly produced temporary as the variable's register so
      // `int c = getchar();` and the comparisons that follow all use one
      // register (the paper relies on the branch variable living in a
      // single register through the sequence).  Registers that belong to
      // other locals must be copied, not aliased.
      unsigned Reg;
      if (Init.isReg() && !isLocalRegister(Init.getReg())) {
        Reg = Init.getReg();
      } else {
        Reg = F->newReg();
        Builder.emitMove(Reg, Init);
      }
      Scopes.back()[Decl->getName()] = Reg;
      return;
    }
    case StmtKind::Empty:
      return;
    }
  }

  void lowerSwitch(const SwitchStmt *Switch) {
    Operand Value = lowerExpr(Switch->getValue());
    // SwitchInst wants a register so the later lowering pass can compare it
    // repeatedly without re-evaluating anything.
    if (Value.isImm()) {
      unsigned Reg = F->newReg();
      Builder.emitMove(Reg, Value);
      Value = Operand::reg(Reg);
    }

    BasicBlock *ExitBB = newBlock("switch.exit");
    std::vector<BasicBlock *> SectionBlocks;
    BasicBlock *DefaultBB = ExitBB;
    std::vector<SwitchInst::Case> Cases;
    for (const SwitchSection &Section : Switch->getSections()) {
      BasicBlock *SectionBB = newBlock("switch.section");
      SectionBlocks.push_back(SectionBB);
      for (const std::optional<int64_t> &Label : Section.Labels) {
        if (Label)
          Cases.push_back({*Label, SectionBB});
        else
          DefaultBB = SectionBB;
      }
    }
    Builder.emitSwitch(Value, std::move(Cases), DefaultBB);

    BreakTargets.push_back(ExitBB);
    const auto &Sections = Switch->getSections();
    for (size_t Index = 0; Index < Sections.size(); ++Index) {
      startBlock(SectionBlocks[Index]);
      for (const StmtPtr &Child : Sections[Index].Stmts)
        lowerStmt(Child.get());
      if (!Builder.atTerminator()) {
        // C fall-through into the next section, or out of the switch.
        BasicBlock *Next = Index + 1 < Sections.size()
                               ? SectionBlocks[Index + 1]
                               : ExitBB;
        Builder.emitJump(Next);
      }
    }
    BreakTargets.pop_back();
    startBlock(ExitBB);
  }

  const TranslationUnit &Unit;
  std::unique_ptr<Module> M;
  Function *F = nullptr;
  IRBuilder Builder;
  std::unordered_map<std::string, const GlobalVariable *> Globals;
  std::unordered_map<std::string, Function *> Functions;
  std::vector<std::unordered_map<std::string, unsigned>> Scopes;
  std::vector<BasicBlock *> BreakTargets;
  std::vector<BasicBlock *> ContinueTargets;
};

} // namespace

std::unique_ptr<Module> bropt::lowerUnit(const TranslationUnit &Unit) {
  return LoweringImpl(Unit).run();
}

std::unique_ptr<Module> bropt::compileSource(std::string_view Source,
                                             std::string *ErrorText) {
  TranslationUnit Unit;
  std::vector<Diagnostic> Diags;
  if (!parseSource(Source, Unit, Diags) || !analyzeUnit(Unit, Diags)) {
    if (ErrorText)
      *ErrorText = renderDiagnostics(Diags);
    return nullptr;
  }
  return lowerUnit(Unit);
}
