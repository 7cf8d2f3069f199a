//===- ir/IRParser.cpp - Parse printed IR back into a Module --------------===//

#include "ir/IRParser.h"

#include "support/Strings.h"

#include <cctype>
#include <cstdlib>
#include <map>
#include <optional>
#include <vector>

using namespace bropt;

namespace {

/// Splits \p Text into lines, keeping empty lines so diagnostics can report
/// 1-based line numbers matching the printer's output.
std::vector<std::string_view> splitLines(std::string_view Text) {
  std::vector<std::string_view> Lines;
  size_t Start = 0;
  while (Start <= Text.size()) {
    size_t End = Text.find('\n', Start);
    if (End == std::string_view::npos) {
      if (Start < Text.size())
        Lines.push_back(Text.substr(Start));
      break;
    }
    Lines.push_back(Text.substr(Start, End - Start));
    Start = End + 1;
  }
  return Lines;
}

/// Cursor over one line with primitive lexing helpers.  All parse methods
/// return false (leaving a diagnostic in Error) on mismatch.
class LineCursor {
public:
  LineCursor(std::string_view Text, size_t LineNo, std::string &Error)
      : Text(Text), LineNo(LineNo), Error(Error) {}

  void skipSpaces() {
    while (Pos < Text.size() && Text[Pos] == ' ')
      ++Pos;
  }

  bool atEnd() {
    skipSpaces();
    return Pos >= Text.size();
  }

  /// Consumes \p Literal exactly (after skipping spaces).
  bool expect(std::string_view Literal) {
    skipSpaces();
    if (Text.substr(Pos, Literal.size()) != Literal)
      return fail("expected '" + std::string(Literal) + "'");
    Pos += Literal.size();
    return true;
  }

  /// True if \p Literal comes next; consumes it if so.
  bool consumeIf(std::string_view Literal) {
    skipSpaces();
    if (Text.substr(Pos, Literal.size()) != Literal)
      return false;
    Pos += Literal.size();
    return true;
  }

  char peek() {
    skipSpaces();
    return Pos < Text.size() ? Text[Pos] : '\0';
  }

  /// Parses a signed decimal integer.
  bool parseInt(int64_t &Value) {
    skipSpaces();
    size_t Start = Pos;
    if (Pos < Text.size() && (Text[Pos] == '-' || Text[Pos] == '+'))
      ++Pos;
    while (Pos < Text.size() && std::isdigit(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
    if (Pos == Start || (Pos == Start + 1 && !std::isdigit(static_cast<unsigned char>(Text[Start]))))
      return fail("expected an integer");
    Value = std::strtoll(std::string(Text.substr(Start, Pos - Start)).c_str(),
                         nullptr, 10);
    return true;
  }

  bool parseUnsigned(uint64_t &Value) {
    int64_t Signed = 0;
    if (!parseInt(Signed) || Signed < 0)
      return fail("expected an unsigned integer");
    Value = static_cast<uint64_t>(Signed);
    return true;
  }

  /// Parses `r<N>`.
  bool parseReg(unsigned &Reg) {
    skipSpaces();
    if (Pos >= Text.size() || Text[Pos] != 'r' || Pos + 1 >= Text.size() ||
        !std::isdigit(static_cast<unsigned char>(Text[Pos + 1])))
      return fail("expected a register");
    ++Pos;
    uint64_t Value = 0;
    if (!parseUnsigned(Value))
      return false;
    Reg = static_cast<unsigned>(Value);
    return true;
  }

  /// Parses a register or immediate operand (`<none>` included).
  bool parseOperand(Operand &Op) {
    skipSpaces();
    if (consumeIf("<none>")) {
      Op = Operand();
      return true;
    }
    if (Pos < Text.size() && Text[Pos] == 'r' && Pos + 1 < Text.size() &&
        std::isdigit(static_cast<unsigned char>(Text[Pos + 1]))) {
      unsigned Reg = 0;
      if (!parseReg(Reg))
        return false;
      Op = Operand::reg(Reg);
      return true;
    }
    int64_t Imm = 0;
    if (!parseInt(Imm))
      return fail("expected an operand");
    Op = Operand::imm(Imm);
    return true;
  }

  /// Parses an identifier-like word: [A-Za-z0-9_.]+ (labels and names).
  bool parseWord(std::string &Word) {
    skipSpaces();
    size_t Start = Pos;
    while (Pos < Text.size() &&
           (std::isalnum(static_cast<unsigned char>(Text[Pos])) ||
            Text[Pos] == '_' || Text[Pos] == '.'))
      ++Pos;
    if (Pos == Start)
      return fail("expected an identifier");
    Word = std::string(Text.substr(Start, Pos - Start));
    return true;
  }

  bool fail(std::string Why) {
    if (Error.empty())
      Error = formatString("line %zu: %s (near \"%s\")", LineNo, Why.c_str(),
                           std::string(Text.substr(Pos, 24)).c_str());
    return false;
  }

private:
  std::string_view Text;
  size_t Pos = 0;
  size_t LineNo;
  std::string &Error;
};

/// Parses a printed block label `bb<id>[.<name>]` into its parts.
bool splitLabel(std::string_view Label, unsigned &Id, std::string &Name) {
  if (Label.size() < 3 || Label.substr(0, 2) != "bb" ||
      !std::isdigit(static_cast<unsigned char>(Label[2])))
    return false;
  size_t Pos = 2;
  uint64_t Value = 0;
  while (Pos < Label.size() &&
         std::isdigit(static_cast<unsigned char>(Label[Pos]))) {
    Value = Value * 10 + static_cast<uint64_t>(Label[Pos] - '0');
    ++Pos;
  }
  Id = static_cast<unsigned>(Value);
  Name.clear();
  if (Pos < Label.size()) {
    if (Label[Pos] != '.')
      return false;
    Name = std::string(Label.substr(Pos + 1));
  }
  return true;
}

std::optional<CondCode> condCodeFromName(std::string_view Name) {
  if (Name == "eq")
    return CondCode::EQ;
  if (Name == "ne")
    return CondCode::NE;
  if (Name == "lt")
    return CondCode::LT;
  if (Name == "le")
    return CondCode::LE;
  if (Name == "gt")
    return CondCode::GT;
  if (Name == "ge")
    return CondCode::GE;
  return std::nullopt;
}

std::optional<BinaryOp> binaryOpFromName(std::string_view Name) {
  static const std::pair<std::string_view, BinaryOp> Table[] = {
      {"add", BinaryOp::Add}, {"sub", BinaryOp::Sub}, {"mul", BinaryOp::Mul},
      {"div", BinaryOp::Div}, {"rem", BinaryOp::Rem}, {"and", BinaryOp::And},
      {"or", BinaryOp::Or},   {"xor", BinaryOp::Xor}, {"shl", BinaryOp::Shl},
      {"shr", BinaryOp::Shr},
  };
  for (const auto &[OpName, Op] : Table)
    if (Name == OpName)
      return Op;
  return std::nullopt;
}

/// Rebuilds one function's body from its printed lines.
class FunctionParser {
public:
  FunctionParser(Module &M, Function &F, std::string &Error)
      : M(M), F(F), Error(Error) {}

  /// \p Lines covers the body only (between the header and closing '}').
  bool run(const std::vector<std::pair<size_t, std::string_view>> &Lines) {
    // First pass: create every block so branches can resolve forward refs.
    for (const auto &[LineNo, Line] : Lines) {
      if (Line.empty() || Line[0] == ' ')
        continue;
      if (Line.back() != ':') {
        Error = formatString("line %zu: expected 'label:'", LineNo);
        return false;
      }
      std::string_view Label = Line.substr(0, Line.size() - 1);
      unsigned Id = 0;
      std::string Name;
      if (!splitLabel(Label, Id, Name)) {
        Error = formatString("line %zu: malformed block label '%s'", LineNo,
                             std::string(Label).c_str());
        return false;
      }
      BasicBlock *Block = F.createBlockWithId(Id, std::move(Name));
      if (!BlocksByLabel.emplace(std::string(Label), Block).second) {
        Error = formatString("line %zu: duplicate block label '%s'", LineNo,
                             std::string(Label).c_str());
        return false;
      }
    }

    BasicBlock *Current = nullptr;
    for (const auto &[LineNo, Line] : Lines) {
      if (Line.empty())
        continue;
      if (Line[0] != ' ') {
        Current = BlocksByLabel.at(
            std::string(Line.substr(0, Line.size() - 1)));
        continue;
      }
      if (!Current) {
        Error = formatString("line %zu: instruction before any label", LineNo);
        return false;
      }
      if (Current->hasTerminator()) {
        Error = formatString("line %zu: instruction after the terminator",
                             LineNo);
        return false;
      }
      if (!parseInstruction(LineNo, Line, *Current))
        return false;
    }
    return true;
  }

private:
  BasicBlock *lookupBlock(LineCursor &Cursor) {
    std::string Label;
    if (!Cursor.parseWord(Label))
      return nullptr;
    auto It = BlocksByLabel.find(Label);
    if (It == BlocksByLabel.end()) {
      Cursor.fail("unknown block label '" + Label + "'");
      return nullptr;
    }
    return It->second;
  }

  bool parseInstruction(size_t LineNo, std::string_view Line,
                        BasicBlock &Block) {
    LineCursor Cursor(Line, LineNo, Error);
    std::string Mnemonic;
    if (!Cursor.parseWord(Mnemonic))
      return false;

    // The mnemonic may carry the condition code: "br.le".
    std::string Suffix;
    if (size_t Dot = Mnemonic.find('.'); Dot != std::string::npos) {
      Suffix = Mnemonic.substr(Dot + 1);
      Mnemonic.resize(Dot);
    }

    std::unique_ptr<Instruction> Inst;
    if (Mnemonic == "mov") {
      unsigned Dest = 0;
      Operand Src;
      if (!Cursor.parseReg(Dest) || !Cursor.expect(",") ||
          !Cursor.parseOperand(Src))
        return false;
      Inst = std::make_unique<MoveInst>(Dest, Src);
    } else if (auto BinOp = binaryOpFromName(Mnemonic)) {
      unsigned Dest = 0;
      Operand Lhs, Rhs;
      if (!Cursor.parseReg(Dest) || !Cursor.expect(",") ||
          !Cursor.parseOperand(Lhs) || !Cursor.expect(",") ||
          !Cursor.parseOperand(Rhs))
        return false;
      Inst = std::make_unique<BinaryInst>(*BinOp, Dest, Lhs, Rhs);
    } else if (Mnemonic == "neg" || Mnemonic == "not") {
      unsigned Dest = 0;
      Operand Src;
      if (!Cursor.parseReg(Dest) || !Cursor.expect(",") ||
          !Cursor.parseOperand(Src))
        return false;
      Inst = std::make_unique<UnaryInst>(
          Mnemonic == "neg" ? UnaryOp::Neg : UnaryOp::Not, Dest, Src);
    } else if (Mnemonic == "ld") {
      unsigned Dest = 0;
      Operand Base;
      int64_t Offset = 0;
      if (!Cursor.parseReg(Dest) || !Cursor.expect(",") ||
          !Cursor.expect("[") || !Cursor.parseOperand(Base) ||
          !Cursor.expect("+") || !Cursor.parseInt(Offset) ||
          !Cursor.expect("]"))
        return false;
      Inst = std::make_unique<LoadInst>(Dest, Base, Offset);
    } else if (Mnemonic == "st") {
      Operand Value, Base;
      int64_t Offset = 0;
      if (!Cursor.parseOperand(Value) || !Cursor.expect(",") ||
          !Cursor.expect("[") || !Cursor.parseOperand(Base) ||
          !Cursor.expect("+") || !Cursor.parseInt(Offset) ||
          !Cursor.expect("]"))
        return false;
      Inst = std::make_unique<StoreInst>(Value, Base, Offset);
    } else if (Mnemonic == "cmp") {
      Operand Lhs, Rhs;
      if (!Cursor.parseOperand(Lhs) || !Cursor.expect(",") ||
          !Cursor.parseOperand(Rhs))
        return false;
      Inst = std::make_unique<CmpInst>(Lhs, Rhs);
    } else if (Mnemonic == "call") {
      if (!parseCall(Cursor, Inst))
        return false;
    } else if (Mnemonic == "readc") {
      unsigned Dest = 0;
      if (!Cursor.parseReg(Dest))
        return false;
      Inst = std::make_unique<ReadCharInst>(Dest);
    } else if (Mnemonic == "putc") {
      Operand Src;
      if (!Cursor.parseOperand(Src))
        return false;
      Inst = std::make_unique<PutCharInst>(Src);
    } else if (Mnemonic == "printi") {
      Operand Src;
      if (!Cursor.parseOperand(Src))
        return false;
      Inst = std::make_unique<PrintIntInst>(Src);
    } else if (Mnemonic == "profile") {
      uint64_t Id = 0;
      unsigned Reg = 0;
      if (!Cursor.expect("seq") || !Cursor.parseUnsigned(Id) ||
          !Cursor.expect(",") || !Cursor.parseReg(Reg))
        return false;
      Inst = std::make_unique<ProfileInst>(static_cast<unsigned>(Id), Reg);
    } else if (Mnemonic == "comboprofile") {
      if (!parseComboProfile(Cursor, Inst))
        return false;
    } else if (Mnemonic == "br") {
      auto CC = condCodeFromName(Suffix);
      if (!CC)
        return Cursor.fail("unknown condition code '" + Suffix + "'");
      BasicBlock *Taken = lookupBlock(Cursor);
      if (!Taken || !Cursor.expect(",") || !Cursor.expect("fall"))
        return false;
      BasicBlock *FallThrough = lookupBlock(Cursor);
      if (!FallThrough)
        return false;
      Inst = std::make_unique<CondBrInst>(*CC, Taken, FallThrough);
    } else if (Mnemonic == "jmp" || Mnemonic == "fall") {
      BasicBlock *Target = lookupBlock(Cursor);
      if (!Target)
        return false;
      auto Jump = std::make_unique<JumpInst>(Target);
      Jump->setIsFallThrough(Mnemonic == "fall");
      Inst = std::move(Jump);
    } else if (Mnemonic == "switch") {
      if (!parseSwitch(Cursor, Inst))
        return false;
    } else if (Mnemonic == "ijmp") {
      Operand Index;
      if (!Cursor.parseOperand(Index) || !Cursor.expect(",") ||
          !Cursor.expect("["))
        return false;
      std::vector<BasicBlock *> Table;
      if (!Cursor.consumeIf("]")) {
        do {
          BasicBlock *Target = lookupBlock(Cursor);
          if (!Target)
            return false;
          Table.push_back(Target);
        } while (Cursor.consumeIf(","));
        if (!Cursor.expect("]"))
          return false;
      }
      Inst = std::make_unique<IndirectJumpInst>(Index, std::move(Table));
    } else if (Mnemonic == "ret") {
      Operand Value;
      if (!Cursor.atEnd() && !Cursor.parseOperand(Value))
        return false;
      Inst = std::make_unique<RetInst>(Value);
    } else {
      return Cursor.fail("unknown mnemonic '" + Mnemonic + "'");
    }

    if (!Cursor.atEnd())
      return Cursor.fail("trailing text after the instruction");
    Block.append(std::move(Inst));
    return true;
  }

  bool parseCall(LineCursor &Cursor, std::unique_ptr<Instruction> &Inst) {
    // `call r2, f(...)` defines r2; `call f(...)` has no destination.  The
    // next delimiter disambiguates a callee named like a register.
    std::string First;
    if (!Cursor.parseWord(First))
      return false;
    std::optional<unsigned> Dest;
    std::string Callee;
    if (Cursor.consumeIf(",")) {
      if (First.size() < 2 || First[0] != 'r')
        return Cursor.fail("expected a destination register");
      Dest = static_cast<unsigned>(
          std::strtoul(First.c_str() + 1, nullptr, 10));
      if (!Cursor.parseWord(Callee))
        return false;
    } else {
      Callee = std::move(First);
    }
    if (!Cursor.expect("("))
      return false;
    std::vector<Operand> Args;
    if (!Cursor.consumeIf(")")) {
      do {
        Operand Arg;
        if (!Cursor.parseOperand(Arg))
          return false;
        Args.push_back(Arg);
      } while (Cursor.consumeIf(","));
      if (!Cursor.expect(")"))
        return false;
    }
    Function *Target = M.getFunction(Callee);
    if (!Target)
      return Cursor.fail("call to unknown function '" + Callee + "'");
    Inst = std::make_unique<CallInst>(Dest, Target, std::move(Args));
    return true;
  }

  bool parseComboProfile(LineCursor &Cursor,
                         std::unique_ptr<Instruction> &Inst) {
    uint64_t Id = 0;
    if (!Cursor.expect("seq") || !Cursor.parseUnsigned(Id) ||
        !Cursor.expect(",") || !Cursor.expect("["))
      return false;
    std::vector<ComboProfileInst::Condition> Conditions;
    if (!Cursor.consumeIf("]")) {
      do {
        ComboProfileInst::Condition Cond;
        std::string CCName;
        if (!Cursor.parseOperand(Cond.Lhs) || !Cursor.parseWord(CCName))
          return false;
        auto CC = condCodeFromName(CCName);
        if (!CC)
          return Cursor.fail("unknown condition code '" + CCName + "'");
        Cond.Pred = *CC;
        if (!Cursor.parseOperand(Cond.Rhs))
          return false;
        Conditions.push_back(Cond);
      } while (Cursor.consumeIf(","));
      if (!Cursor.expect("]"))
        return false;
    }
    Inst = std::make_unique<ComboProfileInst>(static_cast<unsigned>(Id),
                                              std::move(Conditions));
    return true;
  }

  bool parseSwitch(LineCursor &Cursor, std::unique_ptr<Instruction> &Inst) {
    Operand Value;
    if (!Cursor.parseOperand(Value) || !Cursor.expect("["))
      return false;
    std::vector<SwitchInst::Case> Cases;
    if (!Cursor.consumeIf("]")) {
      do {
        SwitchInst::Case Case;
        if (!Cursor.parseInt(Case.Value) || !Cursor.expect("->"))
          return false;
        Case.Target = lookupBlock(Cursor);
        if (!Case.Target)
          return false;
        Cases.push_back(Case);
      } while (Cursor.consumeIf(","));
      if (!Cursor.expect("]"))
        return false;
    }
    if (!Cursor.expect(",") || !Cursor.expect("default"))
      return false;
    BasicBlock *Default = lookupBlock(Cursor);
    if (!Default)
      return false;
    Inst = std::make_unique<SwitchInst>(Value, std::move(Cases), Default);
    return true;
  }

  Module &M;
  Function &F;
  std::string &Error;
  std::map<std::string, BasicBlock *> BlocksByLabel;
};

/// Parses `func NAME(N params, M regs) {` headers.
bool parseFunctionHeader(std::string_view Line, size_t LineNo,
                         std::string &Name, uint64_t &Params, uint64_t &Regs,
                         std::string &Error) {
  LineCursor Cursor(Line, LineNo, Error);
  return Cursor.expect("func") && Cursor.parseWord(Name) &&
         Cursor.expect("(") && Cursor.parseUnsigned(Params) &&
         Cursor.expect("params") && Cursor.expect(",") &&
         Cursor.parseUnsigned(Regs) && Cursor.expect("regs") &&
         Cursor.expect(")") && Cursor.expect("{") && Cursor.atEnd();
}

} // namespace

std::unique_ptr<Module> bropt::parseModuleText(std::string_view Text,
                                               std::string *Error) {
  std::string LocalError;
  std::string &Err = Error ? *Error : LocalError;
  auto M = std::make_unique<Module>();
  std::vector<std::string_view> Lines = splitLines(Text);

  // First pass: globals (in address order) and function headers, so calls
  // can resolve across functions in any order.
  for (size_t Index = 0; Index < Lines.size(); ++Index) {
    std::string_view Line = Lines[Index];
    size_t LineNo = Index + 1;
    if (Line.rfind("global ", 0) == 0) {
      LineCursor Cursor(Line, LineNo, Err);
      std::string Name;
      uint64_t Words = 0, Address = 0;
      if (!Cursor.expect("global") || !Cursor.parseWord(Name) ||
          !Cursor.expect(":") || !Cursor.parseUnsigned(Words) ||
          !Cursor.expect("words") || !Cursor.expect("@") ||
          !Cursor.parseUnsigned(Address))
        return nullptr;
      std::vector<int64_t> Init;
      if (Cursor.consumeIf("=")) {
        if (!Cursor.expect("["))
          return nullptr;
        do {
          int64_t Value = 0;
          if (!Cursor.parseInt(Value))
            return nullptr;
          Init.push_back(Value);
        } while (Cursor.consumeIf(","));
        if (!Cursor.expect("]"))
          return nullptr;
      }
      GlobalVariable *G = M->createGlobal(
          std::move(Name), static_cast<uint32_t>(Words), std::move(Init));
      if (G->BaseAddress != Address) {
        Err = formatString(
            "line %zu: global address %llu does not match layout %u", LineNo,
            static_cast<unsigned long long>(Address), G->BaseAddress);
        return nullptr;
      }
    } else if (Line.rfind("func ", 0) == 0) {
      std::string Name;
      uint64_t Params = 0, Regs = 0;
      if (!parseFunctionHeader(Line, LineNo, Name, Params, Regs, Err))
        return nullptr;
      if (M->getFunction(Name)) {
        Err = formatString("line %zu: duplicate function '%s'", LineNo,
                           Name.c_str());
        return nullptr;
      }
      Function *F =
          M->createFunction(Name, static_cast<unsigned>(Params));
      if (Regs > 0)
        F->growRegsTo(static_cast<unsigned>(Regs) - 1);
    }
  }

  // Second pass: function bodies.
  for (size_t Index = 0; Index < Lines.size(); ++Index) {
    std::string_view Line = Lines[Index];
    if (Line.rfind("func ", 0) != 0)
      continue;
    std::string Name;
    uint64_t Params = 0, Regs = 0;
    if (!parseFunctionHeader(Line, Index + 1, Name, Params, Regs, Err))
      return nullptr;
    std::vector<std::pair<size_t, std::string_view>> Body;
    size_t End = Index + 1;
    for (; End < Lines.size() && Lines[End] != "}"; ++End)
      Body.push_back({End + 1, Lines[End]});
    if (End >= Lines.size()) {
      Err = formatString("line %zu: missing '}' for function '%s'", Index + 1,
                         Name.c_str());
      return nullptr;
    }
    if (!FunctionParser(*M, *M->getFunction(Name), Err).run(Body))
      return nullptr;
    Index = End;
  }
  return M;
}
