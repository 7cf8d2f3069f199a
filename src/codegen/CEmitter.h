//===- codegen/CEmitter.h - Lower optimized IR to C -------------*- C++ -*-===//
//
// Part of the bropt project, a reproduction of "Improving Performance by
// Branch Reordering" (Yang, Uh & Whalley, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Translates a post-pass Module into one self-contained C translation
/// unit: registers become C locals, basic blocks become labels emitted in
/// *layout order*, and branches become `if`/`goto` — so the fall-through
/// chains opt/Repositioning built survive into real machine code and the
/// host compiler's straight-line layout.  A conditional branch whose
/// fall-through is physically next emits no `goto` at all; a jump flagged
/// `isFallThrough()` emits nothing.  That is the whole point of the
/// backend: the paper's Figure-8 ordering becomes instruction order the
/// hardware branch predictor actually sees.
///
/// The emitted TU replicates the interpreter's observable semantics
/// exactly — wrap-around arithmetic, trap conditions and their message
/// strings, the instruction-limit fuel and 2000-frame call-depth guards,
/// I/O byte-for-byte — so the fuzz oracle can demand bit-identical
/// observables against the fused engine.  DynamicCounts are *not*
/// collected natively; native runs report zero counts by design.
///
/// Output is a pure function of the module (plus options): same IR in,
/// same text out.  Golden-file tests pin that down, and NativeRunner
/// keys its shared-object cache on a hash of the text, which embodies
/// the block-ordering signature.
///
//===----------------------------------------------------------------------===//

#ifndef BROPT_CODEGEN_CEMITTER_H
#define BROPT_CODEGEN_CEMITTER_H

#include <string>

namespace bropt {

class Module;

/// Knobs for emission.  The generated `bropt_native_run` invokes `main`,
/// as the interpreters do; a module without it still emits a valid TU
/// whose run traps with the interpreter's "entry function 'main' not
/// found" message.
struct CEmitterOptions {
  /// Emit only `main`'s call closure instead of every function.  The
  /// tier-2 JIT compiles one hot entry at a time; skipping unreachable
  /// bodies keeps the host compiler's work (and the source-hash cache
  /// key) proportional to what actually runs.  All calls are direct
  /// (CallInst carries a Function*; IndirectJump is intra-function), so
  /// the closure is exact, not conservative.
  bool OnlyReachable = false;
};

/// \returns the complete C translation unit for \p M.
std::string emitC(const Module &M, const CEmitterOptions &Opts = {});

/// \returns a compact signature of \p M's block layout, e.g.
/// "main:0,3,1,2;scan:0,1" — one clause per function listing block ids in
/// physical order.  Reordering changes the signature; it names what the
/// emitted text bakes in and shows up in cache/debug surfaces.
std::string layoutSignature(const Module &M);

} // namespace bropt

#endif // BROPT_CODEGEN_CEMITTER_H
