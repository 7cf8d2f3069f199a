//===- codegen/NativeRunner.cpp - Compile and run emitted C ---------------===//
//
// Part of the bropt project, a reproduction of "Improving Performance by
// Branch Reordering" (Yang, Uh & Whalley, PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "codegen/NativeRunner.h"

#include "codegen/NativeABI.h"
#include "ir/Module.h"
#include "support/Strings.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#if defined(_WIN32)
// No dlopen; the runner reports unavailable.
#else
#include <csignal>
#include <dlfcn.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>
#endif

namespace bropt {

namespace {

/// FNV-1a over the source text: the cache key.  A hit is confirmed by
/// comparing the cached source with the new one.
uint64_t fnv1a(const std::string &S) {
  uint64_t H = 1469598103934665603ull;
  for (unsigned char Ch : S) {
    H ^= Ch;
    H *= 1099511628211ull;
  }
  return H;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

std::string discoverCompiler() {
  if (const char *Env = std::getenv("BROPT_CC"); Env && *Env)
    return Env;
#ifdef BROPT_HOST_CC
  if (*BROPT_HOST_CC)
    return BROPT_HOST_CC;
#endif
  return "cc";
}

std::string makeScratchDir() {
  const char *T = std::getenv("TMPDIR");
  std::string Templ = (T && *T ? std::string(T) : std::string("/tmp")) +
                      "/bropt-native-XXXXXX";
  std::vector<char> Buf(Templ.begin(), Templ.end());
  Buf.push_back('\0');
#if defined(_WIN32)
  return std::string();
#else
  if (!mkdtemp(Buf.data()))
    return std::string();
  return std::string(Buf.data());
#endif
}

#if !defined(_WIN32)

/// How one compiler invocation ended.
enum class CompilerOutcome { Succeeded, Failed, Cancelled, TimedOut };

/// Runs \p Command under `/bin/sh -c` in its own process group, polling
/// \p Control (when given) so another thread can abort it and a deadline
/// can bound it.  std::system would block unkillably on a hung compiler —
/// and the runner's mutex with it.
CompilerOutcome runCompiler(const std::string &Command,
                            NativeCompileControl *Control) {
  pid_t Child = fork();
  if (Child < 0)
    return CompilerOutcome::Failed;
  if (Child == 0) {
    // Own process group, so a kill reaches the compiler and anything it
    // spawned (cc1, the assembler, the linker).
    setpgid(0, 0);
    execl("/bin/sh", "sh", "-c", Command.c_str(), (char *)nullptr);
    _exit(127);
  }
  setpgid(Child, Child); // also from the parent: beat the exec race

  const auto Start = std::chrono::steady_clock::now();
  auto tearDown = [&](CompilerOutcome Why) {
    kill(-Child, SIGKILL);
    int Ignored;
    waitpid(Child, &Ignored, 0);
    return Why;
  };
  for (;;) {
    int Status = 0;
    pid_t Done = waitpid(Child, &Status, WNOHANG);
    if (Done == Child)
      return WIFEXITED(Status) && WEXITSTATUS(Status) == 0
                 ? CompilerOutcome::Succeeded
                 : CompilerOutcome::Failed;
    if (Done < 0)
      return CompilerOutcome::Failed;
    if (Control) {
      if (Control->Cancel.load(std::memory_order_acquire))
        return tearDown(CompilerOutcome::Cancelled);
      if (Control->TimeoutSeconds > 0 &&
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        Start)
                  .count() > Control->TimeoutSeconds) {
        // The deadline acts through the control: flip Cancel so callers
        // holding only the control see the teardown uniformly.
        Control->Cancel.store(true, std::memory_order_release);
        return tearDown(CompilerOutcome::TimedOut);
      }
    }
    struct timespec Ts = {0, 5'000'000}; // 5ms
    nanosleep(&Ts, nullptr);
  }
}

#endif // !defined(_WIN32)

} // namespace

NativeProgram::~NativeProgram() {
#if !defined(_WIN32)
  if (Handle)
    dlclose(Handle);
#endif
}

RunResult NativeProgram::run(std::string_view Input,
                             const std::vector<int64_t> &Args,
                             uint64_t InstructionLimit) const {
  RunResult Result;
  NativeResult Res;
  std::vector<long long> CallArgs(Args.begin(), Args.end());
  auto *Run = reinterpret_cast<NativeRunFn>(RunFn);
  auto *Release = reinterpret_cast<NativeReleaseFn>(ReleaseFn);
  if (Run(Input.data(), Input.size(), CallArgs.data(), CallArgs.size(),
          InstructionLimit, &Res) != 0) {
    Result.Trapped = true;
    Result.TrapReason = "native run failed (out of memory)";
    return Result;
  }
  Result.Trapped = Res.Trapped != 0;
  if (Result.Trapped)
    Result.TrapReason = Res.TrapReason;
  Result.ExitValue = Res.ExitValue;
  if (Res.Output) {
    Result.Output.assign(Res.Output, Res.OutputSize);
    Release(Res.Output);
  }
  return Result;
}

NativeRunner &NativeRunner::shared() {
  static NativeRunner Runner;
  return Runner;
}

NativeRunner::NativeRunner(size_t CacheCapacity)
    : Compiler(discoverCompiler()), ScratchDir(makeScratchDir()),
      Cache(CacheCapacity) {}

NativeRunner::~NativeRunner() {
  // Drop mapped objects before unlinking their files (Linux allows the
  // unlink either way, but be tidy).
  Cache.clear();
  if (!ScratchDir.empty()) {
    std::error_code EC;
    std::filesystem::remove_all(ScratchDir, EC);
  }
}

bool NativeRunner::available() {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Probe < 0) {
    // Probe with the real pipeline: an empty module still emits a valid
    // TU (its run traps "entry function not found").
    Module Empty;
    std::string Error;
    auto Program = compileLocked(emitC(Empty), &Error);
    Probe = Program ? 1 : 0;
    ProbeReason = Program ? std::string() : Error;
  }
  return Probe == 1;
}

const std::string &NativeRunner::unavailableReason() {
  available();
  std::lock_guard<std::mutex> Lock(Mutex);
  return ProbeReason;
}

std::shared_ptr<const NativeProgram>
NativeRunner::prepare(const Module &M, std::string *Error,
                      const CEmitterOptions &Opts,
                      NativeCompileControl *Control) {
  std::string Source = emitC(M, Opts);
  std::lock_guard<std::mutex> Lock(Mutex);
  return compileLocked(Source, Error, Control);
}

std::shared_ptr<const NativeProgram>
NativeRunner::prepareSource(const std::string &Source, std::string *Error,
                            NativeCompileControl *Control) {
  std::lock_guard<std::mutex> Lock(Mutex);
  return compileLocked(Source, Error, Control);
}

std::shared_ptr<const NativeProgram>
NativeRunner::compileLocked(const std::string &Source, std::string *Error,
                            NativeCompileControl *Control) {
  auto Fail = [&](const std::string &Why) {
    if (Error)
      *Error = Why;
    return std::shared_ptr<const NativeProgram>();
  };

#if defined(_WIN32)
  (void)Control;
  return Fail("native backend requires dlopen (POSIX)");
#else
  uint64_t Key = fnv1a(Source);
  if (auto *Hit = Cache.get(Key)) {
    // The compare costs far less than the emitC that produced Source.
    if ((*Hit)->source() == Source) {
      ++Stats.CacheHits;
      return *Hit;
    }
    // Hash collision: fall through and recompile under the same key.
  }

  if (ScratchDir.empty())
    return Fail("could not create native scratch directory under $TMPDIR");

  uint64_t Id = NextFileId++;
  std::string Base = formatString("%s/m%llu", ScratchDir.c_str(),
                                  (unsigned long long)Id);
  std::string CPath = Base + ".c";
  std::string SoPath = Base + ".so";
  std::string ErrPath = Base + ".err";
  {
    std::ofstream Out(CPath, std::ios::binary);
    Out << Source;
    if (!Out)
      return Fail("could not write " + CPath);
  }

  // BROPT_CC may legitimately be a command with flags ("gcc -m64"), so
  // the compiler part is left unquoted; our own paths are shell-safe.
  std::string Command = Compiler + " -O2 -fPIC -shared -o '" + SoPath +
                        "' '" + CPath + "' 2>'" + ErrPath + "'";
  auto Start = std::chrono::steady_clock::now();
  CompilerOutcome Outcome = runCompiler(Command, Control);
  Stats.CompileSeconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  ++Stats.Compiles;
  if (Outcome == CompilerOutcome::Cancelled ||
      Outcome == CompilerOutcome::TimedOut) {
    ++Stats.CompilesCancelled;
    return Fail(Outcome == CompilerOutcome::Cancelled
                    ? "native compile cancelled"
                    : formatString("native compile timed out after %.1fs",
                                   Control->TimeoutSeconds));
  }
  if (Outcome != CompilerOutcome::Succeeded) {
    std::string Diag = readFile(ErrPath);
    if (Diag.size() > 2000)
      Diag.resize(2000);
    return Fail("host compiler failed (" + Command + "):\n" + Diag);
  }

  void *Handle = dlopen(SoPath.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!Handle) {
    const char *Why = dlerror();
    return Fail(std::string("dlopen failed: ") + (Why ? Why : "unknown"));
  }

  auto Cleanup = [&](const std::string &Why) {
    dlclose(Handle);
    return Fail(Why);
  };
  void *AbiSym = dlsym(Handle, NativeABISymbol);
  void *RunSym = dlsym(Handle, NativeRunSymbol);
  void *ReleaseSym = dlsym(Handle, NativeReleaseSymbol);
  if (!AbiSym || !RunSym || !ReleaseSym)
    return Cleanup("emitted object is missing a bropt_native_* symbol");
  unsigned Abi = reinterpret_cast<NativeAbiFn>(AbiSym)();
  if (Abi != NativeABIVersion)
    return Cleanup(formatString("native ABI mismatch: object %u, host %u",
                                Abi, NativeABIVersion));

  auto Program = std::shared_ptr<NativeProgram>(new NativeProgram());
  Program->Handle = Handle;
  Program->RunFn = RunSym;
  Program->ReleaseFn = ReleaseSym;
  Program->Source = Source;
  // The layout comment is the third line of every emitted TU; recover it
  // for debug surfaces without re-walking a module.
  size_t LayoutPos = Source.find("/* layout ");
  if (LayoutPos != std::string::npos) {
    size_t End = Source.find(" */", LayoutPos);
    if (End != std::string::npos)
      Program->Layout = Source.substr(LayoutPos + 10, End - LayoutPos - 10);
  }

  // The .c/.so/.err files stay on disk for debuggability; the scratch
  // directory is removed wholesale when the runner dies.
  std::shared_ptr<const NativeProgram> Const = Program;
  Cache.put(Key, Const);
  return Const;
#endif
}

NativeRunnerStats NativeRunner::stats() {
  std::lock_guard<std::mutex> Lock(Mutex);
  NativeRunnerStats S = Stats;
  S.Evictions = Cache.evictions();
  return S;
}

} // namespace bropt
