//===- driver/Artifact.cpp - Compiled builds and their one cache ----------===//

#include "driver/Artifact.h"

#include "sim/Fuse.h"

using namespace bropt;

void Artifact::setBuilt(CompileResult Result,
                        std::optional<ProfileDB> BuiltFrom) {
  Built = true;
  Compiled = std::move(Result);
  Profile = std::move(BuiltFrom);
}

bool Artifact::engine(Interpreter::Mode Mode, const ProfileDB *FuseProfile,
                      const RuntimeOptions &Options, NativeRunner &Runner,
                      ExecRequest &Request, bool &Hit, std::string &Error) {
  Hit = false;
  switch (Mode) {
  case Interpreter::Mode::Tree:
    return true;
  case Interpreter::Mode::Fused:
    Hit = Fused != nullptr;
    if (!Hit) {
      FuseOptions FO;
      FO.Profile = FuseProfile;
      Fused = std::make_unique<const DecodedModule>(
          decodeFused(*Compiled.M, FO));
    }
    Request.Prepared = Fused.get();
    break;
  case Interpreter::Mode::Adaptive:
    Hit = Controller != nullptr;
    if (!Hit)
      Controller = std::make_unique<AdaptiveController>(*Compiled.M, Options);
    Request.Adaptive = Controller.get();
    break;
  case Interpreter::Mode::Native:
    Hit = NativeTried;
    if (!Hit) {
      NativeTried = true;
      NativeControl.TimeoutSeconds = Options.NativeCompileTimeout;
      Native = Runner.prepare(*Compiled.M, &NativeError, {}, &NativeControl);
    }
    Request.Native = Native.get();
    Error = NativeError;
    break;
  }
  if (!Hit)
    EngineBuilds.fetch_add(1, std::memory_order_relaxed);
  return Mode != Interpreter::Mode::Native || Native;
}

std::shared_ptr<Artifact> ArtifactCache::lookup(const std::string &Key,
                                                bool &Hit) {
  // Declared before the lock, so an evicted artifact that nobody else
  // holds is destroyed after the lock is released.
  std::optional<std::shared_ptr<Artifact>> Evicted;
  std::lock_guard<std::mutex> Lock(Mutex);
  if (std::shared_ptr<Artifact> *Found = Entries.get(Key)) {
    Hit = true;
    ++Hits;
    return *Found;
  }
  Hit = false;
  ++Misses;
  std::shared_ptr<Artifact> Fresh(new Artifact(EngineBuilds));
  Evicted = Entries.put(Key, Fresh);
  return Fresh;
}

std::vector<std::shared_ptr<Artifact>> ArtifactCache::live() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::vector<std::shared_ptr<Artifact>> Live;
  for (const auto &Entry : Entries)
    Live.push_back(Entry.second);
  return Live;
}

void ArtifactCache::clear() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Entries.clear();
}

ArtifactCacheStats ArtifactCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  ArtifactCacheStats S;
  S.Hits = Hits;
  S.Misses = Misses;
  S.Evictions = Entries.evictions();
  S.EngineBuilds = EngineBuilds.load(std::memory_order_relaxed);
  return S;
}
