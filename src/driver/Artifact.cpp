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

const DecodedModule &Artifact::fused(const ProfileDB *FuseProfile,
                                     bool &Hit) {
  Hit = Fused != nullptr;
  if (!Hit) {
    FuseOptions FO;
    FO.Profile = FuseProfile;
    Fused = std::make_unique<const DecodedModule>(
        decodeFused(*Compiled.M, FO));
    EngineBuilds.fetch_add(1, std::memory_order_relaxed);
  }
  return *Fused;
}

const NativeProgram *Artifact::native(NativeRunner &Runner,
                                      std::string &Error, bool &Hit) {
  Hit = NativeTried;
  if (!Hit) {
    NativeTried = true;
    Native = Runner.prepare(*Compiled.M, &NativeError);
    EngineBuilds.fetch_add(1, std::memory_order_relaxed);
  }
  if (!Native)
    Error = NativeError;
  return Native.get();
}

AdaptiveController &Artifact::controller(const RuntimeOptions &Options,
                                         bool &Hit) {
  Hit = Controller != nullptr;
  if (!Hit) {
    Controller = std::make_unique<AdaptiveController>(*Compiled.M, Options);
    EngineBuilds.fetch_add(1, std::memory_order_relaxed);
  }
  return *Controller;
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
