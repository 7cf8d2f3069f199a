//===- support/LruCache.h - Bounded map with LRU eviction -------*- C++ -*-===//
//
// Part of the bropt project, a reproduction of "Improving Performance by
// Branch Reordering" (Yang, Uh & Whalley, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small capacity-bounded map evicting the least-recently-used entry.
/// Long-running processes sit their caches on it so they stop growing
/// without bound: the artifact cache (driver/Artifact.h) that the
/// Evaluator and broptd share, and NativeRunner's shared objects.
///
/// Not thread-safe; callers hold their own lock.
///
//===----------------------------------------------------------------------===//

#ifndef BROPT_SUPPORT_LRUCACHE_H
#define BROPT_SUPPORT_LRUCACHE_H

#include <cstddef>
#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>
#include <utility>

namespace bropt {

/// Capacity-bounded key-value store with least-recently-used eviction.
/// A capacity of 0 means unbounded (eviction never fires).
template <typename Key, typename Value> class LruCache {
public:
  explicit LruCache(size_t Capacity = 0) : Capacity(Capacity) {}

  size_t size() const { return Entries.size(); }
  uint64_t evictions() const { return Evictions; }

  /// \returns the value for \p K (refreshing its recency), or null.
  Value *get(const Key &K) {
    auto It = Index.find(K);
    if (It == Index.end())
      return nullptr;
    // Splicing moves the node without invalidating iterators.
    Entries.splice(Entries.begin(), Entries, It->second);
    return &It->second->second;
  }

  /// Inserts (or overwrites) \p K -> \p V as the most recent entry.  When
  /// the insert pushes the cache over capacity, the least-recently-used
  /// entry is evicted and its value returned so the caller can fold any
  /// statistics it carried into longer-lived counters.
  std::optional<Value> put(const Key &K, Value V) {
    auto It = Index.find(K);
    if (It != Index.end()) {
      It->second->second = std::move(V);
      Entries.splice(Entries.begin(), Entries, It->second);
      return std::nullopt;
    }
    Entries.emplace_front(K, std::move(V));
    Index.emplace(K, Entries.begin());
    if (Capacity == 0 || Entries.size() <= Capacity)
      return std::nullopt;
    auto Last = std::prev(Entries.end());
    std::optional<Value> Evicted(std::move(Last->second));
    Index.erase(Last->first);
    Entries.pop_back();
    ++Evictions;
    return Evicted;
  }

  void clear() {
    Entries.clear();
    Index.clear();
  }

  /// Iteration in recency order (most recent first).
  auto begin() { return Entries.begin(); }
  auto end() { return Entries.end(); }
  auto begin() const { return Entries.begin(); }
  auto end() const { return Entries.end(); }

private:
  size_t Capacity;
  uint64_t Evictions = 0;
  std::list<std::pair<Key, Value>> Entries;
  std::unordered_map<Key, typename std::list<std::pair<Key, Value>>::iterator>
      Index;
};

} // namespace bropt

#endif // BROPT_SUPPORT_LRUCACHE_H
