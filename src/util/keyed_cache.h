#ifndef CEGRAPH_UTIL_KEYED_CACHE_H_
#define CEGRAPH_UTIL_KEYED_CACHE_H_

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace cegraph::util {

/// Lookup/maintenance counters of one KeyedCache: Find hits and misses
/// (GetOrCompute goes through Find, so misses count cold computes) and
/// entries removed by EraseIf (the dynamic layer's targeted invalidation).
struct CacheCounters {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
};

/// The one memo-cache shape shared by every statistics structure in this
/// library: a mutex-guarded unordered_map with check-compute-insert
/// semantics, where values are computed *outside* the lock (expensive exact
/// matching / sampling must not serialize other readers) and the first
/// completed insert wins.
///
/// Entries are only ever removed by EraseIf, which exists for the dynamic
/// layer's targeted invalidation (stats maintenance after a graph delta).
/// Outside maintenance windows the cache is append-only, so returned
/// references stay valid (unordered_map node stability); maintenance must
/// run quiesced — no concurrent estimation holding entry references — which
/// is the same contract the surrounding stats swap requires anyway.
///
/// This replaces the hand-rolled mutex+map pair that used to be duplicated
/// across MarkovTable, CycleClosingRates, StatsCatalog (twice),
/// DispersionCatalog and friends, and is what gives all of them a uniform
/// ForEach/Insert surface for arena snapshot export and materialization.
template <typename Key, typename Value, typename Hash = std::hash<Key>>
class KeyedCache {
 public:
  KeyedCache() = default;
  KeyedCache(const KeyedCache&) = delete;
  KeyedCache& operator=(const KeyedCache&) = delete;

  /// Returns the cached value for `key`, or nullptr. The pointer stays
  /// valid as long as the entry lives (no erasure outside maintenance).
  const Value* Find(const Key& key) const {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = map_.find(key);
    if (it == map_.end()) {
      ++counters_.misses;
      return nullptr;
    }
    ++counters_.hits;
    return &it->second;
  }

  /// Inserts `value` under `key` unless present; returns the resident
  /// value either way (first insert wins on a race).
  const Value& Insert(const Key& key, Value value) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return map_.try_emplace(key, std::move(value)).first->second;
  }

  /// Inserts or overwrites the value under `key` — the exact in-place
  /// update path of incremental stats maintenance (e.g. refreshing a
  /// base-relation degree map after an edge delta).
  const Value& Upsert(const Key& key, Value value) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return map_.insert_or_assign(key, std::move(value)).first->second;
  }

  /// The value for `key`, computing it with `compute()` outside the lock
  /// on a miss. Two threads racing on a cold key may both compute; the
  /// first insert wins (all compute functions here are deterministic, so
  /// the loser's value is identical).
  template <typename Fn>
  const Value& GetOrCompute(const Key& key, Fn&& compute) const {
    if (const Value* hit = Find(key)) return *hit;
    return Insert(key, compute());
  }

  /// Removes every entry for which `pred(key, value)` is true and returns
  /// how many were removed — the targeted-invalidation path of the dynamic
  /// layer. Invalidates references to the removed entries only; must run
  /// quiesced (see class comment).
  template <typename Pred>
  size_t EraseIf(Pred&& pred) const {
    std::lock_guard<std::mutex> lock(mutex_);
    size_t erased = 0;
    for (auto it = map_.begin(); it != map_.end();) {
      if (pred(it->first, it->second)) {
        it = map_.erase(it);
        ++erased;
      } else {
        ++it;
      }
    }
    counters_.evictions += erased;
    return erased;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return map_.size();
  }

  /// Bucket count of the underlying map (for resident-size accounting).
  size_t bucket_count() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return map_.bucket_count();
  }

  /// Lookup/eviction counters since construction.
  CacheCounters counters() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return counters_;
  }

  /// Calls `fn(key, value)` for every entry, under the lock — the uniform
  /// export path. `fn` must not re-enter the cache.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [key, value] : map_) fn(key, value);
  }

 private:
  mutable std::mutex mutex_;
  mutable std::unordered_map<Key, Value, Hash> map_;
  mutable CacheCounters counters_;
};

}  // namespace cegraph::util

#endif  // CEGRAPH_UTIL_KEYED_CACHE_H_
