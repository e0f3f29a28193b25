#ifndef CEGRAPH_STATS_MARKOV_TABLE_H_
#define CEGRAPH_STATS_MARKOV_TABLE_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "matching/matcher.h"
#include "query/query_graph.h"
#include "util/arena.h"
#include "util/keyed_cache.h"
#include "util/serde.h"
#include "util/status.h"

namespace cegraph::stats {

/// A Markov table of size h (§4.1): the exact cardinality of every join
/// (pattern) with at most `h` edges. This generalizes the XML Markov tables
/// of Aboulnaga et al. [2] to arbitrary connected patterns exactly as the
/// graph-catalogue estimator [20] does.
///
/// The table is *lazy and workload-driven*, matching the paper's setup
/// ("we generated workload-specific Markov tables"): pattern cardinalities
/// are computed on first use with the exact matcher and memoized under the
/// pattern's canonical (isomorphism-invariant) code, so every isomorphic
/// sub-query across the workload shares one entry.
class MarkovTable {
 public:
  /// Creates a size-`h` table over `g`. `h` must be >= 1 (the paper uses
  /// h = 2 and h = 3).
  MarkovTable(const graph::Graph& g, int h)
      : g_(g), matcher_(g), h_(h) {}

  MarkovTable(const MarkovTable&) = delete;
  MarkovTable& operator=(const MarkovTable&) = delete;

  int h() const { return h_; }
  const graph::Graph& graph() const { return g_; }

  /// True iff `pattern` is stored by this table (connected, 1..h edges).
  bool Contains(const query::QueryGraph& pattern) const;

  /// The exact cardinality of `pattern` (which must satisfy
  /// Contains(pattern)). Computed on first use; cached thereafter.
  /// Thread-safe: the memo cache is mutex-guarded so one table can serve
  /// a parallel WorkloadRunner.
  util::StatusOr<double> Cardinality(const query::QueryGraph& pattern) const;

  /// Number of memoized entries (the "Markov table size" the paper reports
  /// in MBs; each entry is one pattern cardinality).
  size_t num_entries() const { return cache_.size(); }

  // ---- Mapped-backing surface (arena snapshot v3) ----
  // The mapped-or-owned storage model: lookups consult the memo cache
  // first, then any attached read-only arena indexes (snapshot bytes served
  // in place off the page cache), and copy a mapped hit into the memo on
  // first touch (copy-on-miss). Writes always go to the memo, so the
  // dynamic layer's upsert/evict machinery is unchanged. Attach/detach must
  // run quiesced (load / maintenance time), like every other maintenance
  // operation; concurrent estimation only ever *reads* the index list.

  /// Serializes every memoized (canonical code, cardinality) entry into an
  /// arena hash index — the Markov section of a summary snapshot (key =
  /// canonical code bytes, value = 8-byte LE double). With num_shards >= 2
  /// only the entries whose key-hash range is `shard` are written (the
  /// sharded snapshot layer; see util/shard.h — the union over all shards
  /// is exactly the unsharded export).
  void ExportArenaEntries(util::ArenaIndexBuilder& builder, uint32_t shard = 0,
                          uint32_t num_shards = 0) const;

  /// Attaches one mapped index; `owner` keeps the mapping alive.
  void AttachMappedIndex(util::MappedIndex index,
                         std::shared_ptr<const void> owner) const {
    mapped_.emplace_back(std::move(index), std::move(owner));
  }

  /// Drops all mapped backing. The dynamic layer calls this before
  /// scrubbing: a scrub can only evict memo entries, and a still-attached
  /// index would resurrect pre-delta values.
  void DetachMappedIndexes() const { mapped_.clear(); }

  size_t num_mapped_indexes() const { return mapped_.size(); }

  /// Decodes every entry of `index` into the memo cache (stale snapshot
  /// loads materialize-then-scrub).
  util::Status MaterializeFromIndex(const util::MappedIndex& index) const;

  /// Decodes every attached index into the memo cache, then detaches them.
  util::Status MaterializeMapped() const {
    for (const auto& [index, owner] : mapped_) {
      CEGRAPH_RETURN_IF_ERROR(MaterializeFromIndex(index));
    }
    DetachMappedIndexes();
    return util::Status::OK();
  }

  // ---- Maintenance surface (dynamic layer) ----
  // These exist for dynamic::StatsMaintainer: migrating entries onto a new
  // graph epoch and scrubbing entries invalidated by an edge delta. They
  // must run quiesced (no concurrent estimation), like every maintenance
  // operation.

  /// Calls `fn(canonical_code, cardinality)` for every memoized entry.
  template <typename Fn>
  void VisitEntries(Fn&& fn) const {
    cache_.ForEach(fn);
  }

  /// Inserts or overwrites one memo entry with an externally computed exact
  /// value (e.g. a 1-edge pattern refreshed from the new graph's O(1)
  /// relation size).
  void UpsertEntry(const std::string& canonical_code,
                   double cardinality) const {
    cache_.Upsert(canonical_code, cardinality);
  }

  /// Removes every entry whose canonical code matches `pred`; returns how
  /// many were removed.
  template <typename Pred>
  size_t EvictMatching(Pred&& pred) const {
    return cache_.EraseIf(
        [&](const std::string& key, const double&) { return pred(key); });
  }

  /// Lookup/eviction counters of the memo cache.
  util::CacheCounters cache_counters() const { return cache_.counters(); }

  /// Approximate resident size of the table in bytes. The paper reports
  /// < 0.6 MB for any workload-dataset combination at h <= 3; this accessor
  /// lets benches verify the same property for the lazy tables here.
  /// Accounts for the real unordered_map footprint, not just payload: per
  /// entry the std::string object + heap characters (SSO-aware), the double,
  /// and the hash node overhead (next pointer + cached hash); plus the
  /// bucket array.
  size_t ApproximateSizeBytes() const;

 private:
  /// Mapped probe after a memo miss; false on a clean miss *or* on a
  /// corrupted index (the caller recomputes — corruption on this no-Status
  /// path degrades to a cache miss, never an error).
  bool FindMapped(const std::string& key, double* value) const;

  const graph::Graph& g_;
  matching::Matcher matcher_;
  int h_;
  util::KeyedCache<std::string, double> cache_;
  mutable std::vector<std::pair<util::MappedIndex, std::shared_ptr<const void>>>
      mapped_;
};

}  // namespace cegraph::stats

#endif  // CEGRAPH_STATS_MARKOV_TABLE_H_
