#ifndef CEGRAPH_ENGINE_CEG_CACHE_H_
#define CEGRAPH_ENGINE_CEG_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "ceg/ceg_o.h"
#include "estimators/optimistic.h"
#include "query/query_graph.h"
#include "stats/cycle_closing.h"
#include "stats/markov_table.h"
#include "util/status.h"

namespace cegraph::engine {

/// One cached CEG build shared by every consumer of the same query class:
/// the 9 optimistic estimators, the P* oracle and the bound sketch all read
/// the same entry instead of re-running BuildCegO/BuildCegOcr.
///
/// Entries are keyed by the query's *canonical* code, so isomorphic queries
/// across a workload share one build (CEG weights are pattern cardinalities,
/// which are isomorphism-invariant). The flip side: `built.subset_of_node`
/// and `built.edge_provenance` are numbered in the *representative* query's
/// edge order — consumers that need per-edge provenance for a specific
/// query must map through an isomorphism, while aggregate/path-weight
/// consumers (everything in this repo) can read them directly.
struct CachedCeg {
  ceg::BuiltCegO built;
  /// Path aggregates over the CEG, computed once at insert time.
  bool aggregates_ok = false;
  util::Status aggregates_status;    ///< set iff !aggregates_ok
  ceg::Ceg::PathAggregates aggregates;  ///< valid iff aggregates_ok
};

/// Thread-safe per-graph cache of CEG builds, keyed by (query canonical
/// code, CEG kind, Markov h, construction-rule bits). Entries are immutable
/// after insert (the CEG is finalized so traversals are pure reads) and
/// shared via shared_ptr, so readers never block builders.
///
/// Only whole-query estimates come through here. Sub-plan estimates
/// (CardinalityEstimator::EstimateSubplans, which DpOptimizer calls) of
/// the CEG_O specs bypass the cache: they build every sub-plan's CEG from
/// one per-query ceg::CegOBuilder, which is cheaper than a canonical code
/// and a lookup per sub-plan, and they leave the cache's size unchanged.
///
/// For the dynamic layer every entry records the distinct edge labels of
/// its query and whether it is an OCR build, so EvictAffected can drop
/// exactly the builds whose CEG weights (Markov cardinalities,
/// cycle-closing rates) an edge delta invalidated.
class CegCache {
 public:
  CegCache() = default;
  CegCache(const CegCache&) = delete;
  CegCache& operator=(const CegCache&) = delete;

  /// Returns the cached CEG of `q`'s isomorphism class under (kind,
  /// options), building (and caching) it on miss. `rates` is required iff
  /// kind == kCegOcr. Build failures are returned and not cached.
  util::StatusOr<std::shared_ptr<const CachedCeg>> GetOrBuild(
      const query::QueryGraph& q, const stats::MarkovTable& markov,
      OptimisticCeg kind, const stats::CycleClosingRates* rates = nullptr,
      const ceg::CegOOptions& options = {});

  /// Targeted invalidation after a graph delta: drops every entry whose
  /// query uses a label marked in `changed_labels`, plus (when
  /// `evict_all_ocr`) every CEG_OCR entry regardless of labels — closing
  /// rates sampled with intermediate hops are coupled to every relation.
  /// Returns the number of dropped entries. Must run quiesced.
  size_t EvictAffected(const std::vector<bool>& changed_labels,
                       bool evict_all_ocr);

  /// The fork-side twin of EvictAffected: copies every entry of `src` a
  /// delta did NOT invalidate into this cache (entries are immutable and
  /// held by shared_ptr, so the copy is by reference and the two caches
  /// can serve different graph epochs concurrently). Skipped entries are
  /// added to this cache's eviction counter — the fork's maintenance
  /// report counts them exactly like an in-place eviction. Returns the
  /// number of entries carried. `src` must not be this cache.
  size_t CarryFrom(const CegCache& src,
                   const std::vector<bool>& changed_labels,
                   bool evict_all_ocr);

  /// Lookup counters: exactly one miss per distinct (query class, kind,
  /// options) entry ever inserted — the "one build per query per CEG
  /// kind" property the micro-bench asserts — regardless of thread
  /// interleavings (a racer whose redundant cold build loses the insert
  /// is counted as a hit). hits() + misses() == number of successful
  /// GetOrBuild calls.
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  size_t size() const;
  void Clear();

 private:
  struct Entry {
    std::shared_ptr<const CachedCeg> ceg;
    /// Distinct edge labels of the query, sorted — the invalidation index.
    std::vector<graph::Label> labels;
    bool ocr = false;
  };

  mutable std::mutex mutex_;
  std::unordered_map<std::string, Entry> entries_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace cegraph::engine

#endif  // CEGRAPH_ENGINE_CEG_CACHE_H_
