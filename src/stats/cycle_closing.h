#ifndef CEGRAPH_STATS_CYCLE_CLOSING_H_
#define CEGRAPH_STATS_CYCLE_CLOSING_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "util/arena.h"
#include "util/keyed_cache.h"
#include "util/random.h"
#include "util/serde.h"
#include "util/status.h"

namespace cegraph::stats {

/// Identifies one cycle-closing statistic P(E_first * E_last | E_close)
/// (§4.3): the probability that a path which *starts* by traversing an
/// edge labeled `first_label` and *ends* by traversing an edge labeled
/// `last_label` is closed into a cycle by an edge labeled `close_label`
/// between the path's endpoints.
///
/// Orientations are relative to the path traversal: `first_forward` is true
/// when the first edge is traversed source-to-destination, and similarly
/// for `last_forward`. `close_from_end` is true when the closing edge runs
/// from the path's end vertex back to its start vertex.
struct ClosingKey {
  graph::Label first_label = 0;
  graph::Label last_label = 0;
  graph::Label close_label = 0;
  bool first_forward = true;
  bool last_forward = true;
  bool close_from_end = true;

  friend bool operator==(const ClosingKey&, const ClosingKey&) = default;
};

struct ClosingKeyHash {
  size_t operator()(const ClosingKey& k) const {
    uint64_t h = k.first_label;
    h = h * 1000003 + k.last_label;
    h = h * 1000003 + k.close_label;
    h = h * 8 + (k.first_forward ? 4 : 0) + (k.last_forward ? 2 : 0) +
        (k.close_from_end ? 1 : 0);
    return static_cast<size_t>(util::MixHash(h));
  }
};

/// Sampling knobs for cycle-closing rates.
struct CycleClosingOptions {
  /// Target number of *completed* walks per statistic (walks that actually
  /// realize a first-label ... last-label path). On sparse graphs most
  /// random walks die before completing, so sampling is adaptive: attempts
  /// continue until this many walks complete or the attempt cap is hit.
  int walks_per_key = 2000;
  /// Attempt cap as a multiple of walks_per_key.
  int max_attempt_factor = 20;
  /// Intermediate hops are sampled uniformly from [0, max_mid_hops]
  /// ("paths of varying lengths", §4.3).
  int max_mid_hops = 3;
  uint64_t seed = 1234;
};

/// The pre-computed cycle-closing-rate statistics of CEG_OCR (§4.3),
/// estimated by random walks ("in our implementation we perform sampling
/// through random walks that start from E_{i-1} and end at E_{i+1}").
///
/// Rates are O(L^3 * 8) entries at most, but are sampled lazily per key so
/// only the statistics the workload actually touches are paid for.
/// Deterministic given the options' seed (each key derives its own stream).
class CycleClosingRates {
 public:
  explicit CycleClosingRates(const graph::Graph& g,
                             const CycleClosingOptions& options = {})
      : g_(g), options_(options) {}

  CycleClosingRates(const CycleClosingRates&) = delete;
  CycleClosingRates& operator=(const CycleClosingRates&) = delete;

  const graph::Graph& graph() const { return g_; }

  /// The closing probability for `key`, in (0, 1]. Uses add-half (Laplace)
  /// smoothing so a rate of exactly zero — which would zero out the whole
  /// CEG path estimate — cannot occur: with c successes out of p completed
  /// walks the rate is (c + 0.5) / (p + 1). Thread-safe (mutex-guarded
  /// memo; each key's walks derive a deterministic stream, so a race on a
  /// cold key recomputes the identical value).
  double Rate(const ClosingKey& key) const;

  size_t num_cached() const { return cache_.size(); }

  // ---- Maintenance surface (dynamic layer) ----

  /// Calls `fn(key, rate)` for every sampled entry.
  template <typename Fn>
  void VisitEntries(Fn&& fn) const {
    cache_.ForEach(fn);
  }

  /// Re-inserts a rate carried over from a previous graph epoch (only valid
  /// when the maintainer proved it cold-equivalent; see
  /// dynamic::StatsMaintainer).
  void UpsertEntry(const ClosingKey& key, double rate) const {
    cache_.Upsert(key, rate);
  }

  /// Removes every entry whose key matches `pred`; returns how many were
  /// removed.
  template <typename Pred>
  size_t EvictMatching(Pred&& pred) const {
    return cache_.EraseIf(
        [&](const ClosingKey& key, const double&) { return pred(key); });
  }

  const CycleClosingOptions& options() const { return options_; }

  /// Lookup/eviction counters of the memo cache.
  util::CacheCounters cache_counters() const { return cache_.counters(); }

  // ---- Mapped-backing surface (arena snapshot v3) ----
  // See MarkovTable: memo first, then mapped probe with copy-on-miss;
  // attach/detach run quiesced. Index keys are the serialized
  // WriteClosingKey bytes, values 8-byte LE doubles. Rate() has no Status
  // channel, so a corrupted index degrades to a resample (deterministic,
  // so still the cold value), never an error.

  /// Serializes every sampled (key, rate) entry into an arena hash index —
  /// the cycle-closing section of a summary snapshot. With num_shards >= 2
  /// only the entries whose key-hash range is `shard` are written (see
  /// util/shard.h).
  void ExportArenaEntries(util::ArenaIndexBuilder& builder, uint32_t shard = 0,
                          uint32_t num_shards = 0) const;

  /// Attaches one mapped index; `owner` keeps the mapping alive.
  void AttachMappedIndex(util::MappedIndex index,
                         std::shared_ptr<const void> owner) const {
    mapped_.emplace_back(std::move(index), std::move(owner));
  }

  /// Drops all mapped backing (pre-scrub; see MarkovTable).
  void DetachMappedIndexes() const { mapped_.clear(); }

  size_t num_mapped_indexes() const { return mapped_.size(); }

  /// Decodes every entry of `index` into the memo cache.
  util::Status MaterializeFromIndex(const util::MappedIndex& index) const;

  /// Decodes every attached index into the memo cache, then detaches them.
  util::Status MaterializeMapped() const {
    for (const auto& [index, owner] : mapped_) {
      CEGRAPH_RETURN_IF_ERROR(MaterializeFromIndex(index));
    }
    DetachMappedIndexes();
    return util::Status::OK();
  }

 private:
  double Sample(const ClosingKey& key) const;
  bool FindMapped(const ClosingKey& key, double* rate) const;

  const graph::Graph& g_;
  CycleClosingOptions options_;
  util::KeyedCache<ClosingKey, double, ClosingKeyHash> cache_;
  mutable std::vector<std::pair<util::MappedIndex, std::shared_ptr<const void>>>
      mapped_;
};

}  // namespace cegraph::stats

#endif  // CEGRAPH_STATS_CYCLE_CLOSING_H_
