#ifndef CEGRAPH_ENGINE_SNAPSHOT_H_
#define CEGRAPH_ENGINE_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "dynamic/delta_graph.h"
#include "graph/graph.h"
#include "util/status.h"

namespace cegraph::engine {

/// The summary-snapshot file format, written by
/// EstimationContext::SaveSnapshot and the `cegraph_stats` CLI: the
/// mmap-able arena container of util/arena.h (magic "CEGARNA1", 8-byte-
/// aligned sections, an explicit offset table), whose sections are usable
/// in place after mmap. Integers are little-endian.
///
///   kArenaMeta      serde: u32 snapshot_version (3), base fingerprint,
///                   options, u64 delta_hash, u64 epoch, current
///                   fingerprint
///   kMarkov         u32 h, u32 pad, then an ArenaIndexBuilder payload
///                   (key = canonical code, value = f64 cardinality);
///                   one section per table size h
///   kClosingRates   index payload (key = closing-key bytes, value = f64)
///   kDegreeCatalog  index payload (key = 8 LE bytes of the u64 label,
///                   value = DegreeMap) — the base-relation maps
///   kDegreeJoins    index payload (key = canonical code, value =
///                   u8 has_stats + QueryGraph + DegreeMap + f64) — the
///                   materialized two-join statistics
///   kDispersion     index payload (key = marked canonical code, value =
///                   3 x f64)
///   kCharSets       CharacteristicSets::SaveArena flat layout
///   kSummaryGraph   SummaryGraph::Save bytes (parsed on first use; the
///                   summary is small and its bucket tables are rebuilt
///                   into pointers anyway)
///   kFeedback       learn::FeedbackStore::Serialize bytes
///   kDeltaLog       u64 count + count x { u8 op, u32 src, u32 dst,
///                   u32 label }
///
/// Unknown section ids are skipped on load, so newer writers stay readable
/// by older readers. Loads are double-guarded: the fingerprints tie a
/// snapshot to the exact graph its statistics describe, and the options
/// block ties it to the construction knobs that shape the stored values —
/// entries computed under a different materialize cap, bucket count or
/// sampling setup would load cleanly but answer wrongly, so those are
/// rejected too.
///
/// Dynamic state: a context that has applied edge deltas stamps its
/// (delta-log hash, epoch, current-graph fingerprint) into kArenaMeta and
/// embeds the net replay log as kDeltaLog, because the stored statistics
/// then describe the *post-delta* graph. The embedded log makes the
/// artifact self-contained: a consumer holding only the base graph replays
/// it (ReadSnapshotDeltaLog + EstimationContext::ApplyDeltas) to
/// reconstruct the exact graph state the statistics describe, then loads
/// fresh.
///
/// A fresh load attaches the keyed indexes behind the stats structures'
/// lookup APIs (copy-on-miss into the memo caches; see util/arena.h), so
/// time-to-first-estimate is the mmap plus header validation instead of a
/// full parse. Stale-but-replayable loads materialize every index into the
/// memo caches and then run the delta-replay scrub.
///
/// The older serde-parsed container (magic "CEGSNAP1", versions 1 and 2)
/// is no longer read: such files fail with the arena's "bad magic"
/// InvalidArgument and must be rebuilt with `cegraph_stats build`.
inline constexpr uint32_t kSnapshotVersionArena = 3;  ///< the one version

/// The context options echoed into the header: everything that changes the
/// content (not just the coverage) of stored statistics. markov_h is
/// informational only — Markov sections carry their own h and entries are
/// exact counts, so cross-h reuse is safe; the other fields must match the
/// loading context exactly.
struct SnapshotOptions {
  uint32_t markov_h = 0;              ///< context default (informational)
  uint32_t summary_buckets = 0;       ///< SumRDF bucket target
  uint64_t stats_materialize_cap = 0; ///< two-join over-cap threshold
  uint32_t cc_walks_per_key = 0;      ///< cycle-closing sampling
  uint32_t cc_max_attempt_factor = 0;
  uint32_t cc_max_mid_hops = 0;
  uint64_t cc_seed = 0;

  friend bool operator==(const SnapshotOptions&,
                         const SnapshotOptions&) = default;
};

/// Section identifiers. Id 7 (the retired container's dynamic-state
/// section, now folded into kArenaMeta) is never written.
enum class SnapshotSection : uint32_t {
  kMarkov = 1,        ///< u32 h + pad + MarkovTable::ExportArenaEntries
  kClosingRates = 2,  ///< CycleClosingRates::ExportArenaEntries
  kDegreeCatalog = 3, ///< StatsCatalog::ExportArenaBases
  kCharSets = 4,      ///< CharacteristicSets::SaveArena
  kSummaryGraph = 5,  ///< SummaryGraph::Save
  kDispersion = 6,    ///< DispersionCatalog::ExportArenaEntries
  /// Net replay log: u64 count + count × { u8 op, u32 src, u32 dst,
  /// u32 label }.
  kDeltaLog = 8,
  /// The header: snapshot version, base fingerprint, options, delta hash,
  /// epoch, current fingerprint.
  kArenaMeta = 9,
  kDegreeJoins = 10,  ///< StatsCatalog::ExportArenaJoins
  /// Learned-feedback store (learn::FeedbackStore::Serialize): the
  /// per-query-class q-error correction state, guarded by its own
  /// base-fingerprint stamp so a load against a different graph
  /// discards it cleanly. Older readers skip the unknown id.
  kFeedback = 11,
};

/// The on-disk container SaveSnapshot / SaveSnapshotShards emit. Only the
/// arena exists; the enum is kept because perfbench/driver names
/// SnapshotFormat::kArena, and goes with the next change to that driver.
enum class SnapshotFormat {
  kArena,  ///< mmap-able arena container (version 3)
};

/// Human-readable name for a section id ("markov", "closing-rates", ...);
/// "unknown" for ids this build does not recognize.
const char* SnapshotSectionName(uint32_t id);

// ---- Sharded snapshots ----
//
// A sharded snapshot is a *manifest* file plus a set of shard files, each
// of which is itself a well-formed snapshot carrying a subset of the
// monolithic sections:
//
//   common file   kArenaMeta + kCharSets + kSummaryGraph (+ kFeedback,
//                 kDeltaLog)
//   shard k of S  kArenaMeta + the keyed sections (kMarkov, kClosingRates,
//                 kDegreeCatalog, kDegreeJoins, kDispersion) filtered to
//                 the entries whose stable key hash falls in range k of an
//                 S-way split, see util/shard.h
//
// The whole-graph summaries live in the common file because their internal
// structure is not key-separable (SumRDF superedge tables connect buckets;
// splitting them would change estimates, not just coverage), while every
// keyed cache partitions exactly: the union of all shards is entry-for-
// entry the monolithic snapshot. A fleet process loads the manifest with
// just its shard set and pays for a fraction of the stats — the lazy
// caches recompute anything outside the loaded set on demand, so a partial
// load is a performance choice, never a correctness one.
//
//   manifest := magic "CEGMANI1", u32 manifest_version,
//               fingerprint (base), options, u32 snapshot_version,
//               u32 num_shards,
//               string common_file, u64 common_bytes, u64 common_hash,
//               u32 entry_count, entry_count x {
//                 u32 shard_id, string file, u64 bytes, u64 hash }
//
// File names are stored relative to the manifest's directory; `hash` is
// the stable FNV-1a (util::StableHash64) of the named file's bytes, so a
// corrupt or swapped-out shard is rejected with a clear error before any
// section is parsed. A manifest must list every shard id 0..num_shards-1
// exactly once — missing, duplicate or out-of-range ids fail ReadShardManifest.
//
// Each referenced file is mmap'd and its bytes hash-verified in place.
// `snapshot_version` must be kSnapshotVersionArena: manifests naming the
// retired versions 1 or 2 are rejected.
inline constexpr char kShardManifestMagic[] = "CEGMANI1";  // 8 chars + NUL
inline constexpr uint32_t kShardManifestVersion = 1;
/// Upper bound on num_shards — far beyond any sane fleet, just a
/// corruption guard.
inline constexpr uint32_t kMaxSnapshotShards = 4096;

/// One file referenced by a shard manifest.
struct ShardFileInfo {
  uint32_t shard = 0;  ///< unused for the common file
  std::string file;    ///< relative to the manifest's directory
  uint64_t bytes = 0;
  uint64_t hash = 0;   ///< util::StableHash64 of the file's bytes
};

/// Parsed shard manifest.
struct ShardManifest {
  uint32_t version = 0;           ///< manifest format version
  uint32_t snapshot_version = 0;  ///< version of the shard files (3)
  graph::GraphFingerprint fingerprint;
  SnapshotOptions options;
  uint32_t num_shards = 0;
  ShardFileInfo common;
  std::vector<ShardFileInfo> shards;  ///< sorted by shard id, 0..num_shards-1
};

/// True iff the file at `path` starts with the shard-manifest magic (the
/// cheap sniff LoadSnapshot/ReadSnapshotDeltaLog use to accept a manifest
/// anywhere a monolithic snapshot path is accepted). False for unreadable
/// files.
bool IsShardManifest(const std::string& path);

/// Reads and validates the manifest at `path`: magic/version, the named
/// snapshot version (3), and that the shard list covers 0..num_shards-1
/// exactly once (a missing id, a duplicate/overlapping id, or an
/// out-of-range id is InvalidArgument).
/// Does not open the shard files themselves.
util::StatusOr<ShardManifest> ReadShardManifest(const std::string& path);

/// One section as seen by `cegraph_stats inspect`: its id, size on disk,
/// and entry count (groups for char-sets, buckets for the summary graph,
/// cache entries otherwise).
struct SnapshotSectionInfo {
  uint32_t id = 0;
  std::string name;
  uint64_t payload_bytes = 0;
  uint64_t entries = 0;
  /// Only meaningful for kMarkov sections: the table size h.
  uint32_t markov_h = 0;
  /// Absolute byte offset of the payload in the file.
  uint64_t offset = 0;
};

/// Parsed snapshot header + section table, without applying anything to a
/// context (and without needing the graph).
struct SnapshotInfo {
  uint32_t version = 0;
  graph::GraphFingerprint fingerprint;
  SnapshotOptions options;
  uint64_t file_bytes = 0;
  /// Dynamic state; zero for static (epoch-0) snapshots.
  uint64_t delta_hash = 0;
  uint64_t epoch = 0;
  /// Fingerprint of the graph the stored statistics actually describe
  /// (== `fingerprint` for static snapshots, the compacted post-delta
  /// graph otherwise).
  graph::GraphFingerprint current_fingerprint;
  std::vector<SnapshotSectionInfo> sections;
};

/// Reads and validates the header and section table of the snapshot at
/// `path`. Rejects bad magic/version and truncated files with the same
/// errors LoadSnapshot would give.
util::StatusOr<SnapshotInfo> ReadSnapshotInfo(const std::string& path);

/// Reads just the embedded net delta log of the snapshot at `path` (empty
/// for static snapshots). Applying it to a context over the snapshot's
/// base graph reconstructs the exact graph state the statistics describe,
/// after which LoadSnapshot succeeds as a fresh load. A shard-manifest
/// path delegates to the manifest's common file (which is where the
/// embedded log lives).
util::StatusOr<std::vector<dynamic::EdgeDelta>> ReadSnapshotDeltaLog(
    const std::string& path);

}  // namespace cegraph::engine

#endif  // CEGRAPH_ENGINE_SNAPSHOT_H_
