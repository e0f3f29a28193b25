#include "engine/snapshot.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <span>
#include <sstream>
#include <system_error>
#include <utility>

#include "dynamic/stats_maintainer.h"
#include "engine/estimation_context.h"
#include "util/arena.h"
#include "util/serde.h"
#include "util/shard.h"

namespace cegraph::engine {

namespace {

using util::serde::Reader;
using util::serde::Writer;

util::StatusOr<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return util::NotFoundError("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return util::InternalError("read error on " + path);
  return std::move(buffer).str();
}

/// Writes `bytes` to a sibling temporary file and renames it over `path`.
/// Contexts serve loaded snapshots off the mapping, so truncating the old
/// file in place would fault (SIGBUS) every reader still mapping it; the
/// rename leaves them the old inode, and new readers never see a
/// half-written file.
util::Status WriteFileBytes(const std::string& path,
                            const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return util::InternalError("cannot open " + tmp + " for write");
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) return util::InternalError("write error on " + tmp);
  }
  std::error_code error;
  std::filesystem::rename(tmp, path, error);
  if (error) {
    std::filesystem::remove(tmp, error);
    return util::InternalError("cannot replace " + path);
  }
  return util::Status::OK();
}

void WriteFingerprint(Writer& writer, const graph::GraphFingerprint& fp) {
  writer.WriteU32(fp.num_vertices);
  writer.WriteU32(fp.num_labels);
  writer.WriteU32(fp.num_vertex_labels);
  writer.WriteU64(fp.num_edges);
  writer.WriteU64(fp.edge_hash);
}

util::StatusOr<graph::GraphFingerprint> ReadFingerprint(Reader& reader) {
  graph::GraphFingerprint fp;
  auto num_vertices = reader.ReadU32();
  if (!num_vertices.ok()) return num_vertices.status();
  auto num_labels = reader.ReadU32();
  if (!num_labels.ok()) return num_labels.status();
  auto num_vertex_labels = reader.ReadU32();
  if (!num_vertex_labels.ok()) return num_vertex_labels.status();
  auto num_edges = reader.ReadU64();
  if (!num_edges.ok()) return num_edges.status();
  auto edge_hash = reader.ReadU64();
  if (!edge_hash.ok()) return edge_hash.status();
  fp.num_vertices = *num_vertices;
  fp.num_labels = *num_labels;
  fp.num_vertex_labels = *num_vertex_labels;
  fp.num_edges = *num_edges;
  fp.edge_hash = *edge_hash;
  return fp;
}

/// The options block a context would stamp into a snapshot it saves.
SnapshotOptions OptionsOf(const ContextOptions& options) {
  SnapshotOptions out;
  out.markov_h = static_cast<uint32_t>(options.markov_h);
  out.summary_buckets = options.summary_buckets;
  out.stats_materialize_cap = options.stats_materialize_cap;
  out.cc_walks_per_key =
      static_cast<uint32_t>(options.cycle_closing.walks_per_key);
  out.cc_max_attempt_factor =
      static_cast<uint32_t>(options.cycle_closing.max_attempt_factor);
  out.cc_max_mid_hops =
      static_cast<uint32_t>(options.cycle_closing.max_mid_hops);
  out.cc_seed = options.cycle_closing.seed;
  return out;
}

void WriteOptions(Writer& writer, const SnapshotOptions& options) {
  writer.WriteU32(options.markov_h);
  writer.WriteU32(options.summary_buckets);
  writer.WriteU64(options.stats_materialize_cap);
  writer.WriteU32(options.cc_walks_per_key);
  writer.WriteU32(options.cc_max_attempt_factor);
  writer.WriteU32(options.cc_max_mid_hops);
  writer.WriteU64(options.cc_seed);
}

util::StatusOr<SnapshotOptions> ReadOptions(Reader& reader) {
  SnapshotOptions out;
  auto markov_h = reader.ReadU32();
  if (!markov_h.ok()) return markov_h.status();
  auto buckets = reader.ReadU32();
  if (!buckets.ok()) return buckets.status();
  auto cap = reader.ReadU64();
  if (!cap.ok()) return cap.status();
  auto walks = reader.ReadU32();
  if (!walks.ok()) return walks.status();
  auto attempts = reader.ReadU32();
  if (!attempts.ok()) return attempts.status();
  auto mid_hops = reader.ReadU32();
  if (!mid_hops.ok()) return mid_hops.status();
  auto seed = reader.ReadU64();
  if (!seed.ok()) return seed.status();
  out.markov_h = *markov_h;
  out.summary_buckets = *buckets;
  out.stats_materialize_cap = *cap;
  out.cc_walks_per_key = *walks;
  out.cc_max_attempt_factor = *attempts;
  out.cc_max_mid_hops = *mid_hops;
  out.cc_seed = *seed;
  return out;
}

std::string DescribeFingerprint(const graph::GraphFingerprint& fp) {
  std::ostringstream out;
  out << fp.num_vertices << "V/" << fp.num_labels << "L/" << fp.num_edges
      << "E/hash=" << std::hex << fp.edge_hash;
  return std::move(out).str();
}

/// Resolves a manifest-stored (relative) file name against the manifest's
/// own directory.
std::string ResolveManifestFile(const std::string& manifest_path,
                                const std::string& file) {
  const std::filesystem::path p(file);
  if (p.is_absolute()) return file;
  return (std::filesystem::path(manifest_path).parent_path() / p).string();
}

double MillisSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// The snapshot-vs-context options guard. Statistics computed under
/// different construction knobs would merge cleanly but answer wrongly
/// (over-cap verdicts from a smaller materialize cap, rates from a
/// different sampling setup, a summary with a different bucket target).
/// markov_h is exempt — Markov sections carry their own h and their
/// entries are exact counts.
util::Status CheckSnapshotOptions(const SnapshotOptions& snap,
                                  const ContextOptions& ctx) {
  SnapshotOptions expected = OptionsOf(ctx);
  SnapshotOptions actual = snap;
  expected.markov_h = 0;
  actual.markov_h = 0;
  if (expected == actual) return util::Status::OK();
  return util::FailedPreconditionError(
      "snapshot built under different context options (summary buckets " +
      std::to_string(snap.summary_buckets) + "/" +
      std::to_string(ctx.summary_buckets) + ", materialize cap " +
      std::to_string(snap.stats_materialize_cap) + "/" +
      std::to_string(ctx.stats_materialize_cap) +
      ", cycle-closing sampling " + std::to_string(snap.cc_walks_per_key) +
      "x" + std::to_string(snap.cc_max_attempt_factor) + "/" +
      std::to_string(snap.cc_max_mid_hops) + " seed " +
      std::to_string(snap.cc_seed) + ")");
}

/// The "neither fresh nor stale-replayable" rejection.
util::Status FingerprintMismatchError(
    const graph::GraphFingerprint& snap_current,
    const graph::GraphFingerprint& snap_base, uint64_t snap_epoch,
    const graph::GraphFingerprint& ctx_graph,
    const graph::GraphFingerprint& ctx_base, uint64_t ctx_epoch,
    bool has_delta_log) {
  return util::FailedPreconditionError(
      "snapshot fingerprint mismatch: statistics describe graph " +
      DescribeFingerprint(snap_current) + " (base " +
      DescribeFingerprint(snap_base) + ", epoch " +
      std::to_string(snap_epoch) + "), context graph is " +
      DescribeFingerprint(ctx_graph) + " (base " +
      DescribeFingerprint(ctx_base) + ", epoch " +
      std::to_string(ctx_epoch) + ") — " +
      (has_delta_log
           ? "replay the snapshot's embedded delta log onto its base "
             "graph (ReadSnapshotDeltaLog + ApplyDeltas), or rebuild"
           : "rebuild the snapshot for this graph state"));
}

/// The kDeltaLog payload.
std::string EncodeDeltaLogPayload(
    const std::vector<dynamic::EdgeDelta>& replay_log) {
  Writer log;
  log.WriteU64(replay_log.size());
  for (const dynamic::EdgeDelta& d : replay_log) {
    log.WriteU8(static_cast<uint8_t>(d.op));
    log.WriteU32(d.edge.src);
    log.WriteU32(d.edge.dst);
    log.WriteU32(d.edge.label);
  }
  return log.TakeBuffer();
}

util::StatusOr<std::vector<dynamic::EdgeDelta>> ParseDeltaLogPayload(
    std::string_view payload) {
  Reader sub(payload);
  auto count = sub.ReadU64();
  if (!count.ok()) return count.status();
  // Each op is 13 bytes; bound before allocating.
  if (*count > sub.remaining() / 13) {
    return util::InvalidArgumentError("implausible delta-log length");
  }
  std::vector<dynamic::EdgeDelta> log;
  log.reserve(static_cast<size_t>(*count));
  for (uint64_t i = 0; i < *count; ++i) {
    auto op = sub.ReadU8();
    if (!op.ok()) return op.status();
    if (*op > 1) {
      return util::InvalidArgumentError("unknown delta op in snapshot");
    }
    auto src = sub.ReadU32();
    if (!src.ok()) return src.status();
    auto dst = sub.ReadU32();
    if (!dst.ok()) return dst.status();
    auto label = sub.ReadU32();
    if (!label.ok()) return label.status();
    log.push_back({{*src, *dst, *label}, static_cast<dynamic::DeltaOp>(*op)});
  }
  return log;
}

constexpr uint32_t SectionId(SnapshotSection s) {
  return static_cast<uint32_t>(s);
}

/// The header carried by every snapshot file (kArenaMeta payload).
struct ArenaMeta {
  uint32_t snapshot_version = 0;
  graph::GraphFingerprint fingerprint;  ///< base graph
  SnapshotOptions options;
  uint64_t delta_hash = 0;
  uint64_t epoch = 0;
  graph::GraphFingerprint current_fingerprint;
};

std::string EncodeArenaMeta(const graph::GraphFingerprint& base_fp,
                            const SnapshotOptions& options,
                            uint64_t delta_hash, uint64_t epoch,
                            const graph::GraphFingerprint& current_fp) {
  Writer w;
  w.WriteU32(kSnapshotVersionArena);
  WriteFingerprint(w, base_fp);
  WriteOptions(w, options);
  w.WriteU64(delta_hash);
  w.WriteU64(epoch);
  WriteFingerprint(w, current_fp);
  return w.TakeBuffer();
}

/// Finds and parses the meta section of `arena`.
util::StatusOr<ArenaMeta> ReadArenaMeta(const util::MappedArena& arena) {
  const util::MappedArena::Section* section =
      arena.FindSection(SectionId(SnapshotSection::kArenaMeta));
  if (section == nullptr) {
    return util::InvalidArgumentError(
        "arena snapshot has no arena-meta section");
  }
  Reader reader(arena.SectionBytes(*section));
  ArenaMeta meta;
  auto version = reader.ReadU32();
  if (!version.ok()) return version.status();
  if (*version != kSnapshotVersionArena) {
    return util::InvalidArgumentError(
        "unsupported arena snapshot version " + std::to_string(*version) +
        " (this build reads version " +
        std::to_string(kSnapshotVersionArena) + ")");
  }
  meta.snapshot_version = *version;
  auto fp = ReadFingerprint(reader);
  if (!fp.ok()) return fp.status();
  meta.fingerprint = *fp;
  auto options = ReadOptions(reader);
  if (!options.ok()) return options.status();
  meta.options = *options;
  auto delta_hash = reader.ReadU64();
  if (!delta_hash.ok()) return delta_hash.status();
  meta.delta_hash = *delta_hash;
  auto epoch = reader.ReadU64();
  if (!epoch.ok()) return epoch.status();
  meta.epoch = *epoch;
  auto current = ReadFingerprint(reader);
  if (!current.ok()) return current.status();
  meta.current_fingerprint = *current;
  if (!reader.AtEnd()) {
    return util::InvalidArgumentError(
        "arena-meta section has trailing bytes");
  }
  return meta;
}

/// Maps one file a manifest names and checks it against its entry before
/// any section is read: a nested manifest (resolution stays one level
/// deep), a missing file (NotFound) and a size/content-hash mismatch (a
/// corrupt or swapped-out file) are clean errors. The hash runs over the
/// mapped view, so the bytes verified are exactly the bytes loaded.
util::StatusOr<std::shared_ptr<const util::MappedArena>> MapManifestEntry(
    const std::string& manifest_path, const ShardFileInfo& entry) {
  const std::string path = ResolveManifestFile(manifest_path, entry.file);
  if (IsShardManifest(path)) {
    return util::InvalidArgumentError(
        "manifest entry " + entry.file +
        " is itself a shard manifest (manifests cannot nest)");
  }
  auto arena = util::MappedArena::MapFile(path);
  if (!arena.ok()) {
    if (arena.status().code() == util::StatusCode::kNotFound) {
      return util::NotFoundError("manifest names missing shard file " +
                                 entry.file + ": " +
                                 arena.status().message());
    }
    return util::InvalidArgumentError("manifest shard file " + entry.file +
                                      ": " + arena.status().message());
  }
  const std::string_view view = (*arena)->bytes();
  if (view.size() != entry.bytes || util::StableHash64(view) != entry.hash) {
    return util::InvalidArgumentError(
        "shard file " + entry.file +
        " does not match its manifest entry (corrupted or replaced; "
        "expected " + std::to_string(entry.bytes) + " bytes, got " +
        std::to_string(view.size()) + ")");
  }
  return arena;
}

}  // namespace

const char* SnapshotSectionName(uint32_t id) {
  switch (static_cast<SnapshotSection>(id)) {
    case SnapshotSection::kMarkov:
      return "markov";
    case SnapshotSection::kClosingRates:
      return "closing-rates";
    case SnapshotSection::kDegreeCatalog:
      return "degree-catalog";
    case SnapshotSection::kCharSets:
      return "char-sets";
    case SnapshotSection::kSummaryGraph:
      return "summary-graph";
    case SnapshotSection::kDispersion:
      return "dispersion";
    case SnapshotSection::kDeltaLog:
      return "delta-log";
    case SnapshotSection::kArenaMeta:
      return "arena-meta";
    case SnapshotSection::kDegreeJoins:
      return "degree-joins";
    case SnapshotSection::kFeedback:
      return "feedback";
  }
  return "unknown";
}

// Header from the meta section, entry counts from each index/section
// header, offsets from the arena's own section table.
util::StatusOr<SnapshotInfo> ReadSnapshotInfo(const std::string& path) {
  auto mapped = util::MappedArena::MapFile(path);
  if (!mapped.ok()) return mapped.status();
  const util::MappedArena& arena = **mapped;
  auto meta = ReadArenaMeta(arena);
  if (!meta.ok()) return meta.status();
  SnapshotInfo info;
  info.version = meta->snapshot_version;
  info.fingerprint = meta->fingerprint;
  info.options = meta->options;
  info.file_bytes = arena.size();
  info.delta_hash = meta->delta_hash;
  info.epoch = meta->epoch;
  info.current_fingerprint = meta->current_fingerprint;
  for (const util::MappedArena::Section& s : arena.sections()) {
    SnapshotSectionInfo section;
    section.id = s.id;
    section.name = SnapshotSectionName(s.id);
    section.payload_bytes = s.bytes;
    section.offset = s.offset;
    const std::string_view payload = arena.SectionBytes(s);
    switch (static_cast<SnapshotSection>(s.id)) {
      case SnapshotSection::kMarkov: {
        if (payload.size() < 8) {
          return util::InvalidArgumentError(
              "markov arena section truncated");
        }
        section.markov_h = util::LoadLittleU32(payload.data());
        auto index = util::MappedIndex::Attach(payload.substr(8));
        if (!index.ok()) return index.status();
        section.entries = index->num_entries();
        break;
      }
      case SnapshotSection::kClosingRates:
      case SnapshotSection::kDegreeCatalog:
      case SnapshotSection::kDegreeJoins:
      case SnapshotSection::kDispersion: {
        auto index = util::MappedIndex::Attach(payload);
        if (!index.ok()) return index.status();
        section.entries = index->num_entries();
        break;
      }
      case SnapshotSection::kCharSets: {
        if (payload.size() < 16) {
          return util::InvalidArgumentError(
              "char-sets arena section truncated");
        }
        section.entries = util::LoadLittleU64(payload.data() + 8);
        break;
      }
      case SnapshotSection::kSummaryGraph: {
        Reader sub(payload);
        auto shape = sub.ReadU32();
        if (!shape.ok()) return shape.status();
        auto entries = sub.ReadU64();
        if (!entries.ok()) return entries.status();
        section.entries = *entries;
        break;
      }
      case SnapshotSection::kDeltaLog: {
        if (payload.size() < 8) {
          return util::InvalidArgumentError(
              "delta-log arena section truncated");
        }
        section.entries = util::LoadLittleU64(payload.data());
        break;
      }
      case SnapshotSection::kArenaMeta:
        section.entries = meta->epoch;
        break;
      case SnapshotSection::kFeedback:
        section.entries = learn::FeedbackStore::CountSerializedClasses(payload);
        break;
      default:
        break;  // unknown section: size only
    }
    info.sections.push_back(std::move(section));
  }
  return info;
}

bool IsShardManifest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  char magic[8];
  in.read(magic, 8);
  return in.gcount() == 8 &&
         std::memcmp(magic, kShardManifestMagic, 8) == 0;
}

util::StatusOr<ShardManifest> ReadShardManifest(const std::string& path) {
  auto bytes = ReadFileBytes(path);
  if (!bytes.ok()) return bytes.status();
  Reader reader(*bytes);
  auto magic = reader.ReadRaw(8);
  if (!magic.ok()) return magic.status();
  if (std::memcmp(magic->data(), kShardManifestMagic, 8) != 0) {
    return util::InvalidArgumentError("not a cegraph shard manifest");
  }
  ShardManifest manifest;
  auto version = reader.ReadU32();
  if (!version.ok()) return version.status();
  if (*version != kShardManifestVersion) {
    return util::InvalidArgumentError(
        "unsupported shard-manifest version " + std::to_string(*version));
  }
  manifest.version = *version;
  auto fp = ReadFingerprint(reader);
  if (!fp.ok()) return fp.status();
  manifest.fingerprint = *fp;
  auto options = ReadOptions(reader);
  if (!options.ok()) return options.status();
  manifest.options = *options;
  auto snapshot_version = reader.ReadU32();
  if (!snapshot_version.ok()) return snapshot_version.status();
  if (*snapshot_version != kSnapshotVersionArena) {
    return util::InvalidArgumentError(
        "manifest names unsupported snapshot version " +
        std::to_string(*snapshot_version) + " (this build reads version " +
        std::to_string(kSnapshotVersionArena) +
        "; rebuild with cegraph_stats build)");
  }
  manifest.snapshot_version = *snapshot_version;
  auto num_shards = reader.ReadU32();
  if (!num_shards.ok()) return num_shards.status();
  if (*num_shards < 1 || *num_shards > kMaxSnapshotShards) {
    return util::InvalidArgumentError(
        "implausible manifest shard count " + std::to_string(*num_shards));
  }
  manifest.num_shards = *num_shards;
  auto common_file = reader.ReadString();
  if (!common_file.ok()) return common_file.status();
  manifest.common.file = std::move(*common_file);
  auto common_bytes = reader.ReadU64();
  if (!common_bytes.ok()) return common_bytes.status();
  manifest.common.bytes = *common_bytes;
  auto common_hash = reader.ReadU64();
  if (!common_hash.ok()) return common_hash.status();
  manifest.common.hash = *common_hash;
  auto entry_count = reader.ReadU32();
  if (!entry_count.ok()) return entry_count.status();

  // The shard table must be a partition: every id 0..num_shards-1 exactly
  // once. A duplicate is an *overlap* (two files both claiming a key
  // range); a gap is a missing shard; either silently skews estimates if
  // accepted, so both are hard errors.
  std::vector<bool> seen(manifest.num_shards, false);
  for (uint32_t i = 0; i < *entry_count; ++i) {
    ShardFileInfo entry;
    auto shard = reader.ReadU32();
    if (!shard.ok()) return shard.status();
    entry.shard = *shard;
    auto file = reader.ReadString();
    if (!file.ok()) return file.status();
    entry.file = std::move(*file);
    auto file_bytes = reader.ReadU64();
    if (!file_bytes.ok()) return file_bytes.status();
    entry.bytes = *file_bytes;
    auto hash = reader.ReadU64();
    if (!hash.ok()) return hash.status();
    entry.hash = *hash;
    if (entry.shard >= manifest.num_shards) {
      return util::InvalidArgumentError(
          "manifest shard id " + std::to_string(entry.shard) +
          " out of range (manifest declares " +
          std::to_string(manifest.num_shards) + " shards)");
    }
    if (seen[entry.shard]) {
      return util::InvalidArgumentError(
          "manifest lists shard " + std::to_string(entry.shard) +
          " more than once (overlapping key ranges)");
    }
    seen[entry.shard] = true;
    manifest.shards.push_back(std::move(entry));
  }
  if (!reader.AtEnd()) {
    return util::InvalidArgumentError("trailing bytes after manifest");
  }
  for (uint32_t k = 0; k < manifest.num_shards; ++k) {
    if (!seen[k]) {
      return util::InvalidArgumentError(
          "manifest is missing shard " + std::to_string(k) + " of " +
          std::to_string(manifest.num_shards));
    }
  }
  std::sort(manifest.shards.begin(), manifest.shards.end(),
            [](const ShardFileInfo& a, const ShardFileInfo& b) {
              return a.shard < b.shard;
            });
  return manifest;
}

util::StatusOr<std::vector<dynamic::EdgeDelta>> ReadSnapshotDeltaLog(
    const std::string& path) {
  // A manifest's log lives in its common file, which gets the same
  // integrity treatment LoadSnapshotShards gives it (nesting, size and
  // content hash) before a section is read.
  auto arena = [&]()
      -> util::StatusOr<std::shared_ptr<const util::MappedArena>> {
    if (!IsShardManifest(path)) return util::MappedArena::MapFile(path);
    auto manifest = ReadShardManifest(path);
    if (!manifest.ok()) return manifest.status();
    return MapManifestEntry(path, manifest->common);
  }();
  if (!arena.ok()) return arena.status();
  std::vector<dynamic::EdgeDelta> log;
  for (const util::MappedArena::Section* s :
       (*arena)->FindSections(SectionId(SnapshotSection::kDeltaLog))) {
    auto parsed = ParseDeltaLogPayload((*arena)->SectionBytes(*s));
    if (!parsed.ok()) return parsed.status();
    log.insert(log.end(), parsed->begin(), parsed->end());
  }
  return log;
}

std::string EstimationContext::EncodeSnapshotImage(uint32_t shard,
                                                   uint32_t num_shards,
                                                   bool keyed,
                                                   bool summaries) const {
  // Collect stable pointers to everything built so far. Lazy fills only
  // ever *set* these unique_ptrs, and each export takes its own cache
  // lock, so serialization can proceed outside the context mutex
  // (concurrent fills land either before or after the export — both are
  // consistent snapshots). Mutations that *replace* the structures
  // (ApplyDeltas, a stale LoadSnapshot) would free the collected
  // pointees mid-export; they are single-writer operations that must not
  // run concurrently with a save — the serving layer guarantees this by
  // saving only from states the maintainer owns.
  std::vector<std::pair<int, const stats::MarkovTable*>> markovs;
  const stats::CycleClosingRates* rates = nullptr;
  const stats::StatsCatalog* catalog = nullptr;
  const stats::DispersionCatalog* dispersion = nullptr;
  const stats::CharacteristicSets* char_sets = nullptr;
  const stats::SummaryGraph* summary = nullptr;
  std::shared_ptr<const learn::FeedbackStore> feedback;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    MaterializePendingSummaryLocked();  // saved summaries must be concrete
    for (const auto& [h, table] : markov_) markovs.emplace_back(h, table.get());
    rates = rates_.get();
    catalog = catalog_.get();
    dispersion = dispersion_.get();
    char_sets = char_sets_.get();
    summary = summary_.get();
    feedback = feedback_;
  }

  util::ArenaBuilder arena;
  arena.AddSection(SectionId(SnapshotSection::kArenaMeta),
                   EncodeArenaMeta(base_fingerprint_, OptionsOf(options_),
                                   delta_hash_, epoch_, g_->fingerprint()));
  if (keyed) {
    for (const auto& [h, table] : markovs) {
      util::ArenaIndexBuilder index;
      table->ExportArenaEntries(index, shard, num_shards);
      Writer payload;
      payload.WriteU32(static_cast<uint32_t>(h));
      payload.WriteU32(0);  // pad: the index payload starts 8-aligned
      payload.WriteRaw(index.Finish());
      arena.AddSection(SectionId(SnapshotSection::kMarkov),
                       payload.TakeBuffer());
    }
    if (rates != nullptr) {
      util::ArenaIndexBuilder index;
      rates->ExportArenaEntries(index, shard, num_shards);
      arena.AddSection(SectionId(SnapshotSection::kClosingRates),
                       index.Finish());
    }
    if (catalog != nullptr) {
      util::ArenaIndexBuilder bases;
      catalog->ExportArenaBases(bases, shard, num_shards);
      arena.AddSection(SectionId(SnapshotSection::kDegreeCatalog),
                       bases.Finish());
      util::ArenaIndexBuilder joins;
      catalog->ExportArenaJoins(joins, shard, num_shards);
      arena.AddSection(SectionId(SnapshotSection::kDegreeJoins),
                       joins.Finish());
    }
    if (dispersion != nullptr) {
      util::ArenaIndexBuilder index;
      dispersion->ExportArenaEntries(index, shard, num_shards);
      arena.AddSection(SectionId(SnapshotSection::kDispersion),
                       index.Finish());
    }
  }
  if (summaries) {
    if (char_sets != nullptr) {
      arena.AddSection(SectionId(SnapshotSection::kCharSets),
                       char_sets->SaveArena());
    }
    if (summary != nullptr) {
      Writer payload;
      summary->Save(payload);
      arena.AddSection(SectionId(SnapshotSection::kSummaryGraph),
                       payload.TakeBuffer());
    }
    // The learned-feedback store is whole-store state (not key-separable),
    // so it travels with the summaries. Empty stores write nothing — a
    // snapshot saved before any truth arrived is byte-identical to a
    // pre-feedback snapshot.
    if (feedback != nullptr && feedback->class_count() > 0) {
      arena.AddSection(SectionId(SnapshotSection::kFeedback),
                       feedback->Serialize());
    }
    // The embedded log makes a post-delta artifact self-contained, but
    // only while nothing has been trimmed: a partial log could not
    // reconstruct the state from the base graph, so it is omitted.
    if (epoch_ > 0 && log_trimmed_ == 0) {
      arena.AddSection(SectionId(SnapshotSection::kDeltaLog),
                       EncodeDeltaLogPayload(replay_log_));
    }
  }
  return arena.Finish();
}

util::Status EstimationContext::SaveSnapshot(const std::string& path,
                                             SnapshotFormat) const {
  return WriteFileBytes(path, EncodeSnapshotImage(0, 0, /*keyed=*/true,
                                                  /*summaries=*/true));
}

util::Status EstimationContext::SaveSnapshotShards(
    const std::string& manifest_path, uint32_t num_shards) const {
  if (num_shards < 1 || num_shards > kMaxSnapshotShards) {
    return util::InvalidArgumentError(
        "shard count must be in 1.." + std::to_string(kMaxSnapshotShards) +
        ", got " + std::to_string(num_shards));
  }
  const std::string base_name =
      std::filesystem::path(manifest_path).filename().string();
  auto write = [&](ShardFileInfo& info, const std::string& bytes) {
    info.bytes = bytes.size();
    info.hash = util::StableHash64(bytes);
    return WriteFileBytes(ResolveManifestFile(manifest_path, info.file),
                          bytes);
  };

  // Every file carries the meta section, so each can be judged fresh or
  // stale on its own. The common file holds the whole-graph summaries and
  // the delta log.
  ShardFileInfo common;
  common.file = base_name + ".common";
  CEGRAPH_RETURN_IF_ERROR(write(
      common, EncodeSnapshotImage(0, 0, /*keyed=*/false, /*summaries=*/true)));

  // Shard k of S: the keyed sections filtered by key-hash range. Each
  // pass re-walks every cache and keeps the one-in-S entries — O(S x
  // entries) hashing overall, accepted for this offline tool path (the
  // caches hold thousands of entries and FNV over short keys is
  // nanoseconds).
  std::vector<ShardFileInfo> shards(num_shards);
  for (uint32_t k = 0; k < num_shards; ++k) {
    shards[k].shard = k;
    shards[k].file = base_name + ".shard" + std::to_string(k);
    CEGRAPH_RETURN_IF_ERROR(
        write(shards[k], EncodeSnapshotImage(k, num_shards, /*keyed=*/true,
                                             /*summaries=*/false)));
  }

  Writer writer;
  writer.WriteRaw(std::string_view(kShardManifestMagic, 8));
  writer.WriteU32(kShardManifestVersion);
  WriteFingerprint(writer, base_fingerprint_);
  WriteOptions(writer, OptionsOf(options_));
  writer.WriteU32(kSnapshotVersionArena);
  writer.WriteU32(num_shards);
  writer.WriteString(common.file);
  writer.WriteU64(common.bytes);
  writer.WriteU64(common.hash);
  writer.WriteU32(static_cast<uint32_t>(shards.size()));
  for (const ShardFileInfo& shard : shards) {
    writer.WriteU32(shard.shard);
    writer.WriteString(shard.file);
    writer.WriteU64(shard.bytes);
    writer.WriteU64(shard.hash);
  }
  return WriteFileBytes(manifest_path, writer.buffer());
}

util::Status EstimationContext::LoadSnapshot(const std::string& path,
                                             SnapshotLoadReport* report)
    const {
  // A shard manifest is accepted anywhere a monolithic snapshot is: it
  // loads the union of all shards (fleet processes that want a subset call
  // LoadSnapshotShards with an explicit shard list).
  if (IsShardManifest(path)) return LoadSnapshotShards(path, {}, report);
  const auto t_map = std::chrono::steady_clock::now();
  auto arena = util::MappedArena::MapFile(path);
  if (!arena.ok()) return arena.status();
  const double map_millis = MillisSince(t_map);
  const auto t_apply = std::chrono::steady_clock::now();
  CEGRAPH_RETURN_IF_ERROR(LoadSnapshotArena(*arena, report));
  if (report != nullptr) {
    report->map_millis = map_millis;
    report->materialize_millis = MillisSince(t_apply);
  }
  return util::Status::OK();
}

util::Status EstimationContext::LoadSnapshotArena(
    const std::shared_ptr<const util::MappedArena>& arena,
    SnapshotLoadReport* report, bool validate_only, bool scrub_stale) const {
  auto meta = ReadArenaMeta(*arena);
  if (!meta.ok()) return meta.status();
  CEGRAPH_RETURN_IF_ERROR(CheckSnapshotOptions(meta->options, options_));

  // Freshness is judged by content first: statistics are a pure function
  // of (graph, options), so a snapshot whose described graph matches this
  // context's *current* graph merges fully, whatever lineage produced
  // either. Failing that, a snapshot taken at an earlier epoch of this
  // context's own delta log is stale-but-usable: keyed sections merge and
  // the missing deltas replay as targeted eviction + exact refresh.
  // Anything else is a mismatch that needs a rebuild — or, when the file
  // embeds its delta log, a reconstruction (replay the log onto the base
  // graph via ReadSnapshotDeltaLog + ApplyDeltas, then load fresh).
  // The snapshot's epoch must still be in the (possibly trimmed) history
  // window: MarkAt returns null both for epochs newer than this context
  // and for epochs whose replay suffix TrimReplayLog has discarded.
  const bool has_delta_log =
      arena->FindSection(SectionId(SnapshotSection::kDeltaLog)) != nullptr;
  const bool fresh = meta->current_fingerprint == g_->fingerprint();
  const EpochMark* mark = MarkAt(meta->epoch);
  if (!fresh && (!(meta->fingerprint == base_fingerprint_) ||
                 mark == nullptr || mark->delta_hash != meta->delta_hash)) {
    return FingerprintMismatchError(
        meta->current_fingerprint, meta->fingerprint, meta->epoch,
        g_->fingerprint(), base_fingerprint_, epoch_, has_delta_log);
  }
  const bool stale = !fresh;
  if (report != nullptr) {
    report->stale = stale;
    report->snapshot_epoch = meta->epoch;
    report->replayed_deltas =
        stale ? replay_log_.size() - (mark->log_size - log_trimmed_) : 0;
    report->evicted_entries = 0;
    report->mapped = false;
    report->mapped_bytes = 0;  // set once indexes are attached
  }

  // Stage everything into temporaries first: index headers attach (cheap
  // validation), the summaries parse/validate fully. Nothing below touches
  // the live caches until every section has passed, so a corrupt arena is
  // a clean error that leaves the context exactly as it was.
  struct AttachedSections {
    std::vector<std::pair<uint32_t, util::MappedIndex>> markov;
    std::optional<util::MappedIndex> rates;
    std::optional<util::MappedIndex> bases;
    std::optional<util::MappedIndex> joins;
    std::optional<util::MappedIndex> dispersion;
    std::optional<stats::CharacteristicSets> char_sets;
    std::string_view summary_payload;
    std::string_view feedback_payload;
  };
  AttachedSections att;
  for (const util::MappedArena::Section& s : arena->sections()) {
    const std::string_view payload = arena->SectionBytes(s);
    switch (static_cast<SnapshotSection>(s.id)) {
      case SnapshotSection::kMarkov: {
        if (payload.size() < 8) {
          return util::InvalidArgumentError(
              "markov arena section truncated");
        }
        const uint32_t h = util::LoadLittleU32(payload.data());
        if (h < 1 || h > 16) {
          return util::InvalidArgumentError(
              "implausible Markov table size " + std::to_string(h));
        }
        auto index = util::MappedIndex::Attach(payload.substr(8));
        if (!index.ok()) return index.status();
        att.markov.emplace_back(h, *index);
        break;
      }
      case SnapshotSection::kClosingRates: {
        auto index = util::MappedIndex::Attach(payload);
        if (!index.ok()) return index.status();
        att.rates = *index;
        break;
      }
      case SnapshotSection::kDegreeCatalog: {
        auto index = util::MappedIndex::Attach(payload);
        if (!index.ok()) return index.status();
        att.bases = *index;
        break;
      }
      case SnapshotSection::kDegreeJoins: {
        auto index = util::MappedIndex::Attach(payload);
        if (!index.ok()) return index.status();
        att.joins = *index;
        break;
      }
      case SnapshotSection::kDispersion: {
        auto index = util::MappedIndex::Attach(payload);
        if (!index.ok()) return index.status();
        att.dispersion = *index;
        break;
      }
      case SnapshotSection::kCharSets: {
        // Stale loads skip the whole-graph summaries: they describe the
        // snapshot's epoch wholesale, have no per-key invalidation, and
        // rebuild lazily from the current graph instead.
        if (stale) break;
        auto cs = stats::CharacteristicSets::AttachMapped(
            payload, arena, g_->num_labels());
        if (!cs.ok()) return cs.status();
        if (cs->num_graph_vertices() != g_->num_vertices()) {
          return util::InvalidArgumentError(
              "characteristic-set summary built over a different vertex "
              "count");
        }
        // Serving opens leave the per-group scan deferred; the validation
        // pass pays for it here so corruption is reported, not degraded.
        if (validate_only) CEGRAPH_RETURN_IF_ERROR(cs->ValidateNow());
        att.char_sets.emplace(std::move(*cs));
        break;
      }
      case SnapshotSection::kSummaryGraph: {
        if (stale) break;
        // Fresh applies defer the parse to first summary_graph() use, so
        // open time stays O(sections) however large the summary grew.
        // Only the validation pass (cegraph_stats verify, the shard
        // integrity walk) pays for a full decode here.
        if (!validate_only) {
          att.summary_payload = payload;
          break;
        }
        Reader sub(payload);
        auto loaded = stats::SummaryGraph::Load(sub);
        if (!loaded.ok()) return loaded.status();
        if (!sub.AtEnd()) {
          return util::InvalidArgumentError(
              "section summary-graph has trailing bytes (corrupted "
              "snapshot)");
        }
        if (loaded->num_labels() != g_->num_labels()) {
          return util::InvalidArgumentError(
              "summary graph built over a different label count");
        }
        break;
      }
      case SnapshotSection::kFeedback: {
        // Validate up front with a throwaway store (its Deserialize is
        // the stamp-aware drift guard, so a stale-graph payload passes
        // as a clean no-op); the live import happens after the whole
        // walk succeeds, matching the stage-then-apply contract.
        learn::FeedbackStore probe;
        CEGRAPH_RETURN_IF_ERROR(
            probe.Deserialize(payload, feedback_stamp()));
        att.feedback_payload = payload;
        break;
      }
      default:
        break;  // meta (parsed above), delta log, unknown sections
    }
  }

  if (stale) {
    // Stale loads go through the memo caches (the replay scrub only sees
    // memo entries, so indexes at an older epoch must never stay
    // attached). Dry-walk every index into throwaway structures first —
    // Visit validates each record and the decoders each value — so the
    // live walk below cannot fail halfway through a merge.
    struct Staging {
      std::unique_ptr<stats::MarkovTable> markov;
      stats::CycleClosingRates rates;
      stats::StatsCatalog catalog;
      stats::DispersionCatalog dispersion;
      explicit Staging(const graph::Graph& g)
          : rates(g), catalog(g), dispersion(g) {}
    };
    Staging staging(*g_);
    for (const auto& [h, index] : att.markov) {
      staging.markov =
          std::make_unique<stats::MarkovTable>(*g_, static_cast<int>(h));
      CEGRAPH_RETURN_IF_ERROR(staging.markov->MaterializeFromIndex(index));
    }
    if (att.rates.has_value()) {
      CEGRAPH_RETURN_IF_ERROR(staging.rates.MaterializeFromIndex(*att.rates));
    }
    if (att.bases.has_value()) {
      CEGRAPH_RETURN_IF_ERROR(staging.catalog.MaterializeFromBases(*att.bases));
    }
    if (att.joins.has_value()) {
      CEGRAPH_RETURN_IF_ERROR(staging.catalog.MaterializeFromJoins(*att.joins));
    }
    if (att.dispersion.has_value()) {
      CEGRAPH_RETURN_IF_ERROR(
          staging.dispersion.MaterializeFromIndex(*att.dispersion));
    }
  }
  if (validate_only) return util::Status::OK();

  // The feedback store imports on both the fresh and stale branches: its
  // stamp binds to the *base* fingerprint, which a stale-but-replayable
  // snapshot shares with this context by construction.
  if (!att.feedback_payload.empty()) {
    CEGRAPH_RETURN_IF_ERROR(feedback_store_ptr()->Deserialize(
        att.feedback_payload, feedback_stamp()));
  }

  if (fresh) {
    // Attach in place: lookups serve straight off the mapped bytes and
    // copy into the memo caches on first use. The shared arena handle
    // keeps the mapping alive for as long as any structure holds it.
    for (auto& [h, index] : att.markov) {
      auto table = TryMarkov(static_cast<int>(h));
      if (!table.ok()) return table.status();
      (*table)->AttachMappedIndex(std::move(index), arena);
    }
    if (att.rates.has_value()) {
      cycle_closing_rates().AttachMappedIndex(std::move(*att.rates), arena);
    }
    if (att.bases.has_value() || att.joins.has_value()) {
      const stats::StatsCatalog& catalog = stats_catalog();
      if (att.bases.has_value()) {
        catalog.AttachMappedBases(std::move(*att.bases), arena);
      }
      if (att.joins.has_value()) {
        catalog.AttachMappedJoins(std::move(*att.joins), arena);
      }
    }
    if (att.dispersion.has_value()) {
      dispersion_catalog().AttachMappedIndex(std::move(*att.dispersion),
                                             arena);
    }
    if (att.char_sets.has_value()) {
      std::lock_guard<std::mutex> lock(mutex_);
      // Adopt only if not yet built: estimators may already hold a
      // reference to an eagerly built summary, and the mapped one is
      // identical by construction determinism anyway.
      if (char_sets_ == nullptr) {
        char_sets_ = std::make_unique<stats::CharacteristicSets>(
            std::move(*att.char_sets));
      }
    }
    if (!att.summary_payload.empty()) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (summary_ == nullptr) {
        pending_summary_ = att.summary_payload;
        pending_summary_owner_ = arena;
      }
    }
    if (report != nullptr) {
      report->mapped = true;
      report->mapped_bytes = arena->size();
    }
    return util::Status::OK();
  }

  // Stale: materialize every index into the live memo caches (the dry
  // walk above guarantees this cannot fail), then replay the delta-log
  // suffix the snapshot has not seen.
  for (const auto& [h, index] : att.markov) {
    auto table = TryMarkov(static_cast<int>(h));
    if (!table.ok()) return table.status();
    CEGRAPH_RETURN_IF_ERROR((*table)->MaterializeFromIndex(index));
  }
  if (att.rates.has_value()) {
    CEGRAPH_RETURN_IF_ERROR(
        cycle_closing_rates().MaterializeFromIndex(*att.rates));
  }
  if (att.bases.has_value() || att.joins.has_value()) {
    const stats::StatsCatalog& catalog = stats_catalog();
    if (att.bases.has_value()) {
      CEGRAPH_RETURN_IF_ERROR(catalog.MaterializeFromBases(*att.bases));
    }
    if (att.joins.has_value()) {
      CEGRAPH_RETURN_IF_ERROR(catalog.MaterializeFromJoins(*att.joins));
    }
  }
  if (att.dispersion.has_value()) {
    CEGRAPH_RETURN_IF_ERROR(
        dispersion_catalog().MaterializeFromIndex(*att.dispersion));
  }

  if (scrub_stale) {
    // The merged entries were computed at the snapshot's epoch, so every
    // entry whose labels the missing deltas touched is evicted (and the
    // cheap exact entries refreshed from the current graph). Entries the
    // live context had already computed for the current epoch can only be
    // over-evicted by this — they lazily recompute to the same values.
    const std::vector<bool> changed = dynamic::ChangedLabelBitmap(
        g_->num_labels(),
        std::span<const dynamic::EdgeDelta>(replay_log_)
            .subspan(mark->log_size - log_trimmed_));
    size_t evicted = 0;
    std::vector<const stats::MarkovTable*> tables;
    const stats::CycleClosingRates* rates = nullptr;
    const stats::StatsCatalog* catalog = nullptr;
    const stats::DispersionCatalog* dispersion = nullptr;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (const auto& [h, table] : markov_) tables.push_back(table.get());
      rates = rates_.get();
      catalog = catalog_.get();
      dispersion = dispersion_.get();
    }
    for (const stats::MarkovTable* table : tables) {
      evicted += dynamic::StatsMaintainer::ScrubMarkov(*table, changed);
    }
    if (rates != nullptr) {
      evicted += dynamic::StatsMaintainer::ScrubClosingRates(*rates, changed);
    }
    if (catalog != nullptr) {
      evicted += dynamic::StatsMaintainer::ScrubCatalog(*catalog, changed);
    }
    if (dispersion != nullptr) {
      evicted +=
          dynamic::StatsMaintainer::ScrubDispersion(*dispersion, changed);
    }
    if (report != nullptr) report->evicted_entries = evicted;
  }
  return util::Status::OK();
}

util::Status EstimationContext::MaterializeMappedIndexes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [h, table] : markov_) {
    CEGRAPH_RETURN_IF_ERROR(table->MaterializeMapped());
  }
  if (rates_ != nullptr) CEGRAPH_RETURN_IF_ERROR(rates_->MaterializeMapped());
  if (catalog_ != nullptr) {
    CEGRAPH_RETURN_IF_ERROR(catalog_->MaterializeMapped());
  }
  if (dispersion_ != nullptr) {
    CEGRAPH_RETURN_IF_ERROR(dispersion_->MaterializeMapped());
  }
  return util::Status::OK();
}

util::Status EstimationContext::LoadSnapshotShards(
    const std::string& manifest_path, const std::vector<uint32_t>& shards,
    SnapshotLoadReport* report) const {
  auto manifest = ReadShardManifest(manifest_path);
  if (!manifest.ok()) return manifest.status();

  // The requested shard set: explicit ids (validated) or all of them.
  std::vector<uint32_t> selected = shards;
  if (selected.empty()) {
    selected.reserve(manifest->num_shards);
    for (uint32_t k = 0; k < manifest->num_shards; ++k) {
      selected.push_back(k);
    }
  } else {
    std::vector<bool> seen(manifest->num_shards, false);
    for (const uint32_t k : selected) {
      if (k >= manifest->num_shards) {
        return util::InvalidArgumentError(
            "requested shard " + std::to_string(k) +
            " out of range (manifest has " +
            std::to_string(manifest->num_shards) + " shards)");
      }
      if (seen[k]) {
        return util::InvalidArgumentError("requested shard " +
                                          std::to_string(k) + " twice");
      }
      seen[k] = true;
    }
  }

  // Integrity pass before anything merges: every selected file must map
  // and match the manifest's size/content hash, so a corrupt or swapped
  // shard is a clean error and a failed load leaves the context untouched.
  std::vector<const ShardFileInfo*> infos = {&manifest->common};
  for (const uint32_t k : selected) infos.push_back(&manifest->shards[k]);
  std::vector<std::shared_ptr<const util::MappedArena>> images;
  images.reserve(infos.size());
  const auto t_open = std::chrono::steady_clock::now();
  for (const ShardFileInfo* info : infos) {
    auto arena = MapManifestEntry(manifest_path, *info);
    if (!arena.ok()) return arena.status();
    images.push_back(std::move(*arena));
  }

  // Validate every image before applying any: the manifest hash is
  // corruption detection, not authentication, so a malformed-but-
  // hash-consistent shard must fail here — with nothing merged — rather
  // than after earlier files already landed in the live caches.
  // Validation is deterministic, so the apply pass below cannot fail where
  // this pass succeeded, which is what makes the multi-file load atomic.
  for (const auto& image : images) {
    CEGRAPH_RETURN_IF_ERROR(
        LoadSnapshotArena(image, nullptr, /*validate_only=*/true));
  }
  const double map_millis = MillisSince(t_open);

  // Apply: common first (it resolves freshness/staleness for the
  // artifact), then each selected shard. All files of one artifact carry
  // the same epoch stamp, so the stale-entry scrub — which walks every
  // live cache wholesale — runs once, on the last image, instead of once
  // per file.
  SnapshotLoadReport merged;
  const auto t_apply = std::chrono::steady_clock::now();
  for (size_t i = 0; i < images.size(); ++i) {
    SnapshotLoadReport file_report;
    const bool last = i + 1 == images.size();
    CEGRAPH_RETURN_IF_ERROR(LoadSnapshotArena(images[i], &file_report,
                                              /*validate_only=*/false,
                                              /*scrub_stale=*/last));
    if (i == 0) {
      merged = file_report;
    } else {
      merged.stale |= file_report.stale;
      merged.replayed_deltas =
          std::max(merged.replayed_deltas, file_report.replayed_deltas);
      merged.evicted_entries += file_report.evicted_entries;
      merged.mapped |= file_report.mapped;
      merged.mapped_bytes += file_report.mapped_bytes;
    }
  }
  merged.map_millis = map_millis;
  merged.materialize_millis = MillisSince(t_apply);
  if (report != nullptr) *report = merged;
  return util::Status::OK();
}

}  // namespace cegraph::engine
