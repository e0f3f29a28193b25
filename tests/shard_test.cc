// Golden tests for the sharded-snapshot layer: shard -> load-union ->
// estimate must be bit-identical to the monolithic snapshot (and to a
// cold build) for every registry estimator; manifest validation must
// reject missing, overlapping, out-of-range and corrupt shards with clean
// errors (these run under the CI ASan/UBSan job like every other test).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "dynamic/delta_graph.h"
#include "dynamic/delta_io.h"
#include "engine/engine.h"
#include "engine/snapshot.h"
#include "graph/generators.h"
#include "query/workload.h"
#include "util/serde.h"
#include "util/shard.h"

namespace cegraph::engine {
namespace {

/// A scratch directory for one test's manifest + shard files.
class TempDir {
 public:
  explicit TempDir(const std::string& stem)
      : path_(std::filesystem::temp_directory_path() /
              ("cegraph_shard_test_" + stem)) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  std::string File(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

graph::Graph SmallGraph(uint64_t seed = 11) {
  graph::GeneratorConfig config;
  config.num_vertices = 260;
  config.num_edges = 1500;
  config.num_labels = 6;
  config.seed = seed;
  auto g = graph::GenerateGraph(config);
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

std::vector<query::WorkloadQuery> SmallWorkload(const graph::Graph& g) {
  query::WorkloadOptions options;
  options.instances_per_template = 2;
  options.seed = 5;
  auto wl = query::GenerateWorkload(g,
                                    {{"path2", query::PathShape(2)},
                                     {"star2", query::StarShape(2)},
                                     {"tri", query::CycleShape(3)}},
                                    options);
  EXPECT_TRUE(wl.ok());
  return std::move(wl).value();
}

/// Every registry estimator's estimate for every workload query, NaN for
/// failures — the bit-identity instrument shared with snapshot_test.
std::vector<double> AllRegistryEstimates(
    const EstimationEngine& engine,
    const std::vector<query::WorkloadQuery>& workload) {
  std::vector<double> out;
  for (const std::string& name :
       EstimatorRegistry::Default().RegisteredNames()) {
    auto estimator = engine.Estimator(name);
    EXPECT_TRUE(estimator.ok()) << name;
    for (const query::WorkloadQuery& wq : workload) {
      auto estimate = (*estimator)->Estimate(wq.query);
      out.push_back(estimate.ok()
                        ? *estimate
                        : std::numeric_limits<double>::quiet_NaN());
    }
  }
  return out;
}

void ExpectBitIdentical(const std::vector<double>& a,
                        const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::isnan(a[i]) && std::isnan(b[i])) continue;
    EXPECT_EQ(a[i], b[i]) << "at " << i;
  }
}

void FlipByte(const std::string& path, size_t offset_from_end) {
  std::fstream f(path,
                 std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.is_open());
  f.seekg(0, std::ios::end);
  const auto size = static_cast<size_t>(f.tellg());
  ASSERT_GT(size, offset_from_end);
  const auto pos = static_cast<std::streamoff>(size - 1 - offset_from_end);
  f.seekg(pos);
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x5a);
  f.seekp(pos);
  f.write(&c, 1);
}

TEST(ShardTest, HashRangePartitionIsTotalAndDisjoint) {
  // Every hash lands in exactly one shard, and the shard function is the
  // fixed range split of the hash space.
  for (const uint32_t shards : {1u, 2u, 3u, 7u, 64u}) {
    for (uint64_t i = 0; i < 1000; ++i) {
      const uint64_t h = util::StableHash64(i * 2654435761u);
      const uint32_t owner = util::ShardOfHash(h, shards);
      EXPECT_LT(owner, shards);
      int members = 0;
      for (uint32_t s = 0; s < shards; ++s) {
        members += util::InShard(h, s, shards) ? 1 : 0;
      }
      EXPECT_EQ(members, 1);
    }
  }
}

TEST(ShardTest, ShardUnionBitIdenticalToMonolithicForAllEstimators) {
  TempDir dir("union");
  const graph::Graph g = SmallGraph();
  const auto workload = SmallWorkload(g);

  // Cold engine: estimates fill every lazy cache the suite touches.
  EstimationEngine cold(g);
  const std::vector<double> cold_estimates =
      AllRegistryEstimates(cold, workload);

  const std::string mono = dir.File("mono.snap");
  const std::string manifest = dir.File("stats.manifest");
  ASSERT_TRUE(cold.context().SaveSnapshot(mono).ok());
  ASSERT_TRUE(cold.context().SaveSnapshotShards(manifest, 3).ok());

  // The shard files partition the keyed sections exactly: per section id,
  // entry counts across shards sum to the monolithic count.
  auto mono_info = ReadSnapshotInfo(mono);
  ASSERT_TRUE(mono_info.ok());
  auto parsed = ReadShardManifest(manifest);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->num_shards, 3u);
  std::map<uint32_t, uint64_t> shard_entries;
  for (const ShardFileInfo& shard : parsed->shards) {
    auto info = ReadSnapshotInfo(dir.File(shard.file));
    ASSERT_TRUE(info.ok());
    for (const SnapshotSectionInfo& section : info->sections) {
      shard_entries[section.id] += section.entries;
    }
  }
  for (const SnapshotSectionInfo& section : mono_info->sections) {
    const auto id = static_cast<SnapshotSection>(section.id);
    if (id == SnapshotSection::kMarkov ||
        id == SnapshotSection::kClosingRates ||
        id == SnapshotSection::kDispersion) {
      EXPECT_EQ(shard_entries[section.id], section.entries)
          << section.name;
    }
  }

  // Union load == monolithic load == cold, bit-identically, for all 30
  // registry estimators.
  EstimationEngine warm_mono(g);
  ASSERT_TRUE(warm_mono.context().LoadSnapshot(mono).ok());
  EstimationEngine warm_union(g);
  EstimationContext::SnapshotLoadReport report;
  ASSERT_TRUE(warm_union.context().LoadSnapshot(manifest, &report).ok());
  EXPECT_FALSE(report.stale);

  const std::vector<double> mono_estimates =
      AllRegistryEstimates(warm_mono, workload);
  const std::vector<double> union_estimates =
      AllRegistryEstimates(warm_union, workload);
  ExpectBitIdentical(mono_estimates, cold_estimates);
  ExpectBitIdentical(union_estimates, mono_estimates);
}

TEST(ShardTest, PartialShardLoadStaysCorrectAndLoadsFewerEntries) {
  TempDir dir("partial");
  const graph::Graph g = SmallGraph(13);
  const auto workload = SmallWorkload(g);

  EstimationEngine cold(g);
  const std::vector<double> cold_estimates =
      AllRegistryEstimates(cold, workload);
  const std::string manifest = dir.File("stats.manifest");
  ASSERT_TRUE(cold.context().SaveSnapshotShards(manifest, 4).ok());

  // A fleet process loads only shard 2: fewer entries than the union
  // (counted once the mapped indexes are copied into the memo caches),
  // but estimates recompute lazily to the same values.
  EstimationContext partial(g);
  ASSERT_TRUE(partial.LoadSnapshotShards(manifest, {2}, nullptr).ok());
  ASSERT_TRUE(partial.MaterializeMappedIndexes().ok());
  EstimationContext full(g);
  ASSERT_TRUE(full.LoadSnapshotShards(manifest, {}, nullptr).ok());
  ASSERT_TRUE(full.MaterializeMappedIndexes().ok());

  size_t partial_entries = 0, full_entries = 0;
  for (const auto& cs : partial.CollectCacheStats()) {
    partial_entries += cs.entries;
  }
  for (const auto& cs : full.CollectCacheStats()) {
    full_entries += cs.entries;
  }
  EXPECT_LT(partial_entries, full_entries);

  EstimationEngine partial_engine(g);
  ASSERT_TRUE(
      partial_engine.context().LoadSnapshotShards(manifest, {2}, nullptr)
          .ok());
  ExpectBitIdentical(AllRegistryEstimates(partial_engine, workload),
                     cold_estimates);
}

TEST(ShardTest, PostDeltaShardManifestReconstructsViaEmbeddedLog) {
  TempDir dir("dynamic");
  const graph::Graph g = SmallGraph(17);
  const auto workload = SmallWorkload(g);

  // A context that has applied deltas writes version-2 shard files whose
  // common file embeds the replay log.
  EstimationEngine live(g);
  (void)AllRegistryEstimates(live, workload);
  const auto batch = dynamic::RandomEdgeBatch(g, 120, 23);
  EstimationEngine mutated(g);
  ASSERT_TRUE(mutated.ApplyDeltas(batch).ok());
  const std::vector<double> post_delta =
      AllRegistryEstimates(mutated, workload);
  const std::string manifest = dir.File("stats.manifest");
  ASSERT_TRUE(mutated.context().SaveSnapshotShards(manifest, 2).ok());

  // A fresh consumer holding only the base graph: direct load is a
  // fingerprint mismatch, the embedded log (served through the manifest's
  // common file) reconstructs the described graph state, then the load is
  // fresh — and estimates match the original post-delta context.
  EstimationContext fresh(g);
  auto direct = fresh.LoadSnapshot(manifest);
  ASSERT_FALSE(direct.ok());
  EXPECT_EQ(direct.code(), util::StatusCode::kFailedPrecondition);
  auto log = ReadSnapshotDeltaLog(manifest);
  ASSERT_TRUE(log.ok());
  ASSERT_FALSE(log->empty());
  ASSERT_TRUE(fresh.ApplyDeltas(*log).ok());
  EstimationContext::SnapshotLoadReport report;
  ASSERT_TRUE(fresh.LoadSnapshot(manifest, &report).ok());
  EXPECT_FALSE(report.stale);

  EstimationEngine reloaded(g);
  ASSERT_TRUE(reloaded.ApplyDeltas(*log).ok());
  ASSERT_TRUE(reloaded.context().LoadSnapshot(manifest).ok());
  ExpectBitIdentical(AllRegistryEstimates(reloaded, workload), post_delta);
}

TEST(ShardTest, StaleShardedLoadMatchesMonolithicStaleLoad) {
  TempDir dir("stale");
  const graph::Graph g = SmallGraph(29);
  const auto workload = SmallWorkload(g);

  // Artifact taken at epoch 0; both consumers advance to epoch 1 first,
  // so each load is stale-but-replayable (merge + one scrub).
  EstimationEngine builder(g);
  (void)AllRegistryEstimates(builder, workload);
  const std::string mono = dir.File("mono.snap");
  const std::string manifest = dir.File("stats.manifest");
  ASSERT_TRUE(builder.context().SaveSnapshot(mono).ok());
  ASSERT_TRUE(builder.context().SaveSnapshotShards(manifest, 3).ok());

  const auto batch = dynamic::RandomEdgeBatch(g, 80, 31);
  EstimationEngine via_mono(g);
  ASSERT_TRUE(via_mono.ApplyDeltas(batch).ok());
  EstimationContext::SnapshotLoadReport mono_report;
  ASSERT_TRUE(via_mono.context().LoadSnapshot(mono, &mono_report).ok());
  EXPECT_TRUE(mono_report.stale);

  EstimationEngine via_shards(g);
  ASSERT_TRUE(via_shards.ApplyDeltas(batch).ok());
  EstimationContext::SnapshotLoadReport shard_report;
  ASSERT_TRUE(
      via_shards.context().LoadSnapshot(manifest, &shard_report).ok());
  EXPECT_TRUE(shard_report.stale);

  ExpectBitIdentical(AllRegistryEstimates(via_shards, workload),
                     AllRegistryEstimates(via_mono, workload));
}

TEST(ShardTest, MissingShardFileIsCleanNotFound) {
  TempDir dir("missing");
  const graph::Graph g = SmallGraph();
  EstimationEngine cold(g);
  (void)cold.Estimator("max-hop-max");
  const std::string manifest = dir.File("stats.manifest");
  ASSERT_TRUE(cold.context().SaveSnapshotShards(manifest, 2).ok());
  ASSERT_TRUE(
      std::filesystem::remove(dir.File("stats.manifest.shard1")));

  EstimationContext context(g);
  auto loaded = context.LoadSnapshot(manifest);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.code(), util::StatusCode::kNotFound);
  EXPECT_NE(loaded.message().find("missing shard file"), std::string::npos)
      << loaded.message();
  // Loading only the surviving shard works.
  EXPECT_TRUE(context.LoadSnapshotShards(manifest, {0}, nullptr).ok());
}

TEST(ShardTest, CorruptShardFileIsRejectedByContentHash) {
  TempDir dir("corrupt");
  const graph::Graph g = SmallGraph();
  EstimationEngine cold(g);
  (void)cold.Estimator("max-hop-max");
  const std::string manifest = dir.File("stats.manifest");
  ASSERT_TRUE(cold.context().SaveSnapshotShards(manifest, 2).ok());
  FlipByte(dir.File("stats.manifest.shard0"), 4);

  EstimationContext context(g);
  auto loaded = context.LoadSnapshot(manifest);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.message().find("does not match its manifest entry"),
            std::string::npos)
      << loaded.message();
}

/// A hand-crafted manifest at `path`: header fields (fingerprint, options)
/// are zero, the common file is `common` and the shard table lists `ids`
/// (each entry's file named "shard<id>", sizes and hashes zero).
void WriteManifest(const std::string& path, uint32_t snapshot_version,
                   uint32_t num_shards, const std::string& common,
                   const std::vector<uint32_t>& ids) {
  util::serde::Writer w;
  w.WriteRaw(std::string_view(kShardManifestMagic, 8));
  w.WriteU32(kShardManifestVersion);
  for (int i = 0; i < 3; ++i) w.WriteU32(0);  // fingerprint u32 triple
  w.WriteU64(0);                              // num_edges
  w.WriteU64(0);                              // edge_hash
  for (int i = 0; i < 2; ++i) w.WriteU32(0);  // options u32 pair
  w.WriteU64(0);                              // materialize cap
  for (int i = 0; i < 3; ++i) w.WriteU32(0);  // cc sampling
  w.WriteU64(0);                              // cc seed
  w.WriteU32(snapshot_version);
  w.WriteU32(num_shards);
  w.WriteString(common);
  w.WriteU64(0);
  w.WriteU64(0);
  w.WriteU32(static_cast<uint32_t>(ids.size()));
  for (const uint32_t id : ids) {
    w.WriteU32(id);
    w.WriteString("shard" + std::to_string(id));
    w.WriteU64(0);
    w.WriteU64(0);
  }
  std::ofstream out(path, std::ios::binary);
  out.write(w.buffer().data(),
            static_cast<std::streamsize>(w.buffer().size()));
}

/// The message of a failed manifest read; empty if the read succeeded.
std::string ManifestError(const std::string& path) {
  auto manifest = ReadShardManifest(path);
  EXPECT_FALSE(manifest.ok()) << path;
  if (manifest.ok()) return "";
  EXPECT_EQ(manifest.status().code(), util::StatusCode::kInvalidArgument);
  return manifest.status().message();
}

TEST(ShardTest, HandCraftedManifestRejectsOverlapGapAndRange) {
  TempDir dir("craft");
  // The shard-table validation runs before any file is opened, and a
  // well-formed table passes it: each rejection below names its own cause.
  const auto craft = [&](const std::string& name, uint32_t version,
                         uint32_t num_shards,
                         const std::vector<uint32_t>& ids) {
    WriteManifest(dir.File(name), version, num_shards, "common", ids);
    return dir.File(name);
  };
  EXPECT_TRUE(
      ReadShardManifest(craft("ok", kSnapshotVersionArena, 2, {1, 0})).ok());

  EXPECT_NE(ManifestError(craft("overlap", kSnapshotVersionArena, 2, {0, 0}))
                .find("more than once"),
            std::string::npos);
  EXPECT_NE(ManifestError(craft("gap", kSnapshotVersionArena, 2, {0}))
                .find("missing shard 1"),
            std::string::npos);
  EXPECT_NE(ManifestError(craft("range", kSnapshotVersionArena, 2, {0, 5}))
                .find("out of range"),
            std::string::npos);

  // Manifests naming the retired container versions are rejected by name.
  for (const uint32_t retired : {1u, 2u}) {
    const std::string message = ManifestError(
        craft("v" + std::to_string(retired), retired, 2, {0, 1}));
    EXPECT_NE(message.find("unsupported snapshot version " +
                           std::to_string(retired)),
              std::string::npos)
        << message;
  }
}

TEST(ShardTest, SelfReferentialManifestIsRejectedNotRecursedInto) {
  TempDir dir("selfref");
  // A crafted manifest whose common entry names the manifest file itself:
  // delta-log resolution and the shard load must both fail cleanly on the
  // nesting (checked before the file is mapped or hashed), never recurse.
  const std::string path = dir.File("evil");
  WriteManifest(path, kSnapshotVersionArena, 1, "evil", {0});
  ASSERT_TRUE(ReadShardManifest(path).ok());

  auto log = ReadSnapshotDeltaLog(path);
  ASSERT_FALSE(log.ok());
  EXPECT_EQ(log.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(log.status().message().find("cannot nest"), std::string::npos)
      << log.status();

  const graph::Graph g = SmallGraph();
  EstimationContext context(g);
  auto loaded = context.LoadSnapshot(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.message().find("cannot nest"), std::string::npos)
      << loaded;
}

TEST(ShardTest, RequestedShardSetIsValidated) {
  TempDir dir("request");
  const graph::Graph g = SmallGraph();
  EstimationEngine cold(g);
  (void)cold.Estimator("max-hop-max");
  const std::string manifest = dir.File("stats.manifest");
  ASSERT_TRUE(cold.context().SaveSnapshotShards(manifest, 2).ok());

  EstimationContext context(g);
  auto out_of_range = context.LoadSnapshotShards(manifest, {7}, nullptr);
  ASSERT_FALSE(out_of_range.ok());
  EXPECT_EQ(out_of_range.code(), util::StatusCode::kInvalidArgument);

  auto duplicate = context.LoadSnapshotShards(manifest, {1, 1}, nullptr);
  ASSERT_FALSE(duplicate.ok());
  EXPECT_EQ(duplicate.code(), util::StatusCode::kInvalidArgument);

  EXPECT_TRUE(context.LoadSnapshotShards(manifest, {1, 0}, nullptr).ok());
}

TEST(ShardTest, ShardCountBoundsAreEnforcedOnSave) {
  TempDir dir("bounds");
  const graph::Graph g = SmallGraph();
  EstimationContext context(g);
  EXPECT_FALSE(context.SaveSnapshotShards(dir.File("m"), 0).ok());
  EXPECT_FALSE(
      context.SaveSnapshotShards(dir.File("m"), kMaxSnapshotShards + 1)
          .ok());
  EXPECT_TRUE(context.SaveSnapshotShards(dir.File("m"), 1).ok());
}

}  // namespace
}  // namespace cegraph::engine
