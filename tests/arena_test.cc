// Tests for the mmap-able arena layer behind snapshot format v3.
//
// Robustness: the container and index readers must turn every corruption —
// truncated files, misaligned section offsets, out-of-range bucket
// references, foreign-endian magic — into a clean Status, never UB (the CI
// ASan+UBSan job runs these like every other test), including under
// randomized byte mutation in the wire_fuzz_test style.
//
// Correctness: an arena snapshot served in place must be bit-identical to
// the v2 parse path and to a cold build for every registry estimator —
// monolithic, sharded (including manifests mixing arena and v2 shard
// files), and through the delta machinery (fresh attach + later deltas,
// and stale loads that replay).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "dynamic/delta_graph.h"
#include "engine/engine.h"
#include "engine/snapshot.h"
#include "graph/generators.h"
#include "query/templates.h"
#include "query/workload.h"
#include "util/arena.h"
#include "util/serde.h"
#include "util/shard.h"

namespace cegraph {
namespace {

// ---- Container-level robustness -------------------------------------------

std::string SmallArenaImage() {
  util::ArenaBuilder builder;
  builder.AddSection(1, "hello");           // 5 bytes, padded to 8
  builder.AddSection(2, std::string(16, 'x'));
  builder.AddSection(1, "");                // empty payloads are legal
  return builder.Finish();
}

TEST(ArenaContainerTest, BuilderRoundTripAlignsEverySection) {
  const std::string image = SmallArenaImage();
  auto arena = util::MappedArena::FromBytes(image);
  ASSERT_TRUE(arena.ok()) << arena.status();
  ASSERT_EQ((*arena)->sections().size(), 3u);
  for (const auto& s : (*arena)->sections()) {
    EXPECT_EQ(s.offset % util::kArenaAlign, 0u) << "section " << s.id;
    EXPECT_LE(s.offset + s.bytes, (*arena)->size());
  }
  EXPECT_EQ((*arena)->SectionBytes(*(*arena)->FindSection(1)), "hello");
  EXPECT_EQ((*arena)->FindSections(1).size(), 2u);
  EXPECT_EQ((*arena)->FindSection(3), nullptr);
}

TEST(ArenaContainerTest, TruncatedImagesRejectedAtEveryLength) {
  const std::string image = SmallArenaImage();
  // Every proper prefix must fail cleanly: the header/table validation
  // runs before any payload access, so no prefix can be accepted.
  for (size_t len = 0; len < image.size(); ++len) {
    auto arena = util::MappedArena::FromBytes(image.substr(0, len));
    EXPECT_FALSE(arena.ok()) << "accepted a " << len << "-byte prefix";
  }
}

TEST(ArenaContainerTest, ForeignEndianWordRejected) {
  std::string image = SmallArenaImage();
  // A big-endian writer would store the check word byte-reversed.
  std::swap(image[8], image[11]);
  std::swap(image[9], image[10]);
  auto arena = util::MappedArena::FromBytes(image);
  ASSERT_FALSE(arena.ok());
  EXPECT_NE(arena.status().message().find("endian"), std::string::npos)
      << arena.status();
}

TEST(ArenaContainerTest, BadMagicRejected) {
  std::string image = SmallArenaImage();
  image[0] = 'X';
  EXPECT_FALSE(util::MappedArena::FromBytes(image).ok());
}

TEST(ArenaContainerTest, MisalignedSectionOffsetRejected) {
  std::string image = SmallArenaImage();
  // First table entry: id(4) + reserved(4) + offset(8) + bytes(8) at 24.
  const size_t offset_pos = 24 + 8;
  const uint64_t offset = util::LoadLittleU64(image.data() + offset_pos);
  image[offset_pos] = static_cast<char>((offset + 1) & 0xff);
  EXPECT_FALSE(util::MappedArena::FromBytes(image).ok());
}

TEST(ArenaContainerTest, SectionBeyondFileRejected) {
  std::string image = SmallArenaImage();
  const size_t bytes_pos = 24 + 16;  // first entry's byte count
  image[bytes_pos + 6] = 0x7f;       // ~2^55 bytes
  EXPECT_FALSE(util::MappedArena::FromBytes(image).ok());
}

// ---- Index-level robustness -----------------------------------------------

std::string SmallIndexPayload(size_t entries) {
  util::ArenaIndexBuilder builder;
  for (size_t i = 0; i < entries; ++i) {
    builder.Add("key" + std::to_string(i), "value" + std::to_string(i * 7));
  }
  return builder.Finish();
}

TEST(ArenaIndexTest, RoundTripFindsEveryKeyAndMissesCleanly) {
  const std::string payload = SmallIndexPayload(57);
  auto index = util::MappedIndex::Attach(payload);
  ASSERT_TRUE(index.ok()) << index.status();
  EXPECT_EQ(index->num_entries(), 57u);
  for (size_t i = 0; i < 57; ++i) {
    auto value = index->Find("key" + std::to_string(i));
    ASSERT_TRUE(value.ok()) << value.status();
    EXPECT_EQ(*value, "value" + std::to_string(i * 7));
  }
  auto miss = index->Find("key1000");
  ASSERT_FALSE(miss.ok());
  EXPECT_EQ(miss.status().code(), util::StatusCode::kNotFound);

  size_t visited = 0;
  ASSERT_TRUE(index->Visit([&](std::string_view, std::string_view) {
    ++visited;
  }).ok());
  EXPECT_EQ(visited, 57u);
}

TEST(ArenaIndexTest, OutOfRangeBucketReferencesAreCleanErrors) {
  std::string payload = SmallIndexPayload(9);
  util::serde::Reader header(payload);
  const uint64_t num_slots = [&] {
    (void)header.ReadU64();  // num_entries
    return *header.ReadU64();
  }();
  // Point every occupied slot's entry offset far past the entry blob.
  for (uint64_t s = 0; s < num_slots; ++s) {
    const size_t slot_pos = 24 + s * 16;
    if (util::LoadLittleU64(payload.data() + slot_pos + 8) ==
        util::kEmptySlotOffset) {
      continue;
    }
    for (int b = 0; b < 8; ++b) {
      payload[slot_pos + 8 + b] = static_cast<char>(b == 6 ? 0x7f : 0);
    }
  }
  auto index = util::MappedIndex::Attach(payload);
  ASSERT_TRUE(index.ok()) << index.status();
  auto found = index->Find("key0");
  ASSERT_FALSE(found.ok());
  EXPECT_NE(found.status().code(), util::StatusCode::kNotFound)
      << "corruption must not read as a clean miss";
}

TEST(ArenaIndexTest, RandomMutationsNeverCrashProbesOrWalks) {
  const std::string pristine = SmallIndexPayload(31);
  std::mt19937_64 rng(20260808);
  for (int iter = 0; iter < 2000; ++iter) {
    std::string payload = pristine;
    const size_t flips = 1 + rng() % 8;
    for (size_t f = 0; f < flips; ++f) {
      payload[rng() % payload.size()] ^= static_cast<char>(1 + rng() % 255);
    }
    if ((rng() & 3) == 0) payload.resize(rng() % (payload.size() + 1));
    auto index = util::MappedIndex::Attach(payload);
    if (!index.ok()) continue;  // clean rejection is a pass
    for (int probe = 0; probe < 4; ++probe) {
      (void)index->Find("key" + std::to_string(rng() % 40));
    }
    (void)index->Visit([](std::string_view, std::string_view) {});
  }
}

}  // namespace

// ---- Snapshot-level cross-format verification -----------------------------

namespace engine {
namespace {

class TempDir {
 public:
  explicit TempDir(const std::string& stem)
      : path_(std::filesystem::temp_directory_path() /
              ("cegraph_arena_test_" + stem)) {
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

graph::Graph SmallGraph(uint64_t seed = 7) {
  graph::GeneratorConfig config;
  config.num_vertices = 400;
  config.num_edges = 2400;
  config.num_labels = 6;
  config.seed = seed;
  auto g = graph::GenerateGraph(config);
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

std::vector<query::WorkloadQuery> SmallWorkload(const graph::Graph& g) {
  query::WorkloadOptions options;
  options.instances_per_template = 3;
  options.seed = 99;
  auto wl = query::GenerateWorkload(g,
                                    {{"path2", query::PathShape(2)},
                                     {"star2", query::StarShape(2)},
                                     {"tri", query::CycleShape(3)},
                                     {"cyc4", query::CycleShape(4)}},
                                    options);
  EXPECT_TRUE(wl.ok());
  return std::move(wl).value();
}

std::vector<double> AllEstimates(
    const EstimationEngine& engine,
    const std::vector<query::WorkloadQuery>& workload) {
  std::vector<double> out;
  for (const std::string& name :
       EstimatorRegistry::Default().RegisteredNames()) {
    auto estimator = engine.Estimator(name);
    EXPECT_TRUE(estimator.ok()) << name;
    for (const query::WorkloadQuery& wq : workload) {
      auto est = (*estimator)->Estimate(wq.query);
      out.push_back(est.ok() ? *est
                             : std::numeric_limits<double>::quiet_NaN());
    }
  }
  return out;
}

void ExpectBitIdentical(const std::vector<double>& a,
                        const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::isnan(a[i])) {
      EXPECT_TRUE(std::isnan(b[i])) << "index " << i;
    } else {
      EXPECT_EQ(a[i], b[i]) << "index " << i;  // exact, not approximate
    }
  }
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// A prewarmed engine (dispersion on, so every arena section is populated).
void Prewarm(EstimationEngine& engine,
             const std::vector<query::WorkloadQuery>& workload) {
  PrewarmOptions prewarm;
  prewarm.num_threads = 2;
  prewarm.dispersion = true;
  engine.context().Prewarm(workload, prewarm);
}

TEST(ArenaSnapshotTest, MappedLoadIsBitIdenticalToParsedAndCold) {
  const graph::Graph g = SmallGraph();
  const auto workload = SmallWorkload(g);
  TempDir dir("cross_format");

  EstimationEngine cold(g);
  Prewarm(cold, workload);
  ASSERT_TRUE(cold.context().SaveSnapshot(dir.File("v2.snap")).ok());
  ASSERT_TRUE(cold.context()
                  .SaveSnapshot(dir.File("v3.snap"), SnapshotFormat::kArena)
                  .ok());
  const std::vector<double> cold_estimates = AllEstimates(cold, workload);

  EstimationEngine parsed(g);
  EstimationContext::SnapshotLoadReport parsed_report;
  ASSERT_TRUE(
      parsed.context().LoadSnapshot(dir.File("v2.snap"), &parsed_report).ok());
  EXPECT_FALSE(parsed_report.mapped);

  EstimationEngine mapped(g);
  EstimationContext::SnapshotLoadReport mapped_report;
  auto loaded = mapped.context().LoadSnapshotMapped(dir.File("v3.snap"),
                                                    &mapped_report);
  ASSERT_TRUE(loaded.ok()) << loaded;
  EXPECT_TRUE(mapped_report.mapped);
  EXPECT_FALSE(mapped_report.stale);
  EXPECT_EQ(mapped_report.mapped_bytes,
            std::filesystem::file_size(dir.File("v3.snap")));

  ExpectBitIdentical(AllEstimates(parsed, workload), cold_estimates);
  ExpectBitIdentical(AllEstimates(mapped, workload), cold_estimates);
}

TEST(ArenaSnapshotTest, LoadSnapshotRoutesArenaFilesByMagic) {
  const graph::Graph g = SmallGraph();
  const auto workload = SmallWorkload(g);
  TempDir dir("routing");
  EstimationEngine cold(g);
  Prewarm(cold, workload);
  ASSERT_TRUE(cold.context()
                  .SaveSnapshot(dir.File("v3.snap"), SnapshotFormat::kArena)
                  .ok());
  EXPECT_TRUE(IsArenaSnapshot(dir.File("v3.snap")));

  // The generic entry point must detect and map the arena file; the
  // mapped entry point must in turn fall back to parsing for v2 files.
  EstimationEngine warm(g);
  EstimationContext::SnapshotLoadReport report;
  ASSERT_TRUE(warm.context().LoadSnapshot(dir.File("v3.snap"), &report).ok());
  EXPECT_TRUE(report.mapped);

  ASSERT_TRUE(cold.context().SaveSnapshot(dir.File("v2.snap")).ok());
  EstimationEngine warm2(g);
  ASSERT_TRUE(
      warm2.context().LoadSnapshotMapped(dir.File("v2.snap"), &report).ok());
  EXPECT_FALSE(report.mapped);
}

TEST(ArenaSnapshotTest, ArenaResavesAsV2Identically) {
  const graph::Graph g = SmallGraph();
  const auto workload = SmallWorkload(g);
  TempDir dir("resave");
  EstimationEngine cold(g);
  Prewarm(cold, workload);
  ASSERT_TRUE(cold.context()
                  .SaveSnapshot(dir.File("v3.snap"), SnapshotFormat::kArena)
                  .ok());

  // Mapped context -> v2 save -> parse: estimates survive two format hops.
  EstimationEngine mapped(g);
  ASSERT_TRUE(mapped.context().LoadSnapshot(dir.File("v3.snap")).ok());
  const std::vector<double> mapped_estimates = AllEstimates(mapped, workload);
  ASSERT_TRUE(mapped.context().SaveSnapshot(dir.File("back.snap")).ok());

  EstimationEngine reparsed(g);
  ASSERT_TRUE(reparsed.context().LoadSnapshot(dir.File("back.snap")).ok());
  ExpectBitIdentical(AllEstimates(reparsed, workload), mapped_estimates);
}

TEST(ArenaSnapshotTest, InspectReportsAlignedArenaSections) {
  const graph::Graph g = SmallGraph();
  const auto workload = SmallWorkload(g);
  TempDir dir("inspect");
  EstimationEngine cold(g);
  Prewarm(cold, workload);
  ASSERT_TRUE(cold.context()
                  .SaveSnapshot(dir.File("v3.snap"), SnapshotFormat::kArena)
                  .ok());

  auto info = ReadSnapshotInfo(dir.File("v3.snap"));
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->version, kSnapshotVersionArena);
  ASSERT_FALSE(info->sections.empty());
  bool saw_meta = false, saw_markov = false;
  for (const auto& section : info->sections) {
    EXPECT_EQ(section.offset % util::kArenaAlign, 0u) << section.name;
    EXPECT_LE(section.offset + section.payload_bytes, info->file_bytes);
    saw_meta |= section.id ==
                static_cast<uint32_t>(SnapshotSection::kArenaMeta);
    if (section.id == static_cast<uint32_t>(SnapshotSection::kMarkov)) {
      saw_markov = true;
      EXPECT_GT(section.entries, 0u);
    }
  }
  EXPECT_TRUE(saw_meta);
  EXPECT_TRUE(saw_markov);
}

TEST(ArenaSnapshotTest, TruncatedArenaFilesRejectedCleanly) {
  const graph::Graph g = SmallGraph();
  const auto workload = SmallWorkload(g);
  TempDir dir("truncate");
  EstimationEngine cold(g);
  Prewarm(cold, workload);
  ASSERT_TRUE(cold.context()
                  .SaveSnapshot(dir.File("v3.snap"), SnapshotFormat::kArena)
                  .ok());
  const std::string image = ReadAll(dir.File("v3.snap"));

  // A sweep of truncation points: container header, section table, and
  // mid-payload. All must fail with a clean error and leave the loading
  // context fully usable. (The deepest cut removes 8 bytes: the final
  // payload carries up to 7 bytes of alignment padding, whose loss the
  // container legitimately tolerates.)
  for (const size_t len : {size_t{0}, size_t{7}, size_t{23}, size_t{40},
                           image.size() / 2, image.size() - 8}) {
    WriteAll(dir.File("cut.snap"), image.substr(0, len));
    EstimationEngine victim(g);
    auto loaded = victim.context().LoadSnapshot(dir.File("cut.snap"));
    EXPECT_FALSE(loaded.ok()) << "accepted a " << len << "-byte prefix";
    EXPECT_FALSE(AllEstimates(victim, workload).empty());
  }
}

TEST(ArenaSnapshotTest, RandomMutationsNeverCrashTheLoader) {
  const graph::Graph g = SmallGraph();
  const auto workload = SmallWorkload(g);
  TempDir dir("mutate");
  EstimationEngine cold(g);
  Prewarm(cold, workload);
  ASSERT_TRUE(cold.context()
                  .SaveSnapshot(dir.File("v3.snap"), SnapshotFormat::kArena)
                  .ok());
  const std::string pristine = ReadAll(dir.File("v3.snap"));

  // wire_fuzz_test-style mutation loop: random byte flips (plus occasional
  // truncation) must never produce UB on the load path — either a clean
  // Status or a successful load whose estimates still compute. Value
  // corruption inside a payload may legitimately go undetected; the
  // contract under test is memory safety, not error-detection strength.
  std::mt19937_64 rng(20260808);
  size_t accepted = 0, rejected = 0;
  for (int iter = 0; iter < 150; ++iter) {
    std::string image = pristine;
    const size_t flips = 1 + rng() % 8;
    for (size_t f = 0; f < flips; ++f) {
      image[rng() % image.size()] ^= static_cast<char>(1 + rng() % 255);
    }
    if ((rng() & 7) == 0) image.resize(rng() % (image.size() + 1));
    WriteAll(dir.File("mut.snap"), image);
    EstimationEngine victim(g);
    auto loaded = victim.context().LoadSnapshot(dir.File("mut.snap"));
    if (loaded.ok()) {
      ++accepted;
      for (const query::WorkloadQuery& wq : workload) {
        for (const char* name : {"max-hop-max", "cs"}) {
          auto estimator = victim.Estimator(name);
          ASSERT_TRUE(estimator.ok());
          (void)(*estimator)->Estimate(wq.query);
        }
      }
    } else {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0u);  // most mutations must be caught
  std::printf("[ mutation sweep: %zu accepted, %zu rejected ]\n", accepted,
              rejected);

  // Flips aimed at the char-sets label blob, half of them writing a whole
  // 0xFFFFFFFF label into both the labels blob and the mirrored edge key.
  // The O(1) attach accepts these; the deferred scan must degrade them to
  // an empty summary before any label sizes or indexes the posting index.
  auto arena = util::MappedArena::FromBytes(pristine);
  ASSERT_TRUE(arena.ok());
  const util::MappedArena::Section* cs_section = (*arena)->FindSection(
      static_cast<uint32_t>(SnapshotSection::kCharSets));
  ASSERT_NE(cs_section, nullptr);
  const char* cs_base = pristine.data() + cs_section->offset;
  const uint64_t num_groups = util::LoadLittleU64(cs_base + 8);
  const uint64_t labels_count = util::LoadLittleU64(cs_base + 16);
  ASSERT_GT(labels_count, 0u);
  const size_t labels_at = cs_section->offset + 32 + num_groups * 40;
  const size_t edges_at = labels_at + (labels_count * 4 + 7) / 8 * 8;
  size_t degraded = 0;
  for (int iter = 0; iter < 60; ++iter) {
    std::string image = pristine;
    const size_t pos = rng() % labels_count;
    if (iter % 2 == 0) {
      for (const size_t at : {labels_at + pos * 4, edges_at + pos * 16}) {
        std::memset(&image[at], 0xFF, 4);
      }
    } else {
      image[labels_at + pos * 4 + rng() % 4] ^=
          static_cast<char>(1 + rng() % 255);
    }
    WriteAll(dir.File("mut.snap"), image);
    EstimationEngine victim(g);
    if (!victim.context().LoadSnapshot(dir.File("mut.snap")).ok()) continue;
    const stats::CharacteristicSets& cs =
        victim.context().characteristic_sets();
    if (!cs.ValidateNow().ok()) {
      ++degraded;
      EXPECT_EQ(cs.EstimateStar({}), 0.0);
    }
    auto estimator = victim.Estimator("cs");
    ASSERT_TRUE(estimator.ok());
    for (const query::WorkloadQuery& wq : workload) {
      (void)(*estimator)->Estimate(wq.query);
    }
  }
  EXPECT_GE(degraded, 30u);  // at least every 0xFFFFFFFF write
}

TEST(ArenaSnapshotTest, ArenaShardManifestLoadsBitIdentically) {
  const graph::Graph g = SmallGraph();
  const auto workload = SmallWorkload(g);
  TempDir dir("shards");
  EstimationEngine cold(g);
  Prewarm(cold, workload);
  ASSERT_TRUE(cold.context()
                  .SaveSnapshotShards(dir.File("m_ar"), 3,
                                      SnapshotFormat::kArena)
                  .ok());
  const std::vector<double> cold_estimates = AllEstimates(cold, workload);

  auto manifest = ReadShardManifest(dir.File("m_ar"));
  ASSERT_TRUE(manifest.ok()) << manifest.status();
  EXPECT_EQ(manifest->snapshot_version, kSnapshotVersionArena);
  EXPECT_TRUE(IsArenaSnapshot(dir.File("m_ar.common")));
  EXPECT_TRUE(IsArenaSnapshot(dir.File("m_ar.shard0")));

  EstimationEngine warm(g);
  EstimationContext::SnapshotLoadReport report;
  auto loaded = warm.context().LoadSnapshot(dir.File("m_ar"), &report);
  ASSERT_TRUE(loaded.ok()) << loaded;
  EXPECT_TRUE(report.mapped);
  EXPECT_GT(report.mapped_bytes, 0u);
  ExpectBitIdentical(AllEstimates(warm, workload), cold_estimates);
}

/// Rewrites `manifest_path` in place after `mutate` adjusted its entries —
/// the byte layout is header (magic, version, fingerprint, options)
/// followed by a tail this helper re-encodes from the parsed manifest.
void RewriteManifestTail(const std::string& manifest_path,
                         const ShardManifest& manifest) {
  const std::string raw = ReadAll(manifest_path);
  size_t tail_len = 4 + 4 + (8 + manifest.common.file.size()) + 8 + 8 + 4;
  for (const ShardFileInfo& shard : manifest.shards) {
    tail_len += 4 + (8 + shard.file.size()) + 8 + 8;
  }
  ASSERT_LT(tail_len, raw.size());
  util::serde::Writer tail;
  tail.WriteU32(manifest.snapshot_version);
  tail.WriteU32(manifest.num_shards);
  tail.WriteString(manifest.common.file);
  tail.WriteU64(manifest.common.bytes);
  tail.WriteU64(manifest.common.hash);
  tail.WriteU32(static_cast<uint32_t>(manifest.shards.size()));
  for (const ShardFileInfo& shard : manifest.shards) {
    tail.WriteU32(shard.shard);
    tail.WriteString(shard.file);
    tail.WriteU64(shard.bytes);
    tail.WriteU64(shard.hash);
  }
  ASSERT_EQ(tail.size(), tail_len);
  WriteAll(manifest_path, raw.substr(0, raw.size() - tail_len) +
                              tail.buffer());
}

TEST(ArenaSnapshotTest, ManifestMixingArenaAndV2ShardFilesLoads) {
  const graph::Graph g = SmallGraph();
  const auto workload = SmallWorkload(g);
  TempDir dir("mixed");
  EstimationEngine cold(g);
  Prewarm(cold, workload);
  // The same context sharded both ways: shard k carries the same keys in
  // both formats (shard routing hashes only the keys), so files are
  // interchangeable per slot.
  ASSERT_TRUE(cold.context().SaveSnapshotShards(dir.File("mix"), 2).ok());
  ASSERT_TRUE(cold.context()
                  .SaveSnapshotShards(dir.File("donor"), 2,
                                      SnapshotFormat::kArena)
                  .ok());
  const std::vector<double> cold_estimates = AllEstimates(cold, workload);

  // Splice the arena shard 1 into the v2 manifest: replace the file bytes
  // and patch that entry's size/hash so the manifest stays consistent.
  auto manifest = ReadShardManifest(dir.File("mix"));
  ASSERT_TRUE(manifest.ok()) << manifest.status();
  ASSERT_EQ(manifest->shards.size(), 2u);
  const std::string donor_bytes = ReadAll(dir.File("donor.shard1"));
  WriteAll(dir.File("mix.shard1"), donor_bytes);
  manifest->shards[1].bytes = donor_bytes.size();
  manifest->shards[1].hash = util::StableHash64(donor_bytes);
  RewriteManifestTail(dir.File("mix"), *manifest);

  EXPECT_FALSE(IsArenaSnapshot(dir.File("mix.shard0")));
  EXPECT_TRUE(IsArenaSnapshot(dir.File("mix.shard1")));

  EstimationEngine warm(g);
  EstimationContext::SnapshotLoadReport report;
  auto loaded = warm.context().LoadSnapshot(dir.File("mix"), &report);
  ASSERT_TRUE(loaded.ok()) << loaded;
  EXPECT_TRUE(report.mapped);  // the arena shard attached in place
  EXPECT_EQ(report.mapped_bytes, donor_bytes.size());
  ExpectBitIdentical(AllEstimates(warm, workload), cold_estimates);
}

/// A deterministic mixed delta batch (dynamic_test's idiom).
std::vector<dynamic::EdgeDelta> MixedBatch(const graph::Graph& g,
                                           size_t deletes, size_t inserts,
                                           uint64_t seed = 5) {
  std::vector<dynamic::EdgeDelta> batch;
  const auto& edges = g.edges();
  const size_t stride = std::max<size_t>(1, edges.size() / (deletes + 1));
  for (size_t i = 0; i < deletes && i * stride < edges.size(); ++i) {
    batch.push_back({edges[i * stride], dynamic::DeltaOp::kDelete});
  }
  std::mt19937_64 rng(seed);
  while (inserts > 0) {
    graph::Edge e{static_cast<graph::VertexId>(rng() % g.num_vertices()),
                  static_cast<graph::VertexId>(rng() % g.num_vertices()),
                  static_cast<graph::Label>(rng() % g.num_labels())};
    if (g.HasEdge(e.src, e.dst, e.label)) continue;
    batch.push_back({e, dynamic::DeltaOp::kInsert});
    --inserts;
  }
  return batch;
}

TEST(ArenaSnapshotTest, DeltasAfterMappedLoadMatchColdRebuild) {
  const graph::Graph g = SmallGraph();
  const auto workload = SmallWorkload(g);
  const auto batch = MixedBatch(g, 20, 25);
  TempDir dir("deltas");
  {
    EstimationEngine base(g);
    Prewarm(base, workload);
    ASSERT_TRUE(base.context()
                    .SaveSnapshot(dir.File("v3.snap"), SnapshotFormat::kArena)
                    .ok());
  }

  // Mapped-backed context, then live deltas through the full maintenance
  // path: the epoch swap rebuilds the stats structures, so mapped entries
  // must neither leak into the new epoch nor corrupt the migration.
  EstimationEngine mapped(g);
  EstimationContext::SnapshotLoadReport report;
  ASSERT_TRUE(mapped.context().LoadSnapshot(dir.File("v3.snap"), &report).ok());
  ASSERT_TRUE(report.mapped);
  ASSERT_TRUE(mapped.ApplyDeltas(batch).ok());

  dynamic::DeltaGraph overlay(g);
  ASSERT_TRUE(overlay.Apply(batch).ok());
  auto compacted = overlay.Compact();
  ASSERT_TRUE(compacted.ok());
  EstimationEngine cold(*compacted);
  ExpectBitIdentical(AllEstimates(mapped, workload),
                     AllEstimates(cold, workload));
}

TEST(ArenaSnapshotTest, StaleArenaLoadReplaysToColdEquivalence) {
  const graph::Graph g = SmallGraph();
  const auto workload = SmallWorkload(g);
  const auto batch = MixedBatch(g, 25, 30);
  TempDir dir("stale");
  {
    EstimationEngine base(g);
    Prewarm(base, workload);
    ASSERT_TRUE(base.context()
                    .SaveSnapshot(dir.File("v3.snap"), SnapshotFormat::kArena)
                    .ok());
  }

  // A drifted context loads the epoch-0 arena: stale, so sections are
  // materialized (not attached) and scrubbed against the replay suffix.
  EstimationEngine drifted(g);
  ASSERT_TRUE(drifted.ApplyDeltas(batch).ok());
  EstimationContext::SnapshotLoadReport report;
  auto loaded = drifted.context().LoadSnapshot(dir.File("v3.snap"), &report);
  ASSERT_TRUE(loaded.ok()) << loaded;
  EXPECT_TRUE(report.stale);
  EXPECT_FALSE(report.mapped);  // stale loads go through the memo caches
  EXPECT_EQ(report.snapshot_epoch, 0u);
  EXPECT_GT(report.replayed_deltas, 0u);

  dynamic::DeltaGraph overlay(g);
  ASSERT_TRUE(overlay.Apply(batch).ok());
  auto compacted = overlay.Compact();
  ASSERT_TRUE(compacted.ok());
  EstimationEngine cold(*compacted);
  ExpectBitIdentical(AllEstimates(drifted, workload),
                     AllEstimates(cold, workload));
}

TEST(ArenaSnapshotTest, ArenaEmbedsReplayableDeltaLog) {
  const graph::Graph g = SmallGraph();
  const auto workload = SmallWorkload(g);
  const auto batch = MixedBatch(g, 10, 12);
  TempDir dir("deltalog");

  // A post-delta arena snapshot embeds its log; a base-graph consumer
  // reads it back and reconstructs the described state.
  EstimationEngine producer(g);
  Prewarm(producer, workload);
  ASSERT_TRUE(producer.ApplyDeltas(batch).ok());
  ASSERT_TRUE(producer.context()
                  .SaveSnapshot(dir.File("v3.snap"), SnapshotFormat::kArena)
                  .ok());

  auto log = ReadSnapshotDeltaLog(dir.File("v3.snap"));
  ASSERT_TRUE(log.ok()) << log.status();
  ASSERT_FALSE(log->empty());

  EstimationEngine consumer(g);
  ASSERT_TRUE(consumer.ApplyDeltas(*log).ok());
  EstimationContext::SnapshotLoadReport report;
  auto loaded = consumer.context().LoadSnapshot(dir.File("v3.snap"), &report);
  ASSERT_TRUE(loaded.ok()) << loaded;
  EXPECT_FALSE(report.stale);
  EXPECT_TRUE(report.mapped);
  ExpectBitIdentical(AllEstimates(consumer, workload),
                     AllEstimates(producer, workload));
}

}  // namespace
}  // namespace engine
}  // namespace cegraph
