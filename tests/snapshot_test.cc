// Tests for the persistent summary-snapshot layer: Prewarm → SaveSnapshot →
// LoadSnapshot round-trips reproduce bit-identical estimates for every
// registry estimator, fingerprint-mismatched, corrupted and retired-format
// files are rejected cleanly, and the markov(h) validation satellite holds.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
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

namespace cegraph::engine {
namespace {

/// A unique temp path per test, removed on destruction.
class TempFile {
 public:
  explicit TempFile(const std::string& stem)
      : path_((std::filesystem::temp_directory_path() /
               ("cegraph_test_" + stem + ".snap"))
                  .string()) {
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
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

/// Every estimate of every registered estimator over `workload`, as raw
/// doubles (NaN marks a failed estimate so comparisons stay positional).
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

TEST(SnapshotTest, RoundTripReproducesBitIdenticalEstimates) {
  const graph::Graph g = SmallGraph();
  const auto workload = SmallWorkload(g);
  TempFile file("roundtrip");

  // Build: prewarm (dispersion included so every section is exercised)
  // and save.
  EstimationEngine cold(g);
  PrewarmOptions prewarm;
  prewarm.num_threads = 2;
  prewarm.dispersion = true;
  const PrewarmReport report = cold.context().Prewarm(workload, prewarm);
  EXPECT_GT(report.markov_patterns, 0u);
  EXPECT_GT(report.base_relations, 0u);
  EXPECT_GT(report.closing_keys, 0u);  // workload has 4-cycles, h = 2
  ASSERT_TRUE(cold.context().SaveSnapshot(file.path()).ok());
  const std::vector<double> cold_estimates = AllEstimates(cold, workload);

  // Load into a fresh context and compare every estimator's estimates.
  EstimationEngine warm(g);
  auto loaded = warm.context().LoadSnapshot(file.path());
  ASSERT_TRUE(loaded.ok()) << loaded;
  ExpectBitIdentical(AllEstimates(warm, workload), cold_estimates);
}

TEST(SnapshotTest, PrewarmCoversEveryOptimisticLookup) {
  const graph::Graph g = SmallGraph();
  const auto workload = SmallWorkload(g);
  EstimationEngine engine(g);
  engine.context().Prewarm(workload);
  const size_t markov_entries = engine.context().markov().num_entries();
  const size_t closing_entries =
      engine.context().cycle_closing_rates().num_cached();
  ASSERT_GT(markov_entries, 0u);

  // Running the optimistic suites must not add a single cache entry:
  // prewarm enumerated everything they can touch.
  for (const char* name : {"max-hop-max", "all-hops-avg", "min-hop-min",
                           "max-hop-max@ocr", "molp", "molp+2j"}) {
    auto estimator = engine.Estimator(name);
    ASSERT_TRUE(estimator.ok()) << name;
    for (const query::WorkloadQuery& wq : workload) {
      (void)(*estimator)->Estimate(wq.query);
    }
  }
  EXPECT_EQ(engine.context().markov().num_entries(), markov_entries);
  EXPECT_EQ(engine.context().cycle_closing_rates().num_cached(),
            closing_entries);
}

TEST(SnapshotTest, InspectReportsSections) {
  const graph::Graph g = SmallGraph();
  const auto workload = SmallWorkload(g);
  TempFile file("inspect");
  EstimationEngine engine(g);
  engine.context().Prewarm(workload);
  ASSERT_TRUE(engine.context().SaveSnapshot(file.path()).ok());

  auto info = ReadSnapshotInfo(file.path());
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->version, kSnapshotVersionArena);
  EXPECT_EQ(info->fingerprint, g.fingerprint());
  EXPECT_EQ(info->current_fingerprint, g.fingerprint());
  EXPECT_EQ(info->epoch, 0u);
  // meta, markov, rates, degree bases + joins, cs, sumrdf
  EXPECT_GE(info->sections.size(), 7u);
  bool saw_markov = false;
  for (const auto& section : info->sections) {
    if (section.name == "markov") {
      saw_markov = true;
      EXPECT_EQ(section.markov_h, 2u);
      EXPECT_GT(section.entries, 0u);
    }
    EXPECT_GT(section.payload_bytes, 0u);
  }
  EXPECT_TRUE(saw_markov);
}

TEST(SnapshotTest, FingerprintMismatchRejected) {
  const graph::Graph g1 = SmallGraph(7);
  const graph::Graph g2 = SmallGraph(8);  // different seed → different edges
  const auto workload = SmallWorkload(g1);
  TempFile file("fingerprint");
  EstimationEngine engine(g1);
  engine.context().Prewarm(workload);
  ASSERT_TRUE(engine.context().SaveSnapshot(file.path()).ok());

  EstimationEngine other(g2);
  auto loaded = other.context().LoadSnapshot(file.path());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.code(), util::StatusCode::kFailedPrecondition);
  // Nothing may have been applied before the rejection.
  EXPECT_EQ(other.context().markov().num_entries(), 0u);
}

TEST(SnapshotTest, OptionsMismatchRejected) {
  const graph::Graph g = SmallGraph();
  const auto workload = SmallWorkload(g);
  TempFile file("options");
  ContextOptions small_cap;
  small_cap.stats_materialize_cap = 1000;
  EstimationEngine engine(g, small_cap);
  engine.context().Prewarm(workload);
  ASSERT_TRUE(engine.context().SaveSnapshot(file.path()).ok());

  // Loading into a context with the default cap must be refused: the
  // snapshot's over-cap verdicts would silently degrade molp+2j.
  EstimationEngine other(g);
  auto loaded = other.context().LoadSnapshot(file.path());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.code(), util::StatusCode::kFailedPrecondition);

  // A context with the matching cap loads fine; a different default
  // markov_h alone does not reject (markov sections carry their own h).
  ContextOptions same_cap_other_h = small_cap;
  same_cap_other_h.markov_h = 3;
  EstimationEngine compatible(g, same_cap_other_h);
  EXPECT_TRUE(compatible.context().LoadSnapshot(file.path()).ok());
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Nothing of a failed load may remain in `context`: no memo entries and
/// no attached indexes.
void ExpectUntouched(const EstimationContext& context) {
  EXPECT_EQ(context.markov().num_entries(), 0u);
  EXPECT_EQ(context.cycle_closing_rates().num_cached(), 0u);
  EXPECT_EQ(context.markov().num_mapped_indexes(), 0u);
  EXPECT_EQ(context.cycle_closing_rates().num_mapped_indexes(), 0u);
  EXPECT_EQ(context.stats_catalog().num_mapped_indexes(), 0u);
}

TEST(SnapshotTest, CorruptedFilesRejected) {
  const graph::Graph g = SmallGraph();
  const auto workload = SmallWorkload(g);
  TempFile file("corrupt");
  EstimationEngine engine(g);
  engine.context().Prewarm(workload);
  ASSERT_TRUE(engine.context().SaveSnapshot(file.path()).ok());
  const std::string bytes = ReadBytes(file.path());

  // Truncation at several depths: header, section table, mid-payload, and
  // the last payload (8 bytes always reach past its alignment padding). A
  // failed load must also leave the context untouched (no partially
  // imported or attached sections), per the stage-then-apply load.
  for (size_t keep : {size_t{4}, size_t{20}, bytes.size() / 2,
                      bytes.size() - 8}) {
    WriteBytes(file.path(), bytes.substr(0, keep));
    EstimationEngine fresh(g);
    auto loaded = fresh.context().LoadSnapshot(file.path());
    EXPECT_FALSE(loaded.ok()) << "kept " << keep << " of " << bytes.size();
    ExpectUntouched(fresh.context());
  }

  // Bad magic.
  {
    std::string bad = bytes;
    bad[0] = 'X';
    WriteBytes(file.path(), bad);
    EstimationEngine fresh(g);
    auto loaded = fresh.context().LoadSnapshot(file.path());
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.code(), util::StatusCode::kInvalidArgument);
  }

  // Unsupported container version (the u32 after magic and endian word).
  {
    std::string bad = bytes;
    bad[12] = 99;
    WriteBytes(file.path(), bad);
    EstimationEngine fresh(g);
    EXPECT_FALSE(fresh.context().LoadSnapshot(file.path()).ok());
  }

  // A stale load materializes every index into the memo caches, so it is
  // the path where a late defect could leave earlier sections merged.
  // Corrupt the first value of the last index section (the two-join
  // catalog: flipping its has_stats byte breaks the value's decode, which
  // only the full walk sees) and load into a drifted context.
  {
    auto arena = util::MappedArena::FromBytes(bytes);
    ASSERT_TRUE(arena.ok()) << arena.status();
    const util::MappedArena::Section* joins = (*arena)->FindSection(
        static_cast<uint32_t>(SnapshotSection::kDegreeJoins));
    ASSERT_NE(joins, nullptr);
    for (const auto id : {SnapshotSection::kMarkov,
                          SnapshotSection::kClosingRates,
                          SnapshotSection::kDegreeCatalog}) {
      const auto* earlier =
          (*arena)->FindSection(static_cast<uint32_t>(id));
      ASSERT_NE(earlier, nullptr);
      ASSERT_LT(earlier->offset, joins->offset);
    }
    ASSERT_EQ((*arena)->FindSection(
                  static_cast<uint32_t>(SnapshotSection::kDispersion)),
              nullptr);
    auto index = util::MappedIndex::Attach((*arena)->SectionBytes(*joins));
    ASSERT_TRUE(index.ok()) << index.status();
    ASSERT_GT(index->num_entries(), 0u);
    size_t value_at = 0;
    ASSERT_TRUE(index
                    ->Visit([&](std::string_view, std::string_view value) {
                      if (value_at == 0) {
                        value_at = static_cast<size_t>(
                            value.data() - (*arena)->bytes().data());
                      }
                    })
                    .ok());
    std::string bad = bytes;
    bad[value_at] ^= 1;
    WriteBytes(file.path(), bad);

    EstimationEngine drifted(g);
    ASSERT_TRUE(drifted
                    .ApplyDeltas({{g.edges()[0], dynamic::DeltaOp::kDelete},
                                  {g.edges()[1], dynamic::DeltaOp::kDelete}})
                    .ok());
    EstimationContext::SnapshotLoadReport report;
    auto loaded = drifted.context().LoadSnapshot(file.path(), &report);
    ASSERT_FALSE(loaded.ok());
    ExpectUntouched(drifted.context());

    // The pristine file takes the stale path in the same context.
    WriteBytes(file.path(), bytes);
    ASSERT_TRUE(drifted.context().LoadSnapshot(file.path(), &report).ok());
    EXPECT_TRUE(report.stale);
    EXPECT_GT(drifted.context().markov().num_entries(), 0u);
  }
}

TEST(SnapshotTest, UnknownSectionsAreSkipped) {
  const graph::Graph g = SmallGraph();
  const auto workload = SmallWorkload(g);
  TempFile file("forward_compat");
  EstimationEngine engine(g);
  engine.context().Prewarm(workload);
  ASSERT_TRUE(engine.context().SaveSnapshot(file.path()).ok());
  const std::vector<double> cold_estimates = AllEstimates(engine, workload);

  // Re-encode the file with a section id from the future appended.
  auto arena = util::MappedArena::FromBytes(ReadBytes(file.path()));
  ASSERT_TRUE(arena.ok()) << arena.status();
  util::ArenaBuilder builder;
  for (const util::MappedArena::Section& s : (*arena)->sections()) {
    builder.AddSection(s.id, std::string((*arena)->SectionBytes(s)));
  }
  builder.AddSection(999, "hello");
  WriteBytes(file.path(), builder.Finish());

  EstimationEngine fresh(g);
  auto loaded = fresh.context().LoadSnapshot(file.path());
  ASSERT_TRUE(loaded.ok()) << loaded;
  // Fresh loads attach the indexes rather than fill the memo, so the
  // estimates are the evidence the known sections still loaded.
  EXPECT_GT(fresh.context().markov().num_mapped_indexes(), 0u);
  ExpectBitIdentical(AllEstimates(fresh, workload), cold_estimates);
}

TEST(SnapshotTest, RetiredContainerIsRejected) {
  // The serde-parsed container (magic "CEGSNAP1", versions 1 and 2) is no
  // longer read: every entry point fails cleanly on it.
  TempFile file("retired");
  util::serde::Writer legacy;
  legacy.WriteRaw("CEGSNAP1");
  legacy.WriteU32(1);
  legacy.WriteRaw(std::string(64, '\0'));  // fingerprint, options, count
  WriteBytes(file.path(), legacy.buffer());

  const graph::Graph g = SmallGraph();
  EstimationEngine engine(g);
  auto loaded = engine.context().LoadSnapshot(file.path());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.code(), util::StatusCode::kInvalidArgument) << loaded;
  EXPECT_NE(loaded.message().find("bad magic"), std::string::npos) << loaded;

  auto info = ReadSnapshotInfo(file.path());
  ASSERT_FALSE(info.ok());
  EXPECT_EQ(info.status().code(), util::StatusCode::kInvalidArgument);

  auto log = ReadSnapshotDeltaLog(file.path());
  ASSERT_FALSE(log.ok());
  EXPECT_EQ(log.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(SnapshotTest, MissingFileIsNotFound) {
  const graph::Graph g = SmallGraph();
  EstimationEngine engine(g);
  auto loaded = engine.context().LoadSnapshot("/nonexistent/stats.snap");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.code(), util::StatusCode::kNotFound);
}

TEST(SnapshotTest, SaveBeforeAnyStatsWritesEmptySnapshot) {
  const graph::Graph g = SmallGraph();
  TempFile file("empty");
  EstimationEngine engine(g);
  ASSERT_TRUE(engine.context().SaveSnapshot(file.path()).ok());
  auto info = ReadSnapshotInfo(file.path());
  ASSERT_TRUE(info.ok());
  ASSERT_EQ(info->sections.size(), 1u);  // just the header
  EXPECT_EQ(info->sections[0].name, "arena-meta");
  // And an empty snapshot loads as a no-op.
  EstimationEngine fresh(g);
  EXPECT_TRUE(fresh.context().LoadSnapshot(file.path()).ok());
}

// --- markov(h) validation satellite -----------------------------------------

TEST(MarkovValidationTest, NegativeHIsInvalidArgument) {
  const graph::Graph g = SmallGraph();
  EstimationContext context(g);
  auto table = context.TryMarkov(-1);
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), util::StatusCode::kInvalidArgument);
  auto table2 = context.TryMarkov(-100);
  EXPECT_FALSE(table2.ok());
}

TEST(MarkovValidationTest, ZeroMeansContextDefault) {
  const graph::Graph g = SmallGraph();
  ContextOptions options;
  options.markov_h = 3;
  EstimationContext context(g, options);
  auto table = context.TryMarkov(0);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->h(), 3);
  EXPECT_EQ(&context.markov(), *table);  // same shared instance
}

TEST(MarkovValidationTest, BadContextDefaultIsInvalidArgument) {
  const graph::Graph g = SmallGraph();
  ContextOptions options;
  options.markov_h = 0;
  EstimationContext context(g, options);
  auto table = context.TryMarkov(0);
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), util::StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace cegraph::engine
