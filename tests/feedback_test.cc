// Tests for the learned-feedback layer: the confidence gate, exponential
// decay, bounded eviction, the fingerprint drift guard, serde round-trips
// (bit-identical corrections), the merge rule (live classes win), and the
// snapshot section riding the EstimationContext save/load path.
#include "learn/feedback_store.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "engine/snapshot.h"
#include "graph/generators.h"
#include "harness/qerror.h"

namespace cegraph::learn {
namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& stem)
      : path_((std::filesystem::temp_directory_path() /
               ("cegraph_feedback_test_" + stem + ".snap"))
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
  config.num_vertices = 300;
  config.num_edges = 1800;
  config.num_labels = 6;
  config.seed = seed;
  auto g = graph::GenerateGraph(config);
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

TEST(FeedbackStoreTest, ConfidenceGateHoldsCorrectionAtOneUntilMinSamples) {
  FeedbackOptions options;
  options.min_samples = 4;
  FeedbackStore store(options);
  const std::string key = FeedbackStore::ClassKey("molp", "P2|0,1");

  for (int i = 0; i < 3; ++i) {
    auto update = store.Record(key, "path2", 10.0, 1000.0);
    EXPECT_FALSE(update.has_value()) << "below the gate, nothing to report";
    EXPECT_DOUBLE_EQ(store.CorrectionFor(key), 1.0);
  }
  // The 4th sample crosses the gate: the correction activates and the
  // crossing itself is the journal-worthy update.
  auto update = store.Record(key, "path2", 10.0, 1000.0);
  ASSERT_TRUE(update.has_value());
  EXPECT_TRUE(update->activated);
  EXPECT_EQ(update->key, key);
  EXPECT_EQ(update->samples, 4u);
  EXPECT_NEAR(store.CorrectionFor(key), 100.0, 1e-6);
  EXPECT_EQ(store.active_count(), 1u);
}

TEST(FeedbackStoreTest, UnusablePairsAreDroppedAtTheDoor) {
  FeedbackStore store;
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  store.Record("k", "d", 0.0, 100.0);   // zero estimate
  store.Record("k", "d", 10.0, 0.0);    // zero truth
  store.Record("k", "d", -5.0, 100.0);  // negative estimate
  store.Record("k", "d", inf, 100.0);
  store.Record("k", "d", 10.0, nan);
  EXPECT_EQ(store.class_count(), 0u);
  // Sanity: the shared guard agrees with the store's own filtering.
  EXPECT_FALSE(harness::UsableQError(0.0, 100.0));
  EXPECT_FALSE(harness::UsableQError(10.0, 0.0));
  EXPECT_TRUE(harness::UsableQError(10.0, 100.0));
}

TEST(FeedbackStoreTest, DecayWeightsNewerObservationsHigher) {
  FeedbackOptions options;
  options.min_samples = 1;
  options.decay = 0.5;
  options.ring_capacity = 64;
  FeedbackStore store(options);

  // Ten observations of a 2x underestimate, then ten of 100x: with
  // decay 0.5 the newest regime's weight dominates and the correction
  // re-learns to ~100 instead of averaging across regimes.
  for (int i = 0; i < 10; ++i) store.Record("k", "d", 1.0, 2.0);
  EXPECT_NEAR(store.CorrectionFor("k"), 2.0, 1e-9);
  for (int i = 0; i < 10; ++i) store.Record("k", "d", 1.0, 100.0);
  EXPECT_NEAR(store.CorrectionFor("k"), 100.0, 1e-6);

  // Without decay the same stream's weighted median stays with the
  // older, more numerous regime when it holds the majority.
  FeedbackOptions flat = options;
  flat.decay = 1.0;
  FeedbackStore undecayed(flat);
  for (int i = 0; i < 11; ++i) undecayed.Record("k", "d", 1.0, 2.0);
  for (int i = 0; i < 10; ++i) undecayed.Record("k", "d", 1.0, 100.0);
  EXPECT_NEAR(undecayed.CorrectionFor("k"), 2.0, 1e-9);
}

TEST(FeedbackStoreTest, RingKeepsTheNewestObservations) {
  FeedbackOptions options;
  options.min_samples = 1;
  options.ring_capacity = 4;
  options.decay = 1.0;
  FeedbackStore store(options);
  // 8 old 2x ratios scroll out entirely behind 4 new 50x ratios.
  for (int i = 0; i < 8; ++i) store.Record("k", "d", 1.0, 2.0);
  for (int i = 0; i < 4; ++i) store.Record("k", "d", 1.0, 50.0);
  EXPECT_NEAR(store.CorrectionFor("k"), 50.0, 1e-9);
  const auto report = store.Report();
  ASSERT_EQ(report.size(), 1u);
  EXPECT_EQ(report[0].samples, 4u);
  EXPECT_EQ(report[0].hits, 12u);
}

TEST(FeedbackStoreTest, ActiveCorrectionShiftsReportOnlyPastThreshold) {
  FeedbackOptions options;
  options.min_samples = 1;
  options.decay = 1.0;
  FeedbackStore store(options);
  auto first = store.Record("k", "d", 1.0, 10.0);
  ASSERT_TRUE(first.has_value());  // gate crossing at one sample
  EXPECT_TRUE(first->activated);
  // The median barely moves sample to sample: no update spam.
  EXPECT_FALSE(store.Record("k", "d", 1.0, 10.0).has_value());
  EXPECT_FALSE(store.Record("k", "d", 1.0, 10.0).has_value());
  // A regime change: the unweighted median holds at 10x until the new
  // ratios reach a majority, then the correction jumps > 25% — reported
  // exactly once, not activated.
  EXPECT_FALSE(store.Record("k", "d", 1.0, 1000.0).has_value());
  EXPECT_FALSE(store.Record("k", "d", 1.0, 1000.0).has_value());
  EXPECT_FALSE(store.Record("k", "d", 1.0, 1000.0).has_value());
  auto shifted = store.Record("k", "d", 1.0, 1000.0);
  ASSERT_TRUE(shifted.has_value());
  EXPECT_FALSE(shifted->activated);
}

TEST(FeedbackStoreTest, EvictsFewestHitsTiesTowardGreatestKey) {
  FeedbackOptions options;
  options.max_classes = 3;
  options.min_samples = 1;
  FeedbackStore store(options);
  for (int i = 0; i < 5; ++i) store.Record("a", "a", 1.0, 2.0);
  for (int i = 0; i < 2; ++i) store.Record("b", "b", 1.0, 2.0);
  for (int i = 0; i < 3; ++i) store.Record("c", "c", 1.0, 2.0);

  // "d" is the 4th class: "b" (fewest hits) goes.
  store.Record("d", "d", 1.0, 2.0);
  EXPECT_EQ(store.class_count(), 3u);
  EXPECT_EQ(store.evictions(), 1u);
  EXPECT_DOUBLE_EQ(store.CorrectionFor("b"), 1.0);

  // "e" next: "d" (now the fewest at 1 hit) goes — eviction runs before
  // the insert, so a new class can never be its own victim.
  store.Record("e", "e", 1.0, 2.0);
  const auto report = store.Report();
  ASSERT_EQ(report.size(), 3u);
  EXPECT_EQ(report[0].key, "a");
  EXPECT_EQ(report[1].key, "c");
  EXPECT_EQ(report[2].key, "e");
  EXPECT_EQ(store.evictions(), 2u);
}

TEST(FeedbackStoreTest, SerializeIsDeterministicAndRoundTripsBitIdentical) {
  FeedbackOptions options;
  options.min_samples = 2;
  FeedbackStore store(options);
  store.SetStamp(0xfeedu);
  for (int i = 0; i < 6; ++i) {
    store.Record("molp|P2|0,1", "path2", 7.0, 7000.0 + i);
    store.Record("cbs|S2|1,2", "star2", 12345.0, 99.0 + i);
  }
  const std::string payload = store.Serialize();
  EXPECT_EQ(store.Serialize(), payload) << "serialization is deterministic";
  EXPECT_EQ(FeedbackStore::CountSerializedClasses(payload), 2u);

  FeedbackStore loaded(options);
  bool discarded = true;
  ASSERT_TRUE(loaded.Deserialize(payload, 0xfeedu, &discarded).ok());
  EXPECT_FALSE(discarded);
  EXPECT_EQ(loaded.stamp(), 0xfeedu);

  const auto a = store.Report();
  const auto b = loaded.Report();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].display, b[i].display);
    EXPECT_EQ(a[i].hits, b[i].hits);
    EXPECT_EQ(a[i].samples, b[i].samples);
    EXPECT_EQ(a[i].correction, b[i].correction) << "bit-identical, not near";
    EXPECT_EQ(a[i].active, b[i].active);
  }
}

TEST(FeedbackStoreTest, StampMismatchDiscardsThePayloadWholesale) {
  FeedbackStore store;
  store.SetStamp(111);
  for (int i = 0; i < 10; ++i) store.Record("k", "d", 1.0, 50.0);
  const std::string payload = store.Serialize();

  FeedbackStore other;
  other.SetStamp(222);  // the live graph's stamp, as the load paths set it
  bool discarded = false;
  ASSERT_TRUE(other.Deserialize(payload, 222, &discarded).ok());
  EXPECT_TRUE(discarded) << "drift guard: stale-graph corrections dropped";
  EXPECT_EQ(other.class_count(), 0u);
  EXPECT_EQ(other.stamp(), 222u) << "the store keeps the live graph's stamp";
}

TEST(FeedbackStoreTest, DeserializeKeepsExistingClassesOverThePayload) {
  FeedbackStore old_store;
  old_store.SetStamp(5);
  for (int i = 0; i < 10; ++i) old_store.Record("k", "d", 1.0, 2.0);
  const std::string payload = old_store.Serialize();

  FeedbackStore live;
  live.SetStamp(5);
  for (int i = 0; i < 10; ++i) live.Record("k", "d", 1.0, 900.0);
  for (int i = 0; i < 10; ++i) live.Record("other", "o", 1.0, 3.0);
  ASSERT_TRUE(live.Deserialize(payload, 5).ok());
  // "k" kept the live ring (900x), the payload's 2x did not roll it back.
  EXPECT_NEAR(live.CorrectionFor("k"), 900.0, 1e-6);
  EXPECT_EQ(live.class_count(), 2u);
}

TEST(FeedbackStoreTest, MalformedPayloadFailsCleanly) {
  FeedbackStore src;
  src.SetStamp(3);
  for (int i = 0; i < 10; ++i) src.Record("k", "d", 1.0, 2.0);
  const std::string payload = src.Serialize();

  // Truncation mid-entry is a hard parse error (the snapshot load paths
  // dry-run a probe store first, so a live store never sees this).
  FeedbackStore store;
  EXPECT_FALSE(store.Deserialize(payload.substr(0, payload.size() - 6), 3)
                   .ok());

  // An unknown format version is a clean discard, not an error: the
  // corrections are derived data and simply re-learn.
  bool discarded = false;
  EXPECT_TRUE(store.Deserialize("garbage!", 3, &discarded).ok());
  EXPECT_TRUE(discarded);
  EXPECT_EQ(FeedbackStore::CountSerializedClasses("gar"), 0u);
}

TEST(FeedbackStoreTest, ClearDropsClassesKeepsStamp) {
  FeedbackStore store;
  store.SetStamp(9);
  store.Record("k", "d", 1.0, 2.0);
  store.Clear();
  EXPECT_EQ(store.class_count(), 0u);
  EXPECT_EQ(store.stamp(), 9u);
}

TEST(FeedbackStoreTest, StampFingerprintSeparatesGraphs) {
  const uint64_t a = StampFingerprint(10, 3, 0, 100, 0xabcd);
  EXPECT_EQ(a, StampFingerprint(10, 3, 0, 100, 0xabcd));
  EXPECT_NE(a, StampFingerprint(11, 3, 0, 100, 0xabcd));
  EXPECT_NE(a, StampFingerprint(10, 3, 0, 100, 0xabce));
  EXPECT_NE(a, 0u);
}

// --- the snapshot section (engine-level persistence) ------------------------

TEST(FeedbackSnapshotTest, CorrectionsSurviveSaveLoadBitIdentically) {
  const graph::Graph g = SmallGraph();
  TempFile file("feedback_roundtrip");

  engine::EstimationEngine cold(g);
  FeedbackStore& store = cold.context().feedback_store();
  EXPECT_EQ(store.stamp(), cold.context().feedback_stamp());
  for (int i = 0; i < 12; ++i) {
    store.Record(FeedbackStore::ClassKey("molp", "P2|0,1"), "path2", 3.0,
                 300.0 + i);
  }
  ASSERT_TRUE(cold.context().SaveSnapshot(file.path()).ok());

  engine::EstimationEngine warm(g);
  ASSERT_TRUE(warm.context().LoadSnapshot(file.path()).ok());
  const auto a = cold.context().feedback_store().Report();
  const auto b = warm.context().feedback_store().Report();
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(a[0].key, b[0].key);
  EXPECT_EQ(a[0].hits, b[0].hits);
  EXPECT_EQ(a[0].samples, b[0].samples);
  EXPECT_EQ(a[0].correction, b[0].correction) << "bit-identical round trip";
  EXPECT_TRUE(b[0].active);
}

TEST(FeedbackSnapshotTest, SnapshotCarriesTheFeedbackSection) {
  const graph::Graph g = SmallGraph();
  TempFile file("feedback_arena");

  engine::EstimationEngine cold(g);
  for (int i = 0; i < 12; ++i) {
    cold.context().feedback_store().Record("molp|P2|0,1", "path2", 3.0,
                                           300.0);
  }
  ASSERT_TRUE(cold.context().SaveSnapshot(file.path()).ok());

  auto info = engine::ReadSnapshotInfo(file.path());
  ASSERT_TRUE(info.ok()) << info.status();
  bool found = false;
  for (const auto& section : info->sections) {
    if (section.name == "feedback") {
      found = true;
      EXPECT_EQ(section.entries, 1u);
    }
  }
  EXPECT_TRUE(found) << "snapshot carries the feedback section";

  engine::EstimationEngine warm(g);
  ASSERT_TRUE(warm.context().LoadSnapshot(file.path()).ok());
  EXPECT_EQ(warm.context().feedback_store().class_count(), 1u);
  EXPECT_EQ(warm.context().feedback_store().Report()[0].correction,
            cold.context().feedback_store().Report()[0].correction);
}

TEST(FeedbackSnapshotTest, EmptyStoreWritesNoSectionSnapshotStaysIdentical) {
  const graph::Graph g = SmallGraph();
  TempFile with_touch("feedback_touched");
  TempFile without("feedback_untouched");

  engine::EstimationEngine a(g);
  ASSERT_TRUE(a.context().SaveSnapshot(without.path()).ok());

  engine::EstimationEngine b(g);
  b.context().feedback_store();  // created but empty: still no section
  ASSERT_TRUE(b.context().SaveSnapshot(with_touch.path()).ok());

  std::ifstream fa(without.path(), std::ios::binary);
  std::ifstream fb(with_touch.path(), std::ios::binary);
  std::string bytes_a((std::istreambuf_iterator<char>(fa)),
                      std::istreambuf_iterator<char>());
  std::string bytes_b((std::istreambuf_iterator<char>(fb)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes_a, bytes_b)
      << "an empty feedback store must not change the snapshot bytes";
}

TEST(FeedbackSnapshotTest, ForkWithDeltasSharesTheStore) {
  const graph::Graph g = SmallGraph();
  engine::EstimationEngine engine(g);
  auto store = engine.context().feedback_store_ptr();
  store->Record("k", "d", 1.0, 2.0);
  auto forked = engine.context().ForkWithDeltas({});
  ASSERT_TRUE(forked.ok()) << forked.status();
  EXPECT_EQ((*forked)->feedback_store_ptr().get(), store.get())
      << "delta epochs share one learning store";
}

}  // namespace
}  // namespace cegraph::learn
