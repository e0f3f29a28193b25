#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "dynamic/delta_graph.h"
#include "engine/engine.h"

#include "graph/generators.h"
#include "matching/matcher.h"
#include "query/subquery.h"
#include "query/templates.h"
#include "stats/char_sets.h"
#include "stats/cycle_closing.h"
#include "stats/degree_stats.h"
#include "stats/markov_table.h"
#include "stats/summary_graph.h"

namespace cegraph::stats {
namespace {

using graph::Graph;
using query::QueryGraph;

Graph TinyGraph() {
  // Label 0 (A): 0->1, 0->2, 3->1 ; Label 1 (B): 1->4, 2->4, 1->5.
  auto g = graph::Graph::Create(
      6, 2, {{0, 1, 0}, {0, 2, 0}, {3, 1, 0}, {1, 4, 1}, {2, 4, 1},
             {1, 5, 1}});
  return std::move(g).value();
}

QueryGraph Q(uint32_t n, std::vector<query::QueryEdge> edges) {
  auto q = QueryGraph::Create(n, std::move(edges));
  return std::move(q).value();
}

TEST(MarkovTableTest, SingleEdgeCardinality) {
  Graph g = TinyGraph();
  MarkovTable markov(g, 2);
  auto c = markov.Cardinality(Q(2, {{0, 1, 0}}));
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*c, 3.0);
}

TEST(MarkovTableTest, TwoPathCardinality) {
  Graph g = TinyGraph();
  MarkovTable markov(g, 2);
  auto c = markov.Cardinality(Q(3, {{0, 1, 0}, {1, 2, 1}}));
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*c, 5.0);
}

TEST(MarkovTableTest, RejectsOversizePattern) {
  Graph g = TinyGraph();
  MarkovTable markov(g, 2);
  EXPECT_FALSE(markov.Contains(query::PathShape(3)));
  EXPECT_FALSE(markov.Cardinality(query::PathShape(3)).ok());
}

TEST(MarkovTableTest, CachesByIsomorphism) {
  Graph g = TinyGraph();
  MarkovTable markov(g, 2);
  ASSERT_TRUE(markov.Cardinality(Q(3, {{0, 1, 0}, {1, 2, 1}})).ok());
  const size_t entries = markov.num_entries();
  // Isomorphic relabeled pattern must hit the cache.
  ASSERT_TRUE(markov.Cardinality(Q(3, {{2, 0, 0}, {0, 1, 1}})).ok());
  EXPECT_EQ(markov.num_entries(), entries);
}

TEST(MarkovTableTest, SizeAccountingGrowsWithEntries) {
  Graph g = TinyGraph();
  MarkovTable markov(g, 2);
  EXPECT_EQ(markov.ApproximateSizeBytes(), 0u);
  ASSERT_TRUE(markov.Cardinality(Q(2, {{0, 1, 0}})).ok());
  const size_t one = markov.ApproximateSizeBytes();
  EXPECT_GT(one, 0u);
  ASSERT_TRUE(markov.Cardinality(Q(3, {{0, 1, 0}, {1, 2, 1}})).ok());
  EXPECT_GT(markov.ApproximateSizeBytes(), one);
}

TEST(MarkovTableTest, H3ContainsTriangles) {
  Graph g = TinyGraph();
  MarkovTable markov(g, 3);
  auto c = markov.Cardinality(Q(3, {{0, 1, 0}, {1, 2, 0}, {2, 0, 0}}));
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*c, 0.0);  // no directed triangle in TinyGraph
}

TEST(DegreeMapTest, ComputesProjectionsAndDegrees) {
  // Relation {(0,1),(0,2),(1,2)} over attrs {a0,a1}.
  std::vector<std::array<graph::VertexId, 3>> tuples = {
      {0, 1, 0}, {0, 2, 0}, {1, 2, 0}};
  DegreeMap dm = ComputeDegreeMap(2, tuples);
  EXPECT_EQ(dm.Get(0, 3), 3.0);   // |R|
  EXPECT_EQ(dm.Get(0, 1), 2.0);   // distinct a0
  EXPECT_EQ(dm.Get(0, 2), 2.0);   // distinct a1
  EXPECT_EQ(dm.Get(1, 3), 2.0);   // max fanout of a0
  EXPECT_EQ(dm.Get(2, 3), 2.0);   // max fanin of a1
  EXPECT_EQ(dm.Get(1, 1), 1.0);
  EXPECT_EQ(dm.Get(3, 3), 1.0);
}

TEST(DegreeMapTest, ThreeAttributes) {
  // Tuples (a,b,c): (0,0,0), (0,0,1), (0,1,0).
  std::vector<std::array<graph::VertexId, 3>> tuples = {
      {0, 0, 0}, {0, 0, 1}, {0, 1, 0}};
  DegreeMap dm = ComputeDegreeMap(3, tuples);
  EXPECT_EQ(dm.Get(0, 7), 3.0);
  EXPECT_EQ(dm.Get(1, 7), 3.0);   // a=0 extends to 3 (b,c) pairs
  EXPECT_EQ(dm.Get(3, 7), 2.0);   // (a,b)=(0,0) extends to 2 c's
  EXPECT_EQ(dm.Get(0, 6), 3.0);   // distinct (b,c)
  EXPECT_EQ(dm.Get(2, 6), 2.0);   // b=0 pairs with 2 c's
}

TEST(DegreeMapTest, DeduplicatesTuples) {
  std::vector<std::array<graph::VertexId, 3>> tuples = {
      {0, 1, 0}, {0, 1, 0}, {0, 1, 0}};
  DegreeMap dm = ComputeDegreeMap(2, tuples);
  EXPECT_EQ(dm.Get(0, 3), 1.0);
}

TEST(StatsCatalogTest, BaseRelationMatchesGraph) {
  Graph g = TinyGraph();
  StatsCatalog catalog(g);
  const DegreeMap& dm = catalog.BaseRelation(0);
  EXPECT_EQ(dm.Get(0, 3), 3.0);  // |A|
  EXPECT_EQ(dm.Get(1, 3), 2.0);  // max out-degree (vertex 0)
  EXPECT_EQ(dm.Get(2, 3), 2.0);  // max in-degree (vertex 1)
  EXPECT_EQ(dm.Get(0, 1), 2.0);  // distinct sources {0,3}
  EXPECT_EQ(dm.Get(0, 2), 2.0);  // distinct dests {1,2}
}

TEST(StatsCatalogTest, TwoJoinStatsMatchEnumeration) {
  Graph g = TinyGraph();
  StatsCatalog catalog(g);
  QueryGraph pattern = Q(3, {{0, 1, 0}, {1, 2, 1}});
  const auto* js = catalog.TwoJoin(pattern);
  ASSERT_NE(js, nullptr);
  EXPECT_EQ(js->cardinality, 5.0);
  // Shared across isomorphic requests.
  const auto* js2 = catalog.TwoJoin(Q(3, {{1, 2, 0}, {2, 0, 1}}));
  EXPECT_EQ(js, js2);
}

TEST(DegreeStatsTest, BaseRelationsMappedToQueryVertices) {
  Graph g = TinyGraph();
  StatsCatalog catalog(g);
  QueryGraph q = Q(3, {{0, 1, 0}, {1, 2, 1}});
  auto stats = DegreeStats::Build(catalog, q, /*include_two_joins=*/false);
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->relations().size(), 2u);
  const StatRelation& r0 = stats->relations()[0];
  EXPECT_EQ(r0.attrs, 0b011u);
  EXPECT_EQ(r0.Get(0, 0b011), 3.0);
  EXPECT_EQ(r0.Get(0b001, 0b011), 2.0);  // deg(src)
}

TEST(DegreeStatsTest, TwoJoinRelationsAdded) {
  Graph g = TinyGraph();
  StatsCatalog catalog(g);
  QueryGraph q = Q(3, {{0, 1, 0}, {1, 2, 1}});
  auto stats = DegreeStats::Build(catalog, q, /*include_two_joins=*/true);
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->relations().size(), 3u);
  const StatRelation& join = stats->relations()[2];
  EXPECT_EQ(join.attrs, 0b111u);
  EXPECT_EQ(join.Get(0, 0b111), 5.0);  // |A ⋈ B| = 5
}

TEST(DegreeStatsTest, SelfLoopRelation) {
  auto g = graph::Graph::Create(3, 1, {{0, 0, 0}, {1, 1, 0}, {0, 1, 0}});
  ASSERT_TRUE(g.ok());
  StatsCatalog catalog(*g);
  QueryGraph q = Q(1, {{0, 0, 0}});
  auto stats = DegreeStats::Build(catalog, q, false);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->relations()[0].Get(0, 0b1), 2.0);  // two self-loops
}

TEST(CycleClosingTest, DeterministicAndCached) {
  Graph g = TinyGraph();
  CycleClosingRates rates(g);
  ClosingKey key{.first_label = 0, .last_label = 1, .close_label = 0};
  const double r1 = rates.Rate(key);
  const double r2 = rates.Rate(key);
  EXPECT_EQ(r1, r2);
  EXPECT_EQ(rates.num_cached(), 1u);
  EXPECT_GT(r1, 0.0);
  EXPECT_LE(r1, 1.0);
}

TEST(CycleClosingTest, DenseCycleGraphHasHighRate) {
  // Complete-ish digraph with one label: almost every 2-path closes.
  std::vector<graph::Edge> edges;
  for (uint32_t i = 0; i < 12; ++i) {
    for (uint32_t j = 0; j < 12; ++j) {
      if (i != j) edges.push_back({i, j, 0});
    }
  }
  auto g = graph::Graph::Create(12, 1, std::move(edges));
  ASSERT_TRUE(g.ok());
  CycleClosingRates rates(*g);
  ClosingKey key{.first_label = 0,
                 .last_label = 0,
                 .close_label = 0,
                 .first_forward = true,
                 .last_forward = true,
                 .close_from_end = true};
  EXPECT_GT(rates.Rate(key), 0.8);
}

TEST(CycleClosingTest, NoClosingEdgesLowRate) {
  // Bipartite-ish: closing label never present.
  Graph g = TinyGraph();
  CycleClosingOptions options;
  options.walks_per_key = 500;
  CycleClosingRates rates(g, options);
  ClosingKey key{.first_label = 0, .last_label = 1, .close_label = 1,
                 .first_forward = true, .last_forward = true,
                 .close_from_end = true};
  EXPECT_LT(rates.Rate(key), 0.05);
  EXPECT_GT(rates.Rate(key), 0.0);  // smoothing keeps it positive
}

TEST(CharSetsTest, GroupsVerticesBySignature) {
  Graph g = TinyGraph();
  CharacteristicSets cs(g);
  // Vertex 0: {A}; vertex 3: {A}; vertex 1: {B}; vertex 2: {B}.
  EXPECT_EQ(cs.num_groups(), 2u);
}

TEST(CharSetsTest, StarEstimateExactForSingleLabel) {
  Graph g = TinyGraph();
  CharacteristicSets cs(g);
  // Single-edge star with label A: exact count 3.
  EXPECT_DOUBLE_EQ(cs.EstimateStar({0}), 3.0);
  EXPECT_DOUBLE_EQ(cs.EstimateStar({1}), 3.0);
}

TEST(CharSetsTest, TwoEdgeStarUniformityAssumption) {
  Graph g = TinyGraph();
  CharacteristicSets cs(g);
  // B,B 2-star: group {B} has 2 vertices, avg multiplicity 1.5 -> 2*1.5^2.
  EXPECT_DOUBLE_EQ(cs.EstimateStar({1, 1}), 4.5);
}

TEST(CharSetsTest, MissingLabelGivesZero) {
  Graph g = TinyGraph();
  CharacteristicSets cs(g);
  EXPECT_DOUBLE_EQ(cs.EstimateStar({0, 1}), 0.0);  // no vertex has both
}

// ---- Reference characteristic-sets scan ----------------------------------
// The original per-group summary (std::set / std::map groups, full scan per
// star), kept here as the oracle the flat posting-index kernel must match
// bit for bit, on every backing.

struct RefGroup {
  std::set<graph::Label> char_set;
  uint64_t vertex_count = 0;
  std::map<graph::Label, uint64_t> label_edges;
};

std::vector<RefGroup> RefGroups(const Graph& g) {
  std::map<std::set<graph::Label>, RefGroup> by_set;
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    std::set<graph::Label> cs;
    for (graph::Label l = 0; l < g.num_labels(); ++l) {
      if (g.OutDegree(v, l) > 0) cs.insert(l);
    }
    if (cs.empty()) continue;
    RefGroup& group = by_set[cs];
    group.char_set = cs;
    ++group.vertex_count;
    for (graph::Label l : cs) group.label_edges[l] += g.OutDegree(v, l);
  }
  std::vector<RefGroup> groups;
  for (auto& [cs, group] : by_set) groups.push_back(std::move(group));
  return groups;
}

double RefEstimateStar(const std::vector<RefGroup>& groups,
                       const std::vector<graph::Label>& labels) {
  std::map<graph::Label, int> need;
  for (graph::Label l : labels) ++need[l];
  double total = 0;
  for (const RefGroup& group : groups) {
    bool covers = true;
    for (const auto& [l, cnt] : need) {
      if (!group.char_set.contains(l)) {
        covers = false;
        break;
      }
    }
    if (!covers) continue;
    double contribution = static_cast<double>(group.vertex_count);
    for (const auto& [l, cnt] : need) {
      const double avg = static_cast<double>(group.label_edges.at(l)) /
                         static_cast<double>(group.vertex_count);
      contribution *= std::pow(avg, cnt);
    }
    total += contribution;
  }
  return total;
}

std::string RefSaveArena(uint32_t num_vertices,
                         const std::vector<RefGroup>& groups) {
  util::serde::Writer w;
  w.WriteU64(num_vertices);
  w.WriteU64(groups.size());
  uint64_t labels_count = 0;
  uint64_t edges_count = 0;
  for (const RefGroup& group : groups) {
    labels_count += group.char_set.size();
    edges_count += group.label_edges.size();
  }
  w.WriteU64(labels_count);
  w.WriteU64(edges_count);
  uint64_t set_start = 0;
  uint64_t edges_start = 0;
  for (const RefGroup& group : groups) {
    w.WriteU64(group.vertex_count);
    w.WriteU64(set_start);
    w.WriteU64(group.char_set.size());
    w.WriteU64(edges_start);
    w.WriteU64(group.label_edges.size());
    set_start += group.char_set.size();
    edges_start += group.label_edges.size();
  }
  for (const RefGroup& group : groups) {
    for (graph::Label l : group.char_set) w.WriteU32(l);
  }
  if (labels_count % 2 != 0) w.WriteU32(0);
  for (const RefGroup& group : groups) {
    for (const auto& [l, edges] : group.label_edges) {
      w.WriteU32(l);
      w.WriteU32(0);
      w.WriteU64(edges);
    }
  }
  return w.TakeBuffer();
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Random label multisets of 0-6 labels over [0, num_labels + 2], with
/// repeats, plus an occasional far out-of-range label.
std::vector<std::vector<graph::Label>> RandomStars(uint32_t num_labels,
                                                   size_t count,
                                                   uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::vector<graph::Label>> stars;
  for (size_t i = 0; i < count; ++i) {
    std::vector<graph::Label> labels(rng() % 7);
    for (graph::Label& l : labels) {
      l = rng() % 50 == 0 ? 0xFFFFFFFFu
                          : static_cast<graph::Label>(rng() % (num_labels + 3));
    }
    stars.push_back(std::move(labels));
  }
  return stars;
}

/// Every backing of the summary built over `g` against the reference scan.
void ExpectMatchesReference(const Graph& g, uint64_t seed) {
  const std::vector<RefGroup> ref = RefGroups(g);
  CharacteristicSets owned(g);
  EXPECT_EQ(owned.num_groups(), ref.size());
  const std::string arena = owned.SaveArena();
  EXPECT_EQ(arena, RefSaveArena(g.num_vertices(), ref));

  auto mapped = CharacteristicSets::AttachMapped(arena, nullptr,
                                                 g.num_labels());
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  util::serde::Writer w;
  owned.Save(w);
  util::serde::Reader r(w.buffer());
  auto loaded = CharacteristicSets::Load(r, g.num_labels());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->SaveArena(), arena);

  const std::vector<const CharacteristicSets*> backings = {&owned, &*mapped,
                                                          &*loaded};
  double sum_vertices = 0;
  for (const RefGroup& group : ref) {
    sum_vertices += static_cast<double>(group.vertex_count);
  }
  for (const CharacteristicSets* cs : backings) {
    EXPECT_TRUE(SameBits(cs->EstimateStar({}), sum_vertices));
  }
  size_t nonzero = 0;
  for (const auto& labels : RandomStars(g.num_labels(), 1500, seed)) {
    const double expected = RefEstimateStar(ref, labels);
    if (expected != 0) ++nonzero;
    for (size_t b = 0; b < backings.size(); ++b) {
      const double got = backings[b]->EstimateStar(labels);
      ASSERT_TRUE(SameBits(got, expected))
          << "backing " << b << " star of " << labels.size() << " labels: "
          << got << " vs " << expected;
    }
  }
  EXPECT_GT(nonzero, 100u);  // the draw must exercise real intersections
}

Graph RandomGraph(uint32_t num_labels, uint64_t seed) {
  graph::GeneratorConfig config;
  config.num_vertices = 600;
  config.num_edges = 4000;
  config.num_labels = num_labels;
  config.seed = seed;
  auto g = graph::GenerateGraph(config);
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

TEST(CharSetsTest, PostingKernelMatchesReferenceScanOnEveryBacking) {
  // Few labels, and label counts at and past 64 (wider than a bit mask),
  // with every label run keyed the same way.
  for (const uint32_t num_labels : {6u, 64u, 70u}) {
    SCOPED_TRACE(num_labels);
    ExpectMatchesReference(RandomGraph(num_labels, num_labels), num_labels);
  }
}

TEST(CharSetsTest, PostingKernelMatchesReferenceAfterApplyDeltas) {
  const Graph g = RandomGraph(6, 11);
  engine::EstimationEngine engine(g);
  (void)engine.context().characteristic_sets();  // build before the fold
  std::vector<dynamic::EdgeDelta> batch;
  std::mt19937_64 rng(23);
  for (size_t i = 0; i < 120; ++i) {
    const graph::Edge e{static_cast<graph::VertexId>(rng() % g.num_vertices()),
                        static_cast<graph::VertexId>(rng() % g.num_vertices()),
                        static_cast<graph::Label>(rng() % g.num_labels())};
    batch.push_back({e, g.HasEdge(e.src, e.dst, e.label)
                            ? dynamic::DeltaOp::kDelete
                            : dynamic::DeltaOp::kInsert});
  }
  ASSERT_TRUE(engine.ApplyDeltas(batch).ok());
  const Graph& folded = engine.context().graph();
  ASSERT_NE(folded.fingerprint(), g.fingerprint());
  const std::vector<RefGroup> ref = RefGroups(folded);
  const CharacteristicSets& cs = engine.context().characteristic_sets();
  EXPECT_EQ(cs.SaveArena(), RefSaveArena(folded.num_vertices(), ref));
  for (const auto& labels : RandomStars(folded.num_labels(), 1500, 29)) {
    ASSERT_TRUE(SameBits(cs.EstimateStar(labels),
                         RefEstimateStar(ref, labels)));
  }
}

TEST(CharSetsTest, OutOfRangeArenaLabelDegradesToEmptySummary) {
  const Graph g = TinyGraph();
  const std::string pristine = CharacteristicSets(g).SaveArena();
  // Groups {A} and {B}: the labels blob follows the 32-byte header and two
  // 40-byte group records (8 bytes, padded); the edges blob follows it.
  constexpr size_t kLabels = 32 + 2 * 40;
  constexpr size_t kEdges = kLabels + 8;
  ASSERT_EQ(util::LoadLittleU32(pristine.data() + kLabels), 0u);
  ASSERT_EQ(util::LoadLittleU32(pristine.data() + kEdges), 0u);
  for (const uint32_t label : {2u, 0x7F7F7F7Fu, 0xFFFFFFFFu}) {
    SCOPED_TRACE(label);
    // Relabel group {A} consistently in both blobs, so only the range
    // check can catch it.
    std::string arena = pristine;
    for (const size_t at : {kLabels, kEdges}) {
      for (size_t i = 0; i < 4; ++i) arena[at + i] = char(label >> (8 * i));
    }
    auto cs = CharacteristicSets::AttachMapped(arena, nullptr, g.num_labels());
    ASSERT_TRUE(cs.ok());  // O(1) attach does not scan groups
    const util::Status checked = cs->ValidateNow();
    EXPECT_NE(checked.ToString().find("label out of range"), std::string::npos)
        << checked;
    EXPECT_EQ(cs->EstimateStar({0}), 0.0);
    EXPECT_EQ(cs->EstimateStar({1}), 0.0);
    EXPECT_EQ(cs->EstimateStar({}), 0.0);
  }
}

TEST(SummaryGraphTest, PreservesTotalEdgeWeight) {
  Graph g = TinyGraph();
  SummaryGraph summary(g, 3);
  double total = 0;
  for (uint32_t b1 = 0; b1 < summary.num_buckets(); ++b1) {
    for (graph::Label l = 0; l < summary.num_labels(); ++l) {
      for (const auto& [b2, w] : summary.OutEdges(b1, l)) total += w;
    }
  }
  EXPECT_DOUBLE_EQ(total, 6.0);
}

TEST(SummaryGraphTest, BucketSizesSumToVertices) {
  Graph g = TinyGraph();
  SummaryGraph summary(g, 4);
  uint64_t total = 0;
  for (uint32_t b = 0; b < summary.num_buckets(); ++b) {
    total += summary.bucket_size(b);
  }
  EXPECT_EQ(total, 6u);
}

TEST(SummaryGraphTest, InEdgesMirrorOutEdges) {
  Graph g = TinyGraph();
  SummaryGraph summary(g, 3);
  for (uint32_t b1 = 0; b1 < summary.num_buckets(); ++b1) {
    for (graph::Label l = 0; l < summary.num_labels(); ++l) {
      for (const auto& [b2, w] : summary.OutEdges(b1, l)) {
        EXPECT_EQ(summary.EdgeWeight(b1, l, b2), w);
        bool found = false;
        for (const auto& [bb1, ww] : summary.InEdges(b2, l)) {
          if (bb1 == b1) {
            found = true;
            EXPECT_EQ(ww, w);
          }
        }
        EXPECT_TRUE(found);
      }
    }
  }
}

}  // namespace
}  // namespace cegraph::stats
