#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <random>
#include <set>
#include <vector>

#include "estimators/bound_sketch.h"
#include "estimators/characteristic_sets.h"
#include "estimators/default_rdf3x.h"
#include "estimators/optimistic.h"
#include "estimators/oracle.h"
#include "estimators/pessimistic.h"
#include "estimators/sumrdf.h"
#include "estimators/wander_join.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "matching/matcher.h"
#include "query/workload.h"

namespace cegraph {
namespace {

using graph::Graph;
using query::QueryGraph;

QueryGraph Q(uint32_t n, std::vector<query::QueryEdge> edges) {
  auto q = QueryGraph::Create(n, std::move(edges));
  return std::move(q).value();
}

constexpr graph::Label kA = 0, kB = 1, kC = 2, kD = 3, kE = 4;

double QError(double estimate, double truth) {
  if (estimate <= 0) return std::numeric_limits<double>::infinity();
  return std::max(truth / estimate, estimate / truth);
}

class EstimatorsTest : public ::testing::Test {
 protected:
  EstimatorsTest()
      : g_(graph::MakeRunningExampleGraph()),
        markov2_(g_, 2),
        catalog_(g_),
        matcher_(g_) {}
  Graph g_;
  stats::MarkovTable markov2_;
  stats::StatsCatalog catalog_;
  matching::Matcher matcher_;
};

TEST_F(EstimatorsTest, SpecNames) {
  EXPECT_EQ(SpecName(OptimisticSpec{}), "max-hop-max");
  OptimisticSpec s;
  s.path_length = ceg::Ceg::HopMode::kAllHops;
  s.aggregator = Aggregator::kAvgAggr;
  EXPECT_EQ(SpecName(s), "all-hops-avg");
  s.ceg_kind = OptimisticCeg::kCegOcr;
  EXPECT_EQ(SpecName(s), "all-hops-avg@ocr");
}

TEST_F(EstimatorsTest, AllNineSpecsDistinct) {
  auto specs = AllOptimisticSpecs();
  ASSERT_EQ(specs.size(), 9u);
  std::set<std::string> names;
  for (const auto& s : specs) names.insert(SpecName(s));
  EXPECT_EQ(names.size(), 9u);
}

TEST_F(EstimatorsTest, OptimisticExactWithinTable) {
  OptimisticEstimator est(markov2_, OptimisticSpec{});
  auto e = est.Estimate(Q(3, {{0, 1, kA}, {1, 2, kB}}));
  ASSERT_TRUE(e.ok());
  EXPECT_DOUBLE_EQ(*e, 4.0);
}

TEST_F(EstimatorsTest, AggregatorOrdering) {
  const QueryGraph q = Q(6, {{0, 1, kA},
                             {1, 2, kB},
                             {2, 3, kC},
                             {2, 4, kD},
                             {2, 5, kE}});
  auto value = [&](Aggregator a) {
    OptimisticSpec spec;
    spec.path_length = ceg::Ceg::HopMode::kAllHops;
    spec.aggregator = a;
    OptimisticEstimator est(markov2_, spec);
    return *est.Estimate(q);
  };
  const double vmin = value(Aggregator::kMinAggr);
  const double vavg = value(Aggregator::kAvgAggr);
  const double vmax = value(Aggregator::kMaxAggr);
  EXPECT_LE(vmin, vavg);
  EXPECT_LE(vavg, vmax);
  EXPECT_LT(vmin, vmax);
}

TEST_F(EstimatorsTest, EmptyRelationGivesZero) {
  // Label kE exists, but a query over an empty label must estimate 0.
  auto g = graph::Graph::Create(4, 2, {{0, 1, 0}});
  ASSERT_TRUE(g.ok());
  stats::MarkovTable markov(*g, 2);
  OptimisticEstimator est(markov, OptimisticSpec{});
  auto e = est.Estimate(Q(3, {{0, 1, 0}, {1, 2, 1}}));
  ASSERT_TRUE(e.ok());
  EXPECT_DOUBLE_EQ(*e, 0.0);
}

TEST_F(EstimatorsTest, MolpUpperBoundsTruth) {
  const std::vector<QueryGraph> queries = {
      Q(3, {{0, 1, kA}, {1, 2, kB}}),
      Q(4, {{0, 1, kA}, {1, 2, kB}, {2, 3, kC}}),
      Q(6, {{0, 1, kA}, {1, 2, kB}, {2, 3, kC}, {2, 4, kD}, {2, 5, kE}}),
  };
  for (bool two_joins : {false, true}) {
    MolpEstimator molp(catalog_, two_joins);
    for (const auto& q : queries) {
      auto bound = molp.Estimate(q);
      ASSERT_TRUE(bound.ok());
      auto truth = matcher_.Count(q);
      ASSERT_TRUE(truth.ok());
      EXPECT_GE(*bound * (1 + 1e-9), *truth)
          << "two_joins=" << two_joins;
    }
  }
}

TEST_F(EstimatorsTest, MolpTwoJoinStatsTighten) {
  const QueryGraph q = Q(4, {{0, 1, kA}, {1, 2, kB}, {2, 3, kC}});
  MolpEstimator base(catalog_, false), with2j(catalog_, true);
  auto b = base.Estimate(q);
  auto t = with2j.Estimate(q);
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(t.ok());
  EXPECT_LE(*t, *b * (1 + 1e-9));
}

TEST_F(EstimatorsTest, CbsUpperBoundsTruthOnAcyclic) {
  CbsEstimator cbs(catalog_);
  const QueryGraph q = Q(4, {{0, 1, kA}, {1, 2, kB}, {2, 3, kC}});
  auto bound = cbs.Estimate(q);
  ASSERT_TRUE(bound.ok());
  auto truth = matcher_.Count(q);
  EXPECT_GE(*bound * (1 + 1e-9), *truth);
}

TEST_F(EstimatorsTest, CbsTriangleCounterExample) {
  // Appendix C: identity relations R=S=T={(i,i)}. Every relation has max
  // degree 1, so the all-partial cover prices the triangle at 1, but the
  // true count is n. CBS *under*estimates; MOLP stays sound.
  const uint32_t n = 8;
  std::vector<graph::Edge> edges;
  for (uint32_t i = 0; i < n; ++i) {
    edges.push_back({i, i, 0});
    edges.push_back({i, i, 1});
    edges.push_back({i, i, 2});
  }
  auto g = graph::Graph::Create(n, 3, std::move(edges));
  ASSERT_TRUE(g.ok());
  stats::StatsCatalog catalog(*g);
  const QueryGraph tri = Q(3, {{0, 1, 0}, {1, 2, 1}, {2, 0, 2}});

  CbsEstimator cbs(catalog);
  auto cbs_bound = cbs.Estimate(tri);
  ASSERT_TRUE(cbs_bound.ok());
  EXPECT_DOUBLE_EQ(*cbs_bound, 1.0);  // unsafe: truth is n

  matching::Matcher matcher(*g);
  auto truth = matcher.Count(tri);
  ASSERT_TRUE(truth.ok());
  EXPECT_DOUBLE_EQ(*truth, static_cast<double>(n));

  MolpEstimator molp(catalog, false);
  auto molp_bound = molp.Estimate(tri);
  ASSERT_TRUE(molp_bound.ok());
  EXPECT_GE(*molp_bound * (1 + 1e-9), static_cast<double>(n));
}

TEST_F(EstimatorsTest, WanderJoinSingleEdgeExact) {
  WanderJoinOptions options;
  options.sampling_ratio = 1.0;
  WanderJoinEstimator wj(g_, options);
  auto e = wj.Estimate(Q(2, {{0, 1, kA}}));
  ASSERT_TRUE(e.ok());
  EXPECT_DOUBLE_EQ(*e, 4.0);
}

TEST_F(EstimatorsTest, WanderJoinApproximatelyUnbiased) {
  // Average over many seeds approaches the truth.
  const QueryGraph q = Q(4, {{0, 1, kA}, {1, 2, kB}, {2, 3, kC}});
  auto truth = matcher_.Count(q);
  ASSERT_TRUE(truth.ok());
  double total = 0;
  const int runs = 200;
  for (int seed = 0; seed < runs; ++seed) {
    WanderJoinOptions options;
    options.sampling_ratio = 1.0;
    options.seed = static_cast<uint64_t>(seed) + 1;
    WanderJoinEstimator wj(g_, options);
    auto e = wj.Estimate(q);
    ASSERT_TRUE(e.ok());
    total += *e;
  }
  EXPECT_NEAR(total / runs, *truth, 0.15 * *truth);
}

TEST_F(EstimatorsTest, WanderJoinZeroForImpossibleQuery) {
  // B then A never chains.
  WanderJoinOptions options;
  options.sampling_ratio = 1.0;
  WanderJoinEstimator wj(g_, options);
  auto e = wj.Estimate(Q(3, {{0, 1, kB}, {1, 2, kA}}));
  ASSERT_TRUE(e.ok());
  EXPECT_DOUBLE_EQ(*e, 0.0);
}

TEST_F(EstimatorsTest, CharacteristicSetsExactOnStars) {
  stats::CharacteristicSets cs(g_);
  CharacteristicSetsEstimator est(cs);
  // Single-edge star.
  auto e = est.Estimate(Q(2, {{0, 1, kA}}));
  ASSERT_TRUE(e.ok());
  EXPECT_DOUBLE_EQ(*e, 4.0);
}

TEST_F(EstimatorsTest, CharacteristicSetsUnderestimatesJoins) {
  stats::CharacteristicSets cs(g_);
  CharacteristicSetsEstimator est(cs);
  const QueryGraph q = Q(4, {{0, 1, kA}, {1, 2, kB}, {2, 3, kC}});
  auto e = est.Estimate(q);
  ASSERT_TRUE(e.ok());
  auto truth = matcher_.Count(q);
  EXPECT_LT(*e, *truth);  // the paper: CS underestimates virtually always
}

// The star decomposition as first written (a std::map of stars and a
// std::set of vertices per star), kept as the reference the estimator's
// sorted single pass must match bit for bit.
double ReferenceCsEstimate(const stats::CharacteristicSets& cs,
                           const QueryGraph& q) {
  std::map<query::QVertex, std::vector<graph::Label>> stars;
  for (const query::QueryEdge& e : q.edges()) stars[e.src].push_back(e.label);
  double estimate = 1.0;
  size_t occurrences = 0;
  for (const auto& [center, labels] : stars) {
    estimate *= cs.EstimateStar(labels);
    std::set<query::QVertex> verts = {center};
    for (const query::QueryEdge& e : q.edges()) {
      if (e.src == center) verts.insert(e.dst);
    }
    occurrences += verts.size();
  }
  for (size_t i = 0; i < occurrences - q.num_vertices(); ++i) {
    estimate /= static_cast<double>(cs.num_graph_vertices());
  }
  return estimate;
}

TEST(CharacteristicSetsEstimatorTest, SortedDecompositionMatchesReference) {
  graph::GeneratorConfig config;
  config.num_vertices = 300;
  config.num_edges = 2000;
  config.num_labels = 6;
  auto g = graph::GenerateGraph(config);
  ASSERT_TRUE(g.ok());
  stats::CharacteristicSets cs(*g);
  CharacteristicSetsEstimator est(cs);
  // Random patterns on 2-5 vertices, with self-loops, parallel edges and
  // repeated labels; shapes the query layer rejects are skipped, and
  // disconnected ones must be refused.
  std::mt19937_64 rng(41);
  size_t checked = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    const uint32_t n = 2 + rng() % 4;
    std::vector<query::QueryEdge> edges(1 + rng() % 7);
    for (query::QueryEdge& e : edges) {
      e = {static_cast<query::QVertex>(rng() % n),
           static_cast<query::QVertex>(rng() % n),
           static_cast<graph::Label>(rng() % 6)};
    }
    auto q = QueryGraph::Create(n, std::move(edges));
    if (!q.ok()) continue;
    auto got = est.Estimate(*q);
    if (!q->IsConnected()) {
      EXPECT_FALSE(got.ok());
      continue;
    }
    ASSERT_TRUE(got.ok());
    const double expected = ReferenceCsEstimate(cs, *q);
    ASSERT_EQ(std::memcmp(&*got, &expected, sizeof(double)), 0)
        << *got << " vs " << expected;
    ++checked;
  }
  EXPECT_GT(checked, 200u);
}

TEST_F(EstimatorsTest, SumRdfExactOnSingleEdge) {
  stats::SummaryGraph summary(g_, 4);
  SumRdfEstimator est(summary);
  auto e = est.Estimate(Q(2, {{0, 1, kB}}));
  ASSERT_TRUE(e.ok());
  EXPECT_DOUBLE_EQ(*e, 2.0);
}

TEST_F(EstimatorsTest, SumRdfTimesOutOnTinyBudget) {
  stats::SummaryGraph summary(g_, 8);
  SumRdfEstimator est(summary, /*step_budget=*/2);
  const QueryGraph q = Q(4, {{0, 1, kA}, {1, 2, kB}, {2, 3, kC}});
  auto e = est.Estimate(q);
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), util::StatusCode::kResourceExhausted);
}

TEST_F(EstimatorsTest, SumRdfSingleBucketMatchesIndependence) {
  // With one bucket the summary collapses to relation sizes over |V|^2
  // pair probabilities: 2-path estimate = |A| * |B| / |V|.
  stats::SummaryGraph summary(g_, 1);
  SumRdfEstimator est(summary);
  auto e = est.Estimate(Q(3, {{0, 1, kA}, {1, 2, kB}}));
  ASSERT_TRUE(e.ok());
  EXPECT_NEAR(*e, 4.0 * 2.0 / 16.0, 1e-9);
}

TEST_F(EstimatorsTest, DefaultRdf3xReturnsAtLeastOne) {
  DefaultRdf3xEstimator est(g_);
  auto e = est.Estimate(Q(4, {{0, 1, kA}, {1, 2, kB}, {2, 3, kC}}));
  ASSERT_TRUE(e.ok());
  EXPECT_GE(*e, 1.0);
}

TEST_F(EstimatorsTest, PStarDominatesAllHeuristics) {
  const QueryGraph q = Q(6, {{0, 1, kA},
                             {1, 2, kB},
                             {2, 3, kC},
                             {2, 4, kD},
                             {2, 5, kE}});
  auto truth = matcher_.Count(q);
  ASSERT_TRUE(truth.ok());
  OptimisticEstimator any(markov2_, OptimisticSpec{});
  auto built = any.BuildCeg(q);
  ASSERT_TRUE(built.ok());
  auto pstar = PStarEstimate(built->ceg, *truth);
  ASSERT_TRUE(pstar.ok());
  for (const auto& spec : AllOptimisticSpecs()) {
    OptimisticEstimator est(markov2_, spec);
    auto e = est.Estimate(q);
    ASSERT_TRUE(e.ok());
    EXPECT_LE(QError(*pstar, *truth), QError(*e, *truth) + 1e-9)
        << SpecName(spec);
  }
}

TEST_F(EstimatorsTest, BoundSketchK1EqualsInner) {
  BoundSketchEstimator::Options options;
  options.budget_k = 1;
  BoundSketchEstimator bs(g_, BoundSketchEstimator::Inner::kMolp, options);
  MolpEstimator molp(catalog_, false);
  const QueryGraph q = Q(4, {{0, 1, kA}, {1, 2, kB}, {2, 3, kC}});
  auto a = bs.Estimate(q);
  auto b = molp.Estimate(q);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(*a, *b);
}

TEST_F(EstimatorsTest, BoundSketchMolpStaysUpperBoundAndTightens) {
  auto big = graph::MakeDataset("epinions_like");
  ASSERT_TRUE(big.ok());
  query::WorkloadOptions options;
  options.instances_per_template = 4;
  options.seed = 77;
  auto wl = query::GenerateWorkload(
      *big, {{"path3", query::PathShape(3)}}, options);
  ASSERT_TRUE(wl.ok());

  stats::StatsCatalog catalog(*big);
  MolpEstimator direct(catalog, false);
  BoundSketchEstimator::Options bs_options;
  bs_options.budget_k = 4;
  BoundSketchEstimator sketched(*big, BoundSketchEstimator::Inner::kMolp,
                                bs_options);
  for (const auto& wq : *wl) {
    auto d = direct.Estimate(wq.query);
    auto s = sketched.Estimate(wq.query);
    ASSERT_TRUE(d.ok());
    ASSERT_TRUE(s.ok());
    // Partitioned sum is guaranteed at least as tight, and still a bound.
    EXPECT_LE(*s, *d * (1 + 1e-6));
    EXPECT_GE(*s * (1 + 1e-6), wq.true_cardinality);
  }
}

TEST_F(EstimatorsTest, BoundSketchOptimisticRuns) {
  BoundSketchEstimator::Options options;
  options.budget_k = 4;
  BoundSketchEstimator bs(
      g_, BoundSketchEstimator::Inner::kOptimisticMaxHopMax, options);
  const QueryGraph q = Q(4, {{0, 1, kA}, {1, 2, kB}, {2, 3, kC}});
  auto e = bs.Estimate(q);
  ASSERT_TRUE(e.ok());
  EXPECT_GE(*e, 0.0);
  EXPECT_EQ(bs.name(), "bs4(max-hop-max)");
}

}  // namespace
}  // namespace cegraph
