#include <gtest/gtest.h>

#include <bit>
#include <random>

#include "engine/engine.h"
#include "estimators/default_rdf3x.h"
#include "estimators/optimistic.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "matching/matcher.h"
#include "planner/dp_optimizer.h"
#include "planner/executor.h"
#include "query/subquery.h"
#include "query/workload.h"
#include "stats/markov_table.h"

namespace cegraph::planner {
namespace {

using graph::Graph;
using query::QueryGraph;

QueryGraph Q(uint32_t n, std::vector<query::QueryEdge> edges) {
  auto q = QueryGraph::Create(n, std::move(edges));
  return std::move(q).value();
}

constexpr graph::Label kA = 0, kB = 1, kC = 2;

class PlannerTest : public ::testing::Test {
 protected:
  PlannerTest()
      : g_(graph::MakeRunningExampleGraph()), markov_(g_, 2) {}
  Graph g_;
  stats::MarkovTable markov_;
};

TEST_F(PlannerTest, SingleEdgePlanIsLeaf) {
  OptimisticEstimator est(markov_, OptimisticSpec{});
  DpOptimizer optimizer(est);
  auto plan = optimizer.Optimize(Q(2, {{0, 1, kA}}));
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->nodes.size(), 1u);
  EXPECT_EQ(plan->estimated_cost, 0.0);
}

TEST_F(PlannerTest, PathPlanCoversAllEdges) {
  OptimisticEstimator est(markov_, OptimisticSpec{});
  DpOptimizer optimizer(est);
  const QueryGraph q = Q(4, {{0, 1, kA}, {1, 2, kB}, {2, 3, kC}});
  auto plan = optimizer.Optimize(q);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->nodes[plan->root].subquery, q.AllEdges());
  // Internal nodes: every subquery estimated, cost > 0.
  EXPECT_GT(plan->estimated_cost, 0.0);
}

TEST_F(PlannerTest, ExecutorMatchesMatcherCount) {
  OptimisticEstimator est(markov_, OptimisticSpec{});
  DpOptimizer optimizer(est);
  Executor executor(g_);
  matching::Matcher matcher(g_);
  const std::vector<QueryGraph> queries = {
      Q(3, {{0, 1, kA}, {1, 2, kB}}),
      Q(4, {{0, 1, kA}, {1, 2, kB}, {2, 3, kC}}),
      Q(5, {{0, 1, kA}, {1, 2, kB}, {2, 3, kC}, {2, 4, 3}}),
  };
  for (const QueryGraph& q : queries) {
    auto plan = optimizer.Optimize(q);
    ASSERT_TRUE(plan.ok());
    auto result = executor.Execute(q, *plan);
    ASSERT_TRUE(result.ok());
    auto truth = matcher.Count(q);
    ASSERT_TRUE(truth.ok());
    EXPECT_DOUBLE_EQ(result->output_cardinality, *truth);
  }
}

TEST_F(PlannerTest, ExecutorResultIndependentOfEstimator) {
  // Different estimators may choose different plans; outputs must agree.
  const QueryGraph q = Q(5, {{0, 1, kA}, {1, 2, kB}, {2, 3, kC}, {2, 4, 4}});
  Executor executor(g_);

  OptimisticEstimator opt(markov_, OptimisticSpec{});
  DefaultRdf3xEstimator magic(g_);
  double out1 = -1, out2 = -1;
  {
    DpOptimizer optimizer(opt);
    auto plan = optimizer.Optimize(q);
    ASSERT_TRUE(plan.ok());
    auto result = executor.Execute(q, *plan);
    ASSERT_TRUE(result.ok());
    out1 = result->output_cardinality;
  }
  {
    DpOptimizer optimizer(magic);
    auto plan = optimizer.Optimize(q);
    ASSERT_TRUE(plan.ok());
    auto result = executor.Execute(q, *plan);
    ASSERT_TRUE(result.ok());
    out2 = result->output_cardinality;
  }
  EXPECT_DOUBLE_EQ(out1, out2);
}

TEST_F(PlannerTest, CyclicQueryExecution) {
  // Build a graph with triangles.
  auto g = graph::GenerateGraph({.num_vertices = 40,
                                 .num_edges = 300,
                                 .num_labels = 2,
                                 .num_types = 1,
                                 .label_zipf_s = 1.0,
                                 .preferential_p = 0.4,
                                 .random_labels = true,
                                 .seed = 21});
  ASSERT_TRUE(g.ok());
  stats::MarkovTable markov(*g, 2);
  OptimisticEstimator est(markov, OptimisticSpec{});
  DpOptimizer optimizer(est);
  Executor executor(*g);
  matching::Matcher matcher(*g);
  const QueryGraph tri = Q(3, {{0, 1, 0}, {1, 2, 1}, {2, 0, 0}});
  auto plan = optimizer.Optimize(tri);
  ASSERT_TRUE(plan.ok());
  auto result = executor.Execute(tri, *plan);
  ASSERT_TRUE(result.ok());
  auto truth = matcher.Count(tri);
  EXPECT_DOUBLE_EQ(result->output_cardinality, *truth);
}

TEST_F(PlannerTest, TupleBudgetAborts) {
  auto g = graph::MakeDataset("epinions_like");
  ASSERT_TRUE(g.ok());
  stats::MarkovTable markov(*g, 2);
  OptimisticEstimator est(markov, OptimisticSpec{});
  DpOptimizer optimizer(est);
  Executor executor(*g);
  query::WorkloadOptions options;
  options.instances_per_template = 1;
  options.seed = 3;
  auto wl = query::GenerateWorkload(*g, {{"p4", query::PathShape(4)}},
                                    options);
  ASSERT_TRUE(wl.ok());
  auto plan = optimizer.Optimize((*wl)[0].query);
  ASSERT_TRUE(plan.ok());
  auto result = executor.Execute((*wl)[0].query, *plan, /*tuple_budget=*/1);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kResourceExhausted);
}

TEST_F(PlannerTest, BetterEstimatesGiveNoWorseCost) {
  // The plan chosen under the exact estimator must have true intermediate
  // cost no larger than under a deliberately awful estimator, on average.
  // We check a weaker per-query property: executing the plan chosen by the
  // accurate estimator never materializes more intermediate tuples than
  // 10x the awful plan (sanity guard against pathological regressions).
  auto g = graph::MakeDataset("epinions_like");
  ASSERT_TRUE(g.ok());
  stats::MarkovTable markov(*g, 2);
  OptimisticEstimator good(markov, OptimisticSpec{});
  DefaultRdf3xEstimator bad(*g, /*magic_selectivity=*/1e-7);
  Executor executor(*g);
  query::WorkloadOptions options;
  options.instances_per_template = 5;
  options.seed = 29;
  auto wl = query::GenerateWorkload(
      *g, {{"cat5", query::CaterpillarShape(5, 3)}}, options);
  ASSERT_TRUE(wl.ok());
  uint64_t good_total = 0, bad_total = 0;
  for (const auto& wq : *wl) {
    DpOptimizer opt_good(good), opt_bad(bad);
    auto plan_good = opt_good.Optimize(wq.query);
    auto plan_bad = opt_bad.Optimize(wq.query);
    ASSERT_TRUE(plan_good.ok());
    ASSERT_TRUE(plan_bad.ok());
    auto run_good = executor.Execute(wq.query, *plan_good);
    auto run_bad = executor.Execute(wq.query, *plan_bad);
    if (!run_good.ok() || !run_bad.ok()) continue;
    good_total += run_good->total_intermediate_tuples;
    bad_total += run_bad->total_intermediate_tuples;
  }
  EXPECT_LE(good_total, 10 * std::max<uint64_t>(bad_total, 1));
}

// --- EstimateSubplans equivalence -------------------------------------

/// Forwards Estimate only, so DpOptimizer reaches it through the default
/// per-subset EstimateSubplans.
class PerSubsetEstimator : public CardinalityEstimator {
 public:
  explicit PerSubsetEstimator(const CardinalityEstimator& inner)
      : inner_(inner) {}
  std::string name() const override { return inner_.name(); }
  util::StatusOr<double> Estimate(const QueryGraph& q) const override {
    return inner_.Estimate(q);
  }

 private:
  const CardinalityEstimator& inner_;
};

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool SamePlan(const Plan& a, const Plan& b) {
  if (a.root != b.root || a.nodes.size() != b.nodes.size() ||
      !SameBits(a.estimated_cost, b.estimated_cost)) {
    return false;
  }
  for (size_t i = 0; i < a.nodes.size(); ++i) {
    const PlanNode& x = a.nodes[i];
    const PlanNode& y = b.nodes[i];
    if (x.subquery != y.subquery || x.left != y.left || x.right != y.right ||
        x.scan_edge != y.scan_edge ||
        !SameBits(x.estimated_cardinality, y.estimated_cardinality)) {
      return false;
    }
  }
  return true;
}

/// Seeded random connected patterns with 1-8 edges over labels
/// [0, num_labels): paths, stars and cycles with tails, each edge in a
/// random direction. Few labels make sub-patterns repeat.
std::vector<QueryGraph> RandomPatterns(uint64_t seed, graph::Label num_labels) {
  std::mt19937_64 rng(seed);
  auto pick = [&](uint32_t lo, uint32_t hi) {
    return std::uniform_int_distribution<uint32_t>(lo, hi)(rng);
  };
  auto edge = [&](query::QVertex a, query::QVertex b) -> query::QueryEdge {
    const graph::Label label = pick(0, num_labels - 1);
    return pick(0, 1) != 0 ? query::QueryEdge{a, b, label}
                           : query::QueryEdge{b, a, label};
  };
  std::vector<QueryGraph> out;
  for (int i = 0; i < 6; ++i) {  // paths
    const uint32_t k = pick(1, 8);
    std::vector<query::QueryEdge> edges;
    for (uint32_t v = 0; v < k; ++v) edges.push_back(edge(v, v + 1));
    out.push_back(Q(k + 1, std::move(edges)));
  }
  for (int i = 0; i < 4; ++i) {  // stars
    const uint32_t k = pick(2, 6);
    std::vector<query::QueryEdge> edges;
    for (uint32_t v = 1; v <= k; ++v) edges.push_back(edge(0, v));
    out.push_back(Q(k + 1, std::move(edges)));
  }
  for (int i = 0; i < 6; ++i) {  // cycles with tails
    const uint32_t c = pick(3, 6);
    const uint32_t t = pick(0, 8 - c);
    std::vector<query::QueryEdge> edges;
    for (uint32_t v = 0; v < c; ++v) edges.push_back(edge(v, (v + 1) % c));
    query::QVertex at = pick(0, c - 1);
    for (uint32_t v = c; v < c + t; ++v) {
      edges.push_back(edge(at, v));
      at = v;
    }
    out.push_back(Q(c + t, std::move(edges)));
  }
  return out;
}

class SubplanEquivalenceTest : public ::testing::Test {
 protected:
  SubplanEquivalenceTest() : g_(MakeGraph()) {}

  /// A small random graph over labels 0 and 1; label 2 is an empty
  /// relation.
  static Graph MakeGraph() {
    auto base = graph::GenerateGraph({.num_vertices = 40,
                                      .num_edges = 220,
                                      .num_labels = 2,
                                      .num_types = 1,
                                      .label_zipf_s = 1.0,
                                      .preferential_p = 0.4,
                                      .random_labels = true,
                                      .seed = 5});
    return std::move(Graph::Create(base->num_vertices(), 3, base->edges()))
        .value();
  }

  /// For every spec: EstimateSubplans over all connected subsets bit-equals
  /// a cold per-subset Estimate, and the DpOptimizer plan bit-equals the
  /// plan over the per-subset default.
  void ExpectEquivalent(const QueryGraph& q, const stats::MarkovTable& markov,
                        const ceg::CegOOptions& options) {
    const std::vector<query::EdgeSet> subsets = query::ConnectedSubsets(q);
    for (OptimisticSpec spec : AllOptimisticSpecs()) {
      spec.ceg_options = options;
      const OptimisticEstimator estimator(markov, spec);
      auto got = estimator.EstimateSubplans(q, subsets);
      ASSERT_TRUE(got.ok()) << got.status();
      ASSERT_EQ(got->size(), subsets.size());
      for (size_t i = 0; i < subsets.size(); ++i) {
        auto want = OptimisticEstimator(markov, spec)
                        .Estimate(q.ExtractPattern(subsets[i]));
        ASSERT_TRUE(want.ok()) << want.status();
        EXPECT_TRUE(SameBits((*got)[i], *want))
            << SpecName(spec) << " h=" << markov.h() << " subset "
            << subsets[i] << ": " << (*got)[i] << " vs " << *want;
      }
      auto plan = DpOptimizer(estimator).Optimize(q);
      auto reference =
          DpOptimizer(PerSubsetEstimator(estimator)).Optimize(q);
      ASSERT_TRUE(plan.ok() && reference.ok());
      EXPECT_TRUE(SamePlan(*plan, *reference)) << SpecName(spec);
    }
  }

  Graph g_;
};

TEST_F(SubplanEquivalenceTest, MatchesColdPerSubsetEstimates) {
  const std::vector<QueryGraph> patterns = RandomPatterns(17, 2);
  for (int h : {2, 3}) {
    const stats::MarkovTable markov(g_, h);
    for (bool size_h : {true, false}) {
      for (bool closing : {true, false}) {
        const ceg::CegOOptions options{size_h, closing};
        for (const QueryGraph& q : patterns) {
          ExpectEquivalent(q, markov, options);
        }
      }
    }
  }
}

TEST_F(SubplanEquivalenceTest, EmptyRelationSubplansAreZero) {
  const stats::MarkovTable markov(g_, 2);
  for (QueryGraph q : RandomPatterns(29, 2)) {
    // Move one edge onto the empty relation.
    std::vector<query::QueryEdge> edges = q.edges();
    const uint32_t empty_edge = q.num_edges() / 2;
    edges[empty_edge].label = 2;
    q = Q(q.num_vertices(), std::move(edges));
    ExpectEquivalent(q, markov, {});
    const std::vector<query::EdgeSet> subsets = query::ConnectedSubsets(q);
    auto got = OptimisticEstimator(markov, OptimisticSpec{})
                   .EstimateSubplans(q, subsets);
    ASSERT_TRUE(got.ok());
    for (size_t i = 0; i < subsets.size(); ++i) {
      if (subsets[i] & (query::EdgeSet{1} << empty_edge)) {
        EXPECT_TRUE(SameBits((*got)[i], 0.0));
      } else {
        EXPECT_GT((*got)[i], 0.0);
      }
    }
  }
}

TEST_F(SubplanEquivalenceTest, RegistryEstimatorSharesItAndBypassesCache) {
  engine::EstimationEngine engine(g_);
  const stats::MarkovTable& markov = engine.context().markov();
  for (const OptimisticSpec& spec : AllOptimisticSpecs()) {
    auto registry = engine.Estimator(SpecName(spec));
    ASSERT_TRUE(registry.ok());
    for (const QueryGraph& q : RandomPatterns(41, 2)) {
      const std::vector<query::EdgeSet> subsets = query::ConnectedSubsets(q);
      auto got = (*registry)->EstimateSubplans(q, subsets);
      auto want =
          OptimisticEstimator(markov, spec).EstimateSubplans(q, subsets);
      ASSERT_TRUE(got.ok() && want.ok());
      for (size_t i = 0; i < subsets.size(); ++i) {
        EXPECT_TRUE(SameBits((*got)[i], (*want)[i]));
      }
    }
  }
  EXPECT_EQ(engine.ceg_cache().size(), 0u);
}

TEST_F(SubplanEquivalenceTest, RejectsSubsetsThatAreNotConnectedSubplans) {
  const stats::MarkovTable markov(g_, 2);
  const QueryGraph q = Q(4, {{0, 1, 0}, {1, 2, 1}, {2, 3, 0}});
  const OptimisticEstimator estimator(markov, OptimisticSpec{});
  for (query::EdgeSet bad : {query::EdgeSet{0}, query::EdgeSet{0b101},
                             query::EdgeSet{0b1001}}) {
    const query::EdgeSet subsets[] = {0b1, bad};
    EXPECT_EQ(estimator.EstimateSubplans(q, subsets).status().code(),
              util::StatusCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace cegraph::planner
