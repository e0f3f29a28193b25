#include <gtest/gtest.h>

#include <cmath>

#include "ceg/ceg.h"

namespace cegraph::ceg {
namespace {

/// Diamond CEG: src -> a (2), src -> b (3), a -> sink (5), b -> sink (7),
/// plus a long path src -> a -> c -> sink (a->c 1, c->sink 10).
Ceg MakeDiamond() {
  Ceg ceg;
  const uint32_t src = ceg.AddNode();
  const uint32_t a = ceg.AddNode();
  const uint32_t b = ceg.AddNode();
  const uint32_t c = ceg.AddNode();
  const uint32_t sink = ceg.AddNode();
  ceg.SetSource(src);
  ceg.SetSink(sink);
  ceg.AddEdge(src, a, 2);
  ceg.AddEdge(src, b, 3);
  ceg.AddEdge(a, sink, 5);
  ceg.AddEdge(b, sink, 7);
  ceg.AddEdge(a, c, 1);
  ceg.AddEdge(c, sink, 10);
  return ceg;
}

TEST(CegTest, AggregatesOverAllPaths) {
  Ceg ceg = MakeDiamond();
  auto agg = ceg.ComputeAggregates();
  ASSERT_TRUE(agg.ok());
  EXPECT_TRUE(agg->reachable);
  // Paths: 2*5=10, 3*7=21, 2*1*10=20.
  EXPECT_DOUBLE_EQ(agg->path_count, 3.0);
  EXPECT_NEAR(std::exp2(agg->min_log), 10.0, 1e-9);
  EXPECT_NEAR(std::exp2(agg->max_log), 21.0, 1e-9);
  EXPECT_NEAR(agg->avg_estimate, (10.0 + 21.0 + 20.0) / 3.0, 1e-9);
}

TEST(CegTest, PerHopAggregates) {
  Ceg ceg = MakeDiamond();
  auto agg = ceg.ComputeAggregates();
  ASSERT_TRUE(agg.ok());
  ASSERT_EQ(agg->per_hop.size(), 2u);
  const auto& two_hop = agg->per_hop[0];
  EXPECT_EQ(two_hop.hops, 2);
  EXPECT_DOUBLE_EQ(two_hop.path_count, 2.0);
  EXPECT_NEAR(std::exp2(two_hop.min_log), 10.0, 1e-9);
  EXPECT_NEAR(std::exp2(two_hop.max_log), 21.0, 1e-9);
  const auto& three_hop = agg->per_hop[1];
  EXPECT_EQ(three_hop.hops, 3);
  EXPECT_DOUBLE_EQ(three_hop.path_count, 1.0);
  EXPECT_NEAR(std::exp2(three_hop.min_log), 20.0, 1e-9);
}

TEST(CegTest, DijkstraMatchesMinPath) {
  Ceg ceg = MakeDiamond();
  auto min_log = ceg.MinLogWeightDijkstra();
  ASSERT_TRUE(min_log.ok());
  EXPECT_NEAR(std::exp2(*min_log), 10.0, 1e-9);
}

TEST(CegTest, EnumerateSimplePathsFindsAll) {
  Ceg ceg = MakeDiamond();
  bool truncated = true;
  auto paths = ceg.EnumerateSimplePaths(100, &truncated);
  EXPECT_FALSE(truncated);
  EXPECT_EQ(paths.size(), 3u);
  double min_est = 1e18, max_est = 0;
  for (const auto& p : paths) {
    min_est = std::min(min_est, std::exp2(p.log_weight));
    max_est = std::max(max_est, std::exp2(p.log_weight));
  }
  EXPECT_NEAR(min_est, 10.0, 1e-9);
  EXPECT_NEAR(max_est, 21.0, 1e-9);
}

TEST(CegTest, EnumerateRespectsCap) {
  Ceg ceg = MakeDiamond();
  bool truncated = false;
  auto paths = ceg.EnumerateSimplePaths(2, &truncated);
  EXPECT_TRUE(truncated);
  EXPECT_EQ(paths.size(), 2u);
}

TEST(CegTest, BestPathMaxHop) {
  Ceg ceg = MakeDiamond();
  auto path = ceg.BestPath(Ceg::HopMode::kMaxHop, /*maximize=*/true);
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(path->hops(), 3);
  EXPECT_NEAR(std::exp2(path->log_weight), 20.0, 1e-9);
}

TEST(CegTest, BestPathMinHopMin) {
  Ceg ceg = MakeDiamond();
  auto path = ceg.BestPath(Ceg::HopMode::kMinHop, /*maximize=*/false);
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(path->hops(), 2);
  EXPECT_NEAR(std::exp2(path->log_weight), 10.0, 1e-9);
}

TEST(CegTest, BestPathAllHopsMax) {
  Ceg ceg = MakeDiamond();
  auto path = ceg.BestPath(Ceg::HopMode::kAllHops, /*maximize=*/true);
  ASSERT_TRUE(path.ok());
  EXPECT_NEAR(std::exp2(path->log_weight), 21.0, 1e-9);
  // Edge sequence must be consistent: connected from source to sink.
  uint32_t cur = ceg.source();
  for (uint32_t ei : path->edge_indices) {
    EXPECT_EQ(ceg.edges()[ei].from, cur);
    cur = ceg.edges()[ei].to;
  }
  EXPECT_EQ(cur, ceg.sink());
}

TEST(CegTest, IsDagDetectsCycle) {
  Ceg ceg;
  const uint32_t a = ceg.AddNode();
  const uint32_t b = ceg.AddNode();
  ceg.AddEdge(a, b, 1);
  EXPECT_TRUE(ceg.IsDag());
  ceg.AddEdge(b, a, 1);
  EXPECT_FALSE(ceg.IsDag());
}

TEST(CegTest, AggregatesFailOnCyclicCeg) {
  Ceg ceg;
  const uint32_t a = ceg.AddNode();
  const uint32_t b = ceg.AddNode();
  ceg.AddEdge(a, b, 2);
  ceg.AddEdge(b, a, 2);
  ceg.SetSource(a);
  ceg.SetSink(b);
  EXPECT_FALSE(ceg.ComputeAggregates().ok());
}

TEST(CegTest, DijkstraWorksWithCycles) {
  Ceg ceg;
  const uint32_t a = ceg.AddNode();
  const uint32_t b = ceg.AddNode();
  const uint32_t c = ceg.AddNode();
  ceg.AddEdge(a, b, 4);
  ceg.AddEdge(b, a, 1);  // cycle back (weight 1 = log 0)
  ceg.AddEdge(b, c, 2);
  ceg.AddEdge(a, c, 16);
  ceg.SetSource(a);
  ceg.SetSink(c);
  auto min_log = ceg.MinLogWeightDijkstra();
  ASSERT_TRUE(min_log.ok());
  EXPECT_NEAR(std::exp2(*min_log), 8.0, 1e-9);
}

TEST(CegTest, UnreachableSink) {
  Ceg ceg;
  const uint32_t a = ceg.AddNode();
  const uint32_t b = ceg.AddNode();
  ceg.SetSource(a);
  ceg.SetSink(b);
  auto agg = ceg.ComputeAggregates();
  ASSERT_TRUE(agg.ok());
  EXPECT_FALSE(agg->reachable);
  auto min_log = ceg.MinLogWeightDijkstra();
  ASSERT_TRUE(min_log.ok());
  EXPECT_TRUE(std::isinf(*min_log));
  EXPECT_TRUE(ceg.EnumerateSimplePaths(10).empty());
  EXPECT_FALSE(ceg.BestPath(Ceg::HopMode::kMaxHop, true).ok());
}

TEST(CegTest, ZeroWeightEdgePropagates) {
  Ceg ceg;
  const uint32_t a = ceg.AddNode();
  const uint32_t b = ceg.AddNode();
  ceg.AddEdge(a, b, 0.0);
  ceg.SetSource(a);
  ceg.SetSink(b);
  auto agg = ceg.ComputeAggregates();
  ASSERT_TRUE(agg.ok());
  EXPECT_TRUE(agg->reachable);
  EXPECT_TRUE(std::isinf(agg->min_log));
  EXPECT_DOUBLE_EQ(agg->avg_estimate, 0.0);
}

TEST(CegTest, ParallelEdgesCountAsDistinctPaths) {
  Ceg ceg;
  const uint32_t a = ceg.AddNode();
  const uint32_t b = ceg.AddNode();
  ceg.AddEdge(a, b, 2);
  ceg.AddEdge(a, b, 8);
  ceg.SetSource(a);
  ceg.SetSink(b);
  auto agg = ceg.ComputeAggregates();
  ASSERT_TRUE(agg.ok());
  EXPECT_DOUBLE_EQ(agg->path_count, 2.0);
  EXPECT_NEAR(agg->avg_estimate, 5.0, 1e-9);
}

}  // namespace
}  // namespace cegraph::ceg
