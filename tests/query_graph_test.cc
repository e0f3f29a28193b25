#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "query/query_graph.h"
#include "query/templates.h"

namespace cegraph::query {
namespace {

QueryGraph Triangle() {
  auto q = QueryGraph::Create(3, {{0, 1, 0}, {1, 2, 1}, {2, 0, 2}});
  return std::move(q).value();
}

TEST(QueryGraphTest, BasicAccessors) {
  QueryGraph q = Triangle();
  EXPECT_EQ(q.num_vertices(), 3u);
  EXPECT_EQ(q.num_edges(), 3u);
  EXPECT_EQ(q.edge(1).label, 1u);
  EXPECT_EQ(q.AllEdges(), 0b111u);
}

TEST(QueryGraphTest, IncidentEdges) {
  QueryGraph q = Triangle();
  EXPECT_EQ(q.IncidentEdges(0).size(), 2u);
  EXPECT_EQ(q.Degree(1), 2u);
}

TEST(QueryGraphTest, RejectsBadEndpoint) {
  auto q = QueryGraph::Create(2, {{0, 3, 0}});
  EXPECT_FALSE(q.ok());
}

TEST(QueryGraphTest, VerticesOf) {
  QueryGraph q = Triangle();
  EXPECT_EQ(q.VerticesOf(0b001), 0b011u);
  EXPECT_EQ(q.VerticesOf(0b011), 0b111u);
  EXPECT_EQ(q.VerticesOf(0), 0u);
}

TEST(QueryGraphTest, ConnectedSubsets) {
  QueryGraph q = Triangle();
  EXPECT_TRUE(q.IsConnectedSubset(0b001));
  EXPECT_TRUE(q.IsConnectedSubset(0b011));
  EXPECT_TRUE(q.IsConnectedSubset(0b111));
  EXPECT_FALSE(q.IsConnectedSubset(0));
}

TEST(QueryGraphTest, DisconnectedSubsetDetected) {
  // Path of 3 edges: subsets {e0, e2} are disconnected.
  QueryGraph q = PathShape(3);
  EXPECT_FALSE(q.IsConnectedSubset(0b101));
  EXPECT_TRUE(q.IsConnectedSubset(0b110));
}

TEST(QueryGraphTest, IsConnected) {
  EXPECT_TRUE(Triangle().IsConnected());
  auto q = QueryGraph::Create(4, {{0, 1, 0}, {2, 3, 0}});
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(q->IsConnected());
}

TEST(QueryGraphTest, CyclomaticNumber) {
  QueryGraph tri = Triangle();
  EXPECT_EQ(tri.CyclomaticNumber(tri.AllEdges()), 1);
  EXPECT_EQ(tri.CyclomaticNumber(0b011), 0);
  QueryGraph path = PathShape(4);
  EXPECT_EQ(path.CyclomaticNumber(path.AllEdges()), 0);
  QueryGraph k4 = CliqueK4Shape();
  EXPECT_EQ(k4.CyclomaticNumber(k4.AllEdges()), 3);
}

TEST(QueryGraphTest, IsAcyclic) {
  EXPECT_FALSE(Triangle().IsAcyclic());
  EXPECT_TRUE(PathShape(5).IsAcyclic());
  EXPECT_TRUE(StarShape(4).IsAcyclic());
  EXPECT_FALSE(CycleShape(6).IsAcyclic());
}

TEST(QueryGraphTest, ExtractPatternRenumbers) {
  // Path 0->1->2->3, extract edges {1,2} (vertices 1,2,3).
  QueryGraph q = PathShape(3);
  std::vector<QVertex> vmap;
  QueryGraph sub = q.ExtractPattern(0b110, &vmap);
  EXPECT_EQ(sub.num_edges(), 2u);
  EXPECT_EQ(sub.num_vertices(), 3u);
  ASSERT_EQ(vmap.size(), 3u);
  // vmap maps new ids to original ids {1,2,3} in some order.
  std::vector<QVertex> sorted = vmap;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<QVertex>{1, 2, 3}));
}

TEST(QueryGraphTest, CanonicalCodeInvariantUnderRelabeling) {
  // Same triangle with permuted vertex ids must share a canonical code.
  auto q1 = QueryGraph::Create(3, {{0, 1, 5}, {1, 2, 6}, {2, 0, 7}});
  auto q2 = QueryGraph::Create(3, {{1, 2, 5}, {2, 0, 6}, {0, 1, 7}});
  ASSERT_TRUE(q1.ok());
  ASSERT_TRUE(q2.ok());
  EXPECT_EQ(q1->CanonicalCode(), q2->CanonicalCode());
}

TEST(QueryGraphTest, CanonicalCodeSeparatesDirections) {
  auto fwd = QueryGraph::Create(3, {{0, 1, 0}, {1, 2, 1}});
  auto bwd = QueryGraph::Create(3, {{0, 1, 0}, {2, 1, 1}});
  ASSERT_TRUE(fwd.ok());
  ASSERT_TRUE(bwd.ok());
  EXPECT_NE(fwd->CanonicalCode(), bwd->CanonicalCode());
}

TEST(QueryGraphTest, CanonicalCodeSeparatesLabels) {
  auto a = QueryGraph::Create(2, {{0, 1, 0}});
  auto b = QueryGraph::Create(2, {{0, 1, 1}});
  EXPECT_NE(a->CanonicalCode(), b->CanonicalCode());
}

TEST(QueryGraphTest, CanonicalCodePathReversalIsomorphism) {
  // A->B path and its mirror written with reversed vertex numbering.
  auto p1 = QueryGraph::Create(3, {{0, 1, 3}, {1, 2, 4}});
  auto p2 = QueryGraph::Create(3, {{2, 1, 3}, {1, 0, 4}});
  EXPECT_EQ(p1->CanonicalCode(), p2->CanonicalCode());
}

TEST(QueryGraphTest, LargePatternFallsBackToIdentityCode) {
  QueryGraph big = PathShape(9);  // 10 vertices > kCanonicalVertexLimit
  EXPECT_EQ(big.CanonicalCode().substr(0, 3), "id:");
}

// The code pins below are persisted keys (Markov, degree, dispersion and
// feedback snapshot sections, CegCache, scorecard): any format drift must
// fail here.
TEST(QueryGraphTest, CanonicalCodeGoldenStrings) {
  auto code = [](uint32_t n, std::vector<QueryEdge> edges) {
    return QueryGraph::Create(n, std::move(edges)).value().CanonicalCode();
  };
  // "12;" sorts before "1;": the digit beats the terminator.
  EXPECT_EQ(code(3, {{0, 1, 1}, {0, 2, 12}}), "0112;021;");
  EXPECT_EQ(code(3, {{0, 1, 9}, {1, 2, 10}}), "0110;209;");
  EXPECT_EQ(code(3, {{0, 1, 25}, {1, 2, 38}, {0, 2, 2}}), "0125;022;1238;");
  // job_star4.
  EXPECT_EQ(code(5, {{0, 1, 19}, {0, 2, 17}, {3, 0, 11}, {0, 4, 32}}),
            "0111;1217;1319;1432;");
}

// Brute-force reference: renders the code under every vertex permutation
// and keeps the smallest string.
std::string ReferenceCanonicalCode(const QueryGraph& q) {
  const uint32_t n = q.num_vertices();
  // Token texts, rendered once: "<label>;" per edge, "<label>," or "*,"
  // per vertex.
  std::vector<std::string> label_text;
  for (const QueryEdge& e : q.edges()) {
    label_text.push_back(std::to_string(e.label) + ";");
  }
  std::vector<std::string> constraint_text;
  for (uint32_t v = 0; q.has_vertex_constraints() && v < n; ++v) {
    const graph::VertexLabel c = q.vertex_constraint(v);
    constraint_text.push_back(
        (c == QueryGraph::kAnyVertexLabel ? "*" : std::to_string(c)) + ",");
  }
  std::vector<uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  std::vector<uint32_t> inverse(n);
  std::vector<std::array<uint32_t, 4>> mapped;  // src, dst, label, edge
  std::string code;
  std::string best;
  bool first = true;
  do {
    mapped.clear();
    for (uint32_t i = 0; i < q.num_edges(); ++i) {
      const QueryEdge& e = q.edge(i);
      mapped.push_back({perm[e.src], perm[e.dst], e.label, i});
    }
    std::sort(mapped.begin(), mapped.end());
    code.clear();
    for (const auto& t : mapped) {
      code += static_cast<char>('0' + t[0]);
      code += static_cast<char>('0' + t[1]);
      code += label_text[t[3]];
    }
    if (!constraint_text.empty()) {
      for (uint32_t v = 0; v < n; ++v) inverse[perm[v]] = v;
      code += '|';
      for (uint32_t i = 0; i < n; ++i) code += constraint_text[inverse[i]];
    }
    if (first || code < best) best = code;
    first = false;
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

TEST(QueryGraphTest, CanonicalCodeMatchesBruteForceReference) {
  constexpr graph::Label kLabels[] = {0, 1, 9, 10, 12, 100, 123};
  constexpr graph::VertexLabel kAny = QueryGraph::kAnyVertexLabel;
  constexpr graph::VertexLabel kConstraints[] = {kAny, kAny, 0,  1,  9,
                                                 10,   12,   100, 123};
  std::mt19937 rng(20221013);
  auto pick = [&rng](uint32_t bound) {
    return std::uniform_int_distribution<uint32_t>(0, bound - 1)(rng);
  };
  // Vertex counts 1..7, weighted 1:2:3:3:3:2:1 to bound the reference's
  // n! cost (about 670 patterns of 7 vertices).
  constexpr uint32_t kVertexCounts[] = {1, 2, 2, 3, 3, 3, 4, 4,
                                        4, 5, 5, 5, 6, 6, 7};
  for (int trial = 0; trial < 10000; ++trial) {
    const uint32_t n = kVertexCounts[pick(std::size(kVertexCounts))];
    const uint32_t m = pick(13);
    // Few labels make symmetric patterns (ties the search must break).
    const uint32_t label_pool = 1 + pick(std::size(kLabels));
    std::vector<QueryEdge> edges;
    for (uint32_t i = 0; i < m; ++i) {
      if (i > 0 && pick(6) == 0) {
        edges.push_back(edges[pick(i)]);  // parallel copy
        continue;
      }
      edges.push_back({pick(n), pick(n), kLabels[pick(label_pool)]});
    }
    std::vector<graph::VertexLabel> constraints;
    if (pick(2) == 0) {
      const uint32_t pool = pick(4) == 0 ? 2 : std::size(kConstraints);
      for (uint32_t v = 0; v < n; ++v) {
        constraints.push_back(kConstraints[pick(pool)]);
      }
    }
    const QueryGraph q = QueryGraph::Create(n, edges, constraints).value();
    const std::string code = q.CanonicalCode();
    ASSERT_EQ(code, ReferenceCanonicalCode(q)) << "trial " << trial;

    // Renumber the vertices and shuffle the edge order.
    std::vector<uint32_t> perm(n);
    std::iota(perm.begin(), perm.end(), 0);
    std::shuffle(perm.begin(), perm.end(), rng);
    std::vector<QueryEdge> moved;
    for (const QueryEdge& e : edges) {
      moved.push_back({perm[e.src], perm[e.dst], e.label});
    }
    std::shuffle(moved.begin(), moved.end(), rng);
    std::vector<graph::VertexLabel> moved_constraints(constraints.size());
    for (uint32_t v = 0; v < constraints.size(); ++v) {
      moved_constraints[perm[v]] = constraints[v];
    }
    const QueryGraph twin =
        QueryGraph::Create(n, std::move(moved), std::move(moved_constraints))
            .value();
    ASSERT_EQ(twin.CanonicalCode(), code) << "trial " << trial;
  }
}

}  // namespace
}  // namespace cegraph::query
