#include <gtest/gtest.h>

#include <bit>

#include "query/subquery.h"
#include "query/templates.h"

namespace cegraph::query {
namespace {

TEST(ConnectedSubsetsTest, PathCounts) {
  // A path with k edges has k*(k+1)/2 connected (contiguous) subsets.
  for (int k = 1; k <= 6; ++k) {
    QueryGraph q = PathShape(k);
    EXPECT_EQ(ConnectedSubsets(q).size(),
              static_cast<size_t>(k * (k + 1) / 2))
        << "k=" << k;
  }
}

TEST(ConnectedSubsetsTest, StarAllSubsetsConnected) {
  // Every non-empty subset of a star is connected: 2^k - 1.
  QueryGraph q = StarShape(4);
  EXPECT_EQ(ConnectedSubsets(q).size(), 15u);
}

TEST(ConnectedSubsetsTest, MaxEdgesLimit) {
  QueryGraph q = StarShape(5);
  auto subsets = ConnectedSubsets(q, 2);
  for (EdgeSet s : subsets) EXPECT_LE(std::popcount(s), 2);
  EXPECT_EQ(subsets.size(), 5u + 10u);  // C(5,1) + C(5,2)
}

TEST(ConnectedSubsetsTest, SortedBySize) {
  QueryGraph q = PathShape(4);
  auto subsets = ConnectedSubsets(q);
  for (size_t i = 1; i < subsets.size(); ++i) {
    EXPECT_LE(std::popcount(subsets[i - 1]), std::popcount(subsets[i]));
  }
}

TEST(SubsetIndexTest, FindsEveryPositionAndNothingElse) {
  for (int k : {0, 1, 3, 7}) {
    const QueryGraph q = k == 0 ? PathShape(1) : StarShape(k);
    std::vector<EdgeSet> subsets = ConnectedSubsets(q);
    if (k == 0) subsets.clear();
    const SubsetIndex index(subsets);
    for (size_t pos = 0; pos < subsets.size(); ++pos) {
      EXPECT_EQ(index.Find(subsets[pos]), static_cast<int>(pos));
    }
    EXPECT_EQ(index.Find(0), -1);
    EXPECT_EQ(index.Find(EdgeSet{1} << 20), -1);
  }
  // A path's non-contiguous subsets are absent.
  const std::vector<EdgeSet> path = ConnectedSubsets(PathShape(4));
  const SubsetIndex index(path);
  EXPECT_EQ(index.Find(0b101), -1);
  EXPECT_EQ(index.Find(0b1011), -1);
}

TEST(ConnectedSubsetsOfSizeTest, TriangleSizeTwo) {
  QueryGraph q = CycleShape(3);
  EXPECT_EQ(ConnectedSubsetsOfSize(q, 2).size(), 3u);
  EXPECT_EQ(ConnectedSubsetsOfSize(q, 3).size(), 1u);
}

TEST(SimpleCyclesTest, TriangleHasOneCycle) {
  QueryGraph q = CycleShape(3);
  auto cycles = SimpleCycles(q);
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycles[0], q.AllEdges());
}

TEST(SimpleCyclesTest, PathHasNone) {
  EXPECT_TRUE(SimpleCycles(PathShape(5)).empty());
}

TEST(SimpleCyclesTest, K4CycleCount) {
  // K4 has 4 triangles and 3 four-cycles = 7 simple cycles.
  QueryGraph q = CliqueK4Shape();
  EXPECT_EQ(SimpleCycles(q).size(), 7u);
}

TEST(SimpleCyclesTest, DiamondCycles) {
  // 4-cycle + chord: two triangles + the 4-cycle = 3 simple cycles.
  QueryGraph q = DiamondShape();
  EXPECT_EQ(SimpleCycles(q).size(), 3u);
}

TEST(ChordlessTest, DiamondIsTrianglesOnly) {
  // The 4-cycle in the diamond has a chord, so the largest chordless cycle
  // is a triangle.
  EXPECT_EQ(LargestChordlessCycle(DiamondShape()), 3);
  EXPECT_FALSE(HasChordlessCycleLongerThan(DiamondShape(), 3));
}

TEST(ChordlessTest, K4IsTrianglesOnly) {
  EXPECT_EQ(LargestChordlessCycle(CliqueK4Shape()), 3);
}

TEST(ChordlessTest, PlainCyclesAreChordless) {
  EXPECT_EQ(LargestChordlessCycle(CycleShape(4)), 4);
  EXPECT_EQ(LargestChordlessCycle(CycleShape(6)), 6);
  EXPECT_TRUE(HasChordlessCycleLongerThan(CycleShape(6), 3));
}

TEST(ChordlessTest, AcyclicHasNone) {
  EXPECT_EQ(LargestChordlessCycle(PathShape(4)), 0);
  EXPECT_EQ(LargestChordlessCycle(StarShape(4)), 0);
}

TEST(ChordlessTest, SquareTwoTrianglesHasLargeCycle) {
  // The square sides 2-3 and 3-0 have no apex, so some 4-cycle formed with
  // apexes may have chords, but the bare square is chordless? Side 0-1 and
  // 1-2 have apexes; edges 0-1 and 1-2 are chords of the hexagon through
  // apexes, and the square 0-1-2-3 itself is chordless (no edge 0-2 or
  // 1-3).
  EXPECT_TRUE(HasChordlessCycleLongerThan(SquareTwoTrianglesShape(), 3));
}

TEST(ChordlessTest, BowtieTrianglesOnly) {
  EXPECT_EQ(LargestChordlessCycle(BowtieShape()), 3);
}

TEST(ChordlessTest, PetalHasLargeCycle) {
  // Two parallel 3-paths form a chordless 6-cycle.
  EXPECT_EQ(LargestChordlessCycle(PetalShape(2, 3)), 6);
}

}  // namespace
}  // namespace cegraph::query
