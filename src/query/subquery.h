#ifndef CEGRAPH_QUERY_SUBQUERY_H_
#define CEGRAPH_QUERY_SUBQUERY_H_

#include <cstdint>
#include <span>
#include <vector>

#include "query/query_graph.h"

namespace cegraph::query {

/// Enumerates all connected non-empty edge subsets of `q` with at most
/// `max_edges` edges (all sizes if max_edges < 0). The result is sorted by
/// popcount then value, so smaller sub-queries come first. These subsets are
/// exactly the vertices of the paper's CEG_O (§4.2).
std::vector<EdgeSet> ConnectedSubsets(const QueryGraph& q, int max_edges = -1);

/// Position lookup over a list of distinct non-empty edge subsets, such as
/// ConnectedSubsets' result: an open-addressing table at most half full,
/// so a hit or a miss costs a few probes and no allocation.
class SubsetIndex {
 public:
  explicit SubsetIndex(std::span<const EdgeSet> subsets);

  /// Position of `s` in the list, or -1 if it is not there.
  int Find(EdgeSet s) const {
    for (uint32_t slot = (s * 0x9E3779B1u) >> shift_;;
         slot = (slot + 1) & mask_) {
      if (slots_[slot].key == s) return slots_[slot].pos;
      if (slots_[slot].key == 0) return -1;
    }
  }

 private:
  struct Slot {
    EdgeSet key = 0;  ///< 0 marks an empty slot
    int pos = -1;
  };
  std::vector<Slot> slots_;
  uint32_t mask_ = 0;
  int shift_ = 0;
};

/// Enumerates the connected subsets of size exactly `k`.
std::vector<EdgeSet> ConnectedSubsetsOfSize(const QueryGraph& q, int k);

/// Returns all simple cycles of the underlying undirected multigraph of `q`,
/// each as an EdgeSet. Cycles are found by DFS enumeration; intended for the
/// small query graphs of this domain (<= 12 edges).
std::vector<EdgeSet> SimpleCycles(const QueryGraph& q);

/// True iff `q` contains a *chordless* cycle with more than `k` edges.
/// The paper's Fig. 10 uses cyclic queries whose only cycles are triangles
/// (no chordless cycle longer than 3); Fig. 11 uses the complement.
bool HasChordlessCycleLongerThan(const QueryGraph& q, int k);

/// Length of the largest chordless cycle (0 if acyclic).
int LargestChordlessCycle(const QueryGraph& q);

/// Finds an isomorphism from `a` to `b`: a vertex bijection `map` such that
/// (u --l--> v) is an edge of `a` iff (map[u] --l--> map[v]) is an edge of
/// `b`. Returns an empty vector if none exists. Brute force over vertex
/// permutations; intended for the small patterns cached by the statistics
/// catalogs (<= 4 vertices).
std::vector<QVertex> FindIsomorphism(const QueryGraph& a,
                                     const QueryGraph& b);

}  // namespace cegraph::query

#endif  // CEGRAPH_QUERY_SUBQUERY_H_
