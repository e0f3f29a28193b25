#include "query/subquery.h"

#include <algorithm>
#include <bit>

namespace cegraph::query {

std::vector<EdgeSet> ConnectedSubsets(const QueryGraph& q, int max_edges) {
  const uint32_t m = q.num_edges();
  const int limit = max_edges < 0 ? static_cast<int>(m) : max_edges;
  std::vector<EdgeSet> out;
  // Queries have <= 12 edges in practice, so a filtered scan over all 2^m
  // subsets is fast and simple.
  const EdgeSet all = q.AllEdges();
  for (EdgeSet s = 1; s <= all; ++s) {
    if (std::popcount(s) > limit) continue;
    if (q.IsConnectedSubset(s)) out.push_back(s);
    if (s == all) break;  // avoid overflow when m == 32
  }
  std::sort(out.begin(), out.end(), [](EdgeSet a, EdgeSet b) {
    const int pa = std::popcount(a), pb = std::popcount(b);
    if (pa != pb) return pa < pb;
    return a < b;
  });
  return out;
}

SubsetIndex::SubsetIndex(std::span<const EdgeSet> subsets) {
  int bits = 1;
  while ((size_t{1} << bits) < 2 * subsets.size()) ++bits;
  slots_.resize(size_t{1} << bits);
  mask_ = static_cast<uint32_t>(slots_.size() - 1);
  shift_ = 32 - bits;
  for (size_t pos = 0; pos < subsets.size(); ++pos) {
    const EdgeSet s = subsets[pos];
    uint32_t slot = (s * 0x9E3779B1u) >> shift_;
    while (slots_[slot].key != 0) slot = (slot + 1) & mask_;
    slots_[slot] = {s, static_cast<int>(pos)};
  }
}

std::vector<EdgeSet> ConnectedSubsetsOfSize(const QueryGraph& q, int k) {
  std::vector<EdgeSet> all = ConnectedSubsets(q, k);
  std::vector<EdgeSet> out;
  for (EdgeSet s : all) {
    if (std::popcount(s) == k) out.push_back(s);
  }
  return out;
}

namespace {

/// DFS cycle enumeration on the undirected multigraph. To avoid duplicates,
/// each cycle is only reported from its lowest-numbered edge and in one
/// rotational direction.
void FindCyclesFrom(const QueryGraph& q, uint32_t start_edge, QVertex start,
                    QVertex current, EdgeSet used,
                    std::vector<EdgeSet>& out) {
  for (uint32_t ei : q.IncidentEdges(current)) {
    if (ei < start_edge) continue;  // canonical: no edge below the start edge
    const EdgeSet bit = EdgeSet{1} << ei;
    if (used & bit) continue;
    const QueryEdge& e = q.edge(ei);
    const QVertex next = e.src == current ? e.dst : e.src;
    if (next == start) {
      out.push_back(used | bit);
      continue;
    }
    // Simple cycle: the next vertex must be unvisited. A vertex is visited
    // iff it touches a used edge (start handled above).
    bool visited = false;
    for (uint32_t uj = 0; uj < q.num_edges() && !visited; ++uj) {
      if (!(used & (EdgeSet{1} << uj))) continue;
      const QueryEdge& ue = q.edge(uj);
      visited = (ue.src == next || ue.dst == next);
    }
    if (visited) continue;
    FindCyclesFrom(q, start_edge, start, next, used | bit, out);
  }
}

}  // namespace

std::vector<EdgeSet> SimpleCycles(const QueryGraph& q) {
  std::vector<EdgeSet> out;
  for (uint32_t ei = 0; ei < q.num_edges(); ++ei) {
    const QueryEdge& e = q.edge(ei);
    if (e.src == e.dst) {
      out.push_back(EdgeSet{1} << ei);  // self-loop is a 1-cycle
      continue;
    }
    FindCyclesFrom(q, ei, e.src, e.dst, EdgeSet{1} << ei, out);
  }
  // Each cycle of length >= 3 is found twice (both directions); dedupe.
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

namespace {

/// A cycle (as an edge set) is chordless if no edge outside the cycle
/// connects two of its vertices.
bool IsChordless(const QueryGraph& q, EdgeSet cycle) {
  const VertexSet on_cycle = q.VerticesOf(cycle);
  for (uint32_t ei = 0; ei < q.num_edges(); ++ei) {
    const EdgeSet bit = EdgeSet{1} << ei;
    if (cycle & bit) continue;
    const QueryEdge& e = q.edge(ei);
    if ((on_cycle & (VertexSet{1} << e.src)) &&
        (on_cycle & (VertexSet{1} << e.dst))) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool HasChordlessCycleLongerThan(const QueryGraph& q, int k) {
  return LargestChordlessCycle(q) > k;
}

int LargestChordlessCycle(const QueryGraph& q) {
  int best = 0;
  for (EdgeSet cycle : SimpleCycles(q)) {
    if (!IsChordless(q, cycle)) continue;
    best = std::max(best, std::popcount(cycle));
  }
  return best;
}

std::vector<QVertex> FindIsomorphism(const QueryGraph& a,
                                     const QueryGraph& b) {
  if (a.num_vertices() != b.num_vertices() ||
      a.num_edges() != b.num_edges()) {
    return {};
  }
  const uint32_t n = a.num_vertices();
  std::vector<QVertex> perm(n);
  for (uint32_t i = 0; i < n; ++i) perm[i] = i;

  auto b_has = [&](QVertex s, QVertex d, graph::Label l) {
    for (const QueryEdge& e : b.edges()) {
      if (e.src == s && e.dst == d && e.label == l) return true;
    }
    return false;
  };
  // Multisets must match exactly; since |E(a)| == |E(b)| it suffices that
  // every edge of a maps onto a distinct edge of b. For the tiny patterns
  // here parallel identical edges do not occur after dedup, so a simple
  // membership check is sufficient.
  do {
    bool ok = true;
    for (QVertex v = 0; v < n && ok; ++v) {
      ok = a.vertex_constraint(v) == b.vertex_constraint(perm[v]);
    }
    for (const QueryEdge& e : a.edges()) {
      if (!ok) break;
      if (!b_has(perm[e.src], perm[e.dst], e.label)) {
        ok = false;
        break;
      }
    }
    if (ok) return perm;
  } while (std::next_permutation(perm.begin(), perm.end()));
  return {};
}

}  // namespace cegraph::query
