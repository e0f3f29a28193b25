#ifndef CEGRAPH_QUERY_QUERY_GRAPH_H_
#define CEGRAPH_QUERY_QUERY_GRAPH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "util/status.h"

namespace cegraph::query {

/// Query-vertex identifier (a join attribute a_i in the paper's notation).
using QVertex = uint32_t;

/// One query edge: a base relation R_label(src, dst) in the join query.
struct QueryEdge {
  QVertex src = 0;
  QVertex dst = 0;
  graph::Label label = 0;

  friend bool operator==(const QueryEdge& a, const QueryEdge& b) = default;
};

/// A set of query edges, as a bitmask over edge indices. Supports queries of
/// up to 32 edges (the paper's largest query has 12).
using EdgeSet = uint32_t;

/// A set of query vertices (attributes), as a bitmask. Supports up to 32
/// query vertices.
using VertexSet = uint32_t;

/// An edge-labeled subgraph query Q = R_1 ⋈ ... ⋈ R_m over binary relations,
/// represented as a directed labeled pattern graph (§2 of the paper).
///
/// Vertices are the query's attributes; each edge (u --l--> v) is one
/// occurrence of relation R_l joined on attributes u (source column) and v
/// (destination column). Self-loops are allowed; parallel edges (even with
/// the same label) are distinct query edges.
class QueryGraph {
 public:
  /// Wildcard vertex-label constraint: matches any data vertex.
  static constexpr graph::VertexLabel kAnyVertexLabel = 0xFFFFFFFF;

  QueryGraph() = default;

  /// Builds a query. Fails if any endpoint is >= num_vertices.
  /// `vertex_constraints` optionally pins query vertices to data
  /// vertex-labels (kAnyVertexLabel = unconstrained); empty means all
  /// unconstrained. This is the paper's vertex-label extension (§6.1).
  static util::StatusOr<QueryGraph> Create(
      uint32_t num_vertices, std::vector<QueryEdge> edges,
      std::vector<graph::VertexLabel> vertex_constraints = {});

  /// The label constraint of query vertex `v`.
  graph::VertexLabel vertex_constraint(QVertex v) const {
    return vertex_constraints_.empty() ? kAnyVertexLabel
                                       : vertex_constraints_[v];
  }
  /// True iff any vertex carries a non-wildcard constraint.
  bool has_vertex_constraints() const {
    for (graph::VertexLabel c : vertex_constraints_) {
      if (c != kAnyVertexLabel) return true;
    }
    return false;
  }

  uint32_t num_vertices() const { return num_vertices_; }
  uint32_t num_edges() const { return static_cast<uint32_t>(edges_.size()); }
  const QueryEdge& edge(uint32_t i) const { return edges_[i]; }
  const std::vector<QueryEdge>& edges() const { return edges_; }

  /// Indices of edges incident to query vertex `v` (in either direction).
  const std::vector<uint32_t>& IncidentEdges(QVertex v) const {
    return incident_[v];
  }

  /// Degree of `v` counting both directions.
  uint32_t Degree(QVertex v) const {
    return static_cast<uint32_t>(incident_[v].size());
  }

  /// Bitmask containing every edge.
  EdgeSet AllEdges() const {
    return num_edges() == 32 ? ~EdgeSet{0}
                             : ((EdgeSet{1} << num_edges()) - 1);
  }

  /// Bitmask of vertices touched by the edges in `s`.
  VertexSet VerticesOf(EdgeSet s) const;

  /// True iff the edges in `s` form a connected sub-pattern (s must be
  /// non-empty). Connectivity is over the underlying undirected graph.
  bool IsConnectedSubset(EdgeSet s) const;

  /// True iff the whole query is connected.
  bool IsConnected() const;

  /// Number of independent cycles of the sub-pattern `s`:
  /// |s| - |V(s)| + #components. Zero iff the sub-pattern is acyclic.
  int CyclomaticNumber(EdgeSet s) const;

  /// True iff the query is acyclic (as an undirected multigraph).
  bool IsAcyclic() const { return CyclomaticNumber(AllEdges()) == 0; }

  /// Extracts the sub-pattern induced by edge set `s` with vertices
  /// renumbered densely. If `vertex_map` is non-null it receives, for each
  /// new vertex id, the original vertex id.
  QueryGraph ExtractPattern(EdgeSet s,
                            std::vector<QVertex>* vertex_map = nullptr) const;

  /// A string key identifying this query up to isomorphism for patterns
  /// with <= kCanonicalVertexLimit vertices; beyond the limit the key is
  /// "id:" plus the identity form (sorted edge list without renaming),
  /// which is sound for caching (equal keys => isomorphic) but may miss
  /// some isomorphic pairs. The Markov table only canonicalizes patterns of
  /// <= h+1 <= 4 vertices, well within the exact range.
  ///
  /// The exact code is the smallest, as a string, over all vertex
  /// renumberings of: per edge sorted by (src, dst, label), one byte each
  /// for src and dst ('0' + id), the decimal label and ';'; then, if any
  /// vertex is constrained, '|' and per vertex its decimal label or '*',
  /// and ','. It is found by a branch-and-bound search that gives new ids
  /// in order, compares the fixed prefix of the code with the best complete
  /// code as integer keys ordered like the text, and cuts a branch once
  /// its prefix can no longer be smaller; only the winning permutation is
  /// rendered. The string format is a persisted contract: codes key
  /// snapshot sections (Markov, degree, dispersion, feedback), the
  /// CegCache and the scorecard, and CodeTouchesChangedLabel parses them.
  ///
  /// The search is paid once per QueryGraph value: the code is memoized
  /// (thread-safely, and shared by copies of the query), which is what
  /// keeps repeated cache lookups — 9 optimistic estimators keying the
  /// same query into the engine's CegCache — from re-canonicalizing.
  std::string CanonicalCode() const;

  static constexpr uint32_t kCanonicalVertexLimit = 7;

 private:
  std::string ComputeCanonicalCode() const;

  uint32_t num_vertices_ = 0;
  std::vector<QueryEdge> edges_;
  std::vector<graph::VertexLabel> vertex_constraints_;
  std::vector<std::vector<uint32_t>> incident_;
  /// Memoized CanonicalCode(); immutable once published, shared across
  /// copies (a copy has the same structure, hence the same code). Accessed
  /// via atomic_load/atomic_store so concurrent readers are safe.
  mutable std::shared_ptr<const std::string> canonical_code_;
};

}  // namespace cegraph::query

#endif  // CEGRAPH_QUERY_QUERY_GRAPH_H_
