#ifndef CEGRAPH_CEG_CEG_M_H_
#define CEGRAPH_CEG_CEG_M_H_

#include <vector>

#include "ceg/ceg.h"
#include "query/query_graph.h"
#include "stats/degree_stats.h"
#include "util/status.h"

namespace cegraph::ceg {

/// Construction options for CEG_M (§5.1).
struct CegMOptions {
  /// Include the weight-0 projection edges (from Y down to every X ⊂ Y by
  /// single-attribute removal; removals compose). Appendix A proves these
  /// never change the minimum path weight — the ablation test toggles this.
  bool include_projection_edges = true;
};

/// CEG_M: one node per attribute subset (query::VertexSet); node ids equal
/// the subset bitmask, so node_of_set[W] == W. Source = ∅, sink = A.
/// Extension edges strictly grow the node's set, so the projection edges
/// are exactly those whose `to` is a proper subset of their `from`.
struct BuiltCegM {
  Ceg ceg;
};

/// Builds the explicit MOLP CEG (§5.1): for every statistics relation and
/// every degree statistic deg(X, Y, R), an extension edge from each
/// W1 ⊇ X to W2 = W1 ∪ Y with weight deg(X, Y, R); plus projection edges.
/// The explicit build is quadratic in 2^|A| and intended for queries with
/// <= 14 attributes (every workload query qualifies); the MOLP *estimator*
/// additionally has an implicit-graph Dijkstra that never materializes
/// edges (see MolpMinLogWeight).
util::StatusOr<BuiltCegM> BuildCegM(const query::QueryGraph& q,
                                    const stats::DegreeStats& stats,
                                    const CegMOptions& options = {});

/// One step of a minimum-weight MOLP path (used by the bound sketch to
/// classify bound vs. unbound edges, §5.2.1).
struct MolpPathStep {
  query::VertexSet from = 0;
  query::VertexSet to = 0;
  /// The X of the deg(X, Y, R) statistic behind this step; 0 for unbound
  /// edges (|R| / projection-cardinality steps) and for projection steps.
  query::VertexSet x = 0;
  bool is_projection = false;
};

/// The minimum-weight (∅, A) path of CEG_M as an explicit step sequence.
/// Fails if the sink is unreachable.
util::StatusOr<std::vector<MolpPathStep>> MolpMinPath(
    const query::QueryGraph& q, const stats::DegreeStats& stats);

/// The MOLP bound of `q` in log2 domain — the weight of the minimum-weight
/// (∅, A) path of CEG_M (Theorem 5.1) — computed by Dijkstra over the
/// *implicit* CEG_M (neighbors generated from the statistics on the fly).
/// Returns +infinity if the sink is unreachable (insufficient statistics).
util::StatusOr<double> MolpMinLogWeight(const query::QueryGraph& q,
                                        const stats::DegreeStats& stats);

}  // namespace cegraph::ceg

#endif  // CEGRAPH_CEG_CEG_M_H_
