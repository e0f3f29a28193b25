#ifndef CEGRAPH_PLANNER_DP_OPTIMIZER_H_
#define CEGRAPH_PLANNER_DP_OPTIMIZER_H_

#include <vector>

#include "estimators/estimator.h"
#include "query/query_graph.h"
#include "util/status.h"

namespace cegraph::planner {

/// A binary join plan over the query's edges.
struct PlanNode {
  query::EdgeSet subquery = 0;  ///< edges covered by this node
  int left = -1;                ///< child index, -1 for leaf scans
  int right = -1;
  uint32_t scan_edge = 0;       ///< for leaves: the scanned query edge
  double estimated_cardinality = 0;
};

struct Plan {
  std::vector<PlanNode> nodes;
  int root = -1;
  /// Sum of the estimated cardinalities of all internal nodes — the
  /// optimizer's objective (C_out cost model).
  double estimated_cost = 0;
};

/// A Selinger-style dynamic-programming join optimizer over connected
/// sub-queries, with *injected* cardinality estimates — the stand-in for
/// RDF-3X's DP optimizer in the paper's plan-quality experiment (§6.6:
/// "the cardinalities are injected inside the system's dynamic
/// programming-based join optimizer"). The cost of a plan is the sum of
/// estimated intermediate-result cardinalities (C_out), so different
/// estimators produce different join orders.
///
/// Optimize makes one CardinalityEstimator::EstimateSubplans call per
/// query, over every connected sub-query, so an estimator that shares work
/// across sub-plans (the CEG_O optimistic ones build their query-level
/// scaffolding once) plans faster. The DP tables are flat vectors aligned
/// with query::ConnectedSubsets, looked up through one query::SubsetIndex.
class DpOptimizer {
 public:
  explicit DpOptimizer(const CardinalityEstimator& estimator)
      : estimator_(estimator) {}

  /// Computes the minimum-estimated-cost bushy plan without Cartesian
  /// products. Fails if the estimator fails on any connected sub-query.
  util::StatusOr<Plan> Optimize(const query::QueryGraph& q) const;

 private:
  const CardinalityEstimator& estimator_;
};

}  // namespace cegraph::planner

#endif  // CEGRAPH_PLANNER_DP_OPTIMIZER_H_
