#include "planner/dp_optimizer.h"

#include <bit>
#include <functional>
#include <limits>
#include <map>

#include "query/subquery.h"

namespace cegraph::planner {

namespace {

using query::EdgeSet;

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

util::StatusOr<Plan> DpOptimizer::Optimize(const query::QueryGraph& q) const {
  if (q.num_edges() == 0 || !q.IsConnected()) {
    return util::InvalidArgumentError("query must be non-empty and connected");
  }

  const std::vector<EdgeSet> subsets = query::ConnectedSubsets(q);

  // Estimated cardinality per connected sub-query.
  std::map<EdgeSet, double> card;
  for (EdgeSet s : subsets) {
    // Single-edge scans go through the estimator too (every estimator is
    // exact on single relations or close to it).
    auto est = estimator_.Estimate(q.ExtractPattern(s));
    if (!est.ok()) return est.status();
    card[s] = *est;
  }

  struct Best {
    double cost = kInf;
    EdgeSet left = 0;  // 0 => leaf
  };
  std::map<EdgeSet, Best> best;

  for (EdgeSet s : subsets) {
    if (std::popcount(s) == 1) {
      best[s] = {0.0, 0};
      continue;
    }
    Best b;
    // Enumerate proper subsets; require both sides connected and disjoint
    // (they partition s, so no Cartesian products arise: s is connected).
    for (EdgeSet s1 = (s - 1) & s; s1 != 0; s1 = (s1 - 1) & s) {
      const EdgeSet s2 = s & ~s1;
      if (s1 > s2) continue;  // symmetric split: visit once
      auto it1 = best.find(s1);
      auto it2 = best.find(s2);
      if (it1 == best.end() || it2 == best.end()) continue;
      const double cost = it1->second.cost + it2->second.cost + card[s];
      if (cost < b.cost) {
        b.cost = cost;
        b.left = s1;
      }
    }
    if (b.left == 0) {
      return util::InternalError("no connected split found");
    }
    best[s] = b;
  }

  // Materialize the plan tree.
  Plan plan;
  std::map<EdgeSet, int> node_of;
  // Recursive build via explicit stack (post-order).
  std::function<int(EdgeSet)> build = [&](EdgeSet s) -> int {
    auto it = node_of.find(s);
    if (it != node_of.end()) return it->second;
    PlanNode node;
    node.subquery = s;
    node.estimated_cardinality = card[s];
    const Best& b = best[s];
    if (b.left == 0) {
      node.scan_edge = static_cast<uint32_t>(std::countr_zero(s));
    } else {
      node.left = build(b.left);
      node.right = build(s & ~b.left);
    }
    plan.nodes.push_back(node);
    const int id = static_cast<int>(plan.nodes.size() - 1);
    node_of[s] = id;
    return id;
  };
  plan.root = build(q.AllEdges());
  plan.estimated_cost = best[q.AllEdges()].cost;
  return plan;
}

}  // namespace cegraph::planner
