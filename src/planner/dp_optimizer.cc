#include "planner/dp_optimizer.h"

#include <bit>
#include <limits>

#include "query/subquery.h"

namespace cegraph::planner {

namespace {

using query::EdgeSet;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The cheapest way found to compute one connected sub-query.
struct Best {
  double cost = kInf;
  EdgeSet left = 0;  // 0 => leaf
};

/// Appends the plan subtree of `s` (post-order, left child first) and
/// returns its node index.
int Materialize(EdgeSet s, const query::SubsetIndex& index,
                const std::vector<double>& card, const std::vector<Best>& best,
                Plan& plan) {
  const int pos = index.Find(s);
  PlanNode node;
  node.subquery = s;
  node.estimated_cardinality = card[pos];
  const EdgeSet left = best[pos].left;
  if (left == 0) {
    node.scan_edge = static_cast<uint32_t>(std::countr_zero(s));
  } else {
    node.left = Materialize(left, index, card, best, plan);
    node.right = Materialize(s & ~left, index, card, best, plan);
  }
  plan.nodes.push_back(node);
  return static_cast<int>(plan.nodes.size() - 1);
}

}  // namespace

util::StatusOr<Plan> DpOptimizer::Optimize(const query::QueryGraph& q) const {
  if (q.num_edges() == 0 || !q.IsConnected()) {
    return util::InvalidArgumentError("query must be non-empty and connected");
  }

  // Estimated cardinality per connected sub-query, in one call so the
  // estimator can share work across them. Single-edge scans go through
  // the estimator too (every estimator is exact on single relations or
  // close to it).
  const std::vector<EdgeSet> subsets = query::ConnectedSubsets(q);
  auto card = estimator_.EstimateSubplans(q, subsets);
  if (!card.ok()) return card.status();
  const query::SubsetIndex index(subsets);

  // Subsets come smallest first, so both halves of a split are final
  // before the subset itself.
  std::vector<Best> best(subsets.size());
  for (size_t pos = 0; pos < subsets.size(); ++pos) {
    const EdgeSet s = subsets[pos];
    if (std::popcount(s) == 1) {
      best[pos] = {0.0, 0};
      continue;
    }
    Best b;
    // Enumerate proper subsets; require both sides connected and disjoint
    // (they partition s, so no Cartesian products arise: s is connected).
    for (EdgeSet s1 = (s - 1) & s; s1 != 0; s1 = (s1 - 1) & s) {
      const EdgeSet s2 = s & ~s1;
      if (s1 > s2) continue;  // symmetric split: visit once
      const int p1 = index.Find(s1);
      if (p1 < 0) continue;
      const int p2 = index.Find(s2);
      if (p2 < 0) continue;
      const double cost = best[p1].cost + best[p2].cost + (*card)[pos];
      if (cost < b.cost) {
        b.cost = cost;
        b.left = s1;
      }
    }
    if (b.left == 0) {
      return util::InternalError("no connected split found");
    }
    best[pos] = b;
  }

  Plan plan;
  plan.root = Materialize(q.AllEdges(), index, *card, best, plan);
  plan.estimated_cost = best[index.Find(q.AllEdges())].cost;
  return plan;
}

}  // namespace cegraph::planner
