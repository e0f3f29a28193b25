#include "estimators/estimator.h"

namespace cegraph {

util::StatusOr<std::vector<double>> CardinalityEstimator::EstimateSubplans(
    const query::QueryGraph& q,
    std::span<const query::EdgeSet> subsets) const {
  std::vector<double> out;
  out.reserve(subsets.size());
  for (const query::EdgeSet s : subsets) {
    auto estimate = Estimate(q.ExtractPattern(s));
    if (!estimate.ok()) return estimate.status();
    out.push_back(*estimate);
  }
  return out;
}

}  // namespace cegraph
