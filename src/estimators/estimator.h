#ifndef CEGRAPH_ESTIMATORS_ESTIMATOR_H_
#define CEGRAPH_ESTIMATORS_ESTIMATOR_H_

#include <span>
#include <string>
#include <vector>

#include "query/query_graph.h"
#include "util/status.h"

namespace cegraph {

/// The common interface of every cardinality estimator in this library
/// (optimistic CEG estimators, MOLP/CBS pessimistic bounds, Characteristic
/// Sets, SumRDF, WanderJoin, the bound-sketch refinement, and the
/// RDF-3X-style default). Estimates are output cardinalities of the natural
/// join the query denotes.
class CardinalityEstimator {
 public:
  virtual ~CardinalityEstimator() = default;

  /// Short stable identifier, e.g. "max-hop-max", "molp", "wj-0.25%".
  virtual std::string name() const = 0;

  /// Estimates |Q|. Implementations may fail (e.g. SumRDF times out on
  /// dense summaries, mirroring §6.4); harnesses drop such queries from
  /// every estimator's distribution, as the paper does.
  ///
  /// Concurrency: the parallel WorkloadRunner calls Estimate from several
  /// threads at once (distinct queries). Implementations must therefore
  /// be safe for concurrent calls — stateless per call, or guarding any
  /// mutable members. All in-tree estimators satisfy this; a stateful
  /// estimator can still be run with a serial WorkloadRunner.
  virtual util::StatusOr<double> Estimate(
      const query::QueryGraph& q) const = 0;

  /// Estimates every sub-plan of `q` a join optimizer asks about: entry i
  /// of the result is the estimate of the sub-query induced by edge subset
  /// `subsets[i]` (aligned with `subsets`, which are connected edge subsets
  /// of q), and equals Estimate(q.ExtractPattern(subsets[i])) bit for bit.
  /// Fails if any of those estimates fails. The default makes exactly
  /// those calls; estimators that can share work across the sub-plans of
  /// one query (the CEG_O optimistic ones) override it. Like Estimate, it
  /// must be safe for concurrent calls.
  virtual util::StatusOr<std::vector<double>> EstimateSubplans(
      const query::QueryGraph& q,
      std::span<const query::EdgeSet> subsets) const;
};

/// Convenience: true iff every relation referenced by `q` is non-empty in
/// a graph with `relation_size(label)` semantics. Estimators use this to
/// return an exact 0 for queries over empty relations (which otherwise
/// produce log-of-zero weights).
template <typename Graph>
bool AnyEmptyRelation(const Graph& g, const query::QueryGraph& q) {
  for (const query::QueryEdge& e : q.edges()) {
    if (g.RelationSize(e.label) == 0) return true;
  }
  return false;
}

}  // namespace cegraph

#endif  // CEGRAPH_ESTIMATORS_ESTIMATOR_H_
