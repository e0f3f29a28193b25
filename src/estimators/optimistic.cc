#include "estimators/optimistic.h"

#include <bit>
#include <cmath>

namespace cegraph {

std::string SpecName(const OptimisticSpec& spec) {
  std::string name;
  switch (spec.path_length) {
    case ceg::Ceg::HopMode::kMaxHop:
      name = "max-hop";
      break;
    case ceg::Ceg::HopMode::kMinHop:
      name = "min-hop";
      break;
    case ceg::Ceg::HopMode::kAllHops:
      name = "all-hops";
      break;
  }
  switch (spec.aggregator) {
    case Aggregator::kMaxAggr:
      name += "-max";
      break;
    case Aggregator::kMinAggr:
      name += "-min";
      break;
    case Aggregator::kAvgAggr:
      name += "-avg";
      break;
  }
  if (spec.ceg_kind == OptimisticCeg::kCegOcr) name += "@ocr";
  return name;
}

std::vector<OptimisticSpec> AllOptimisticSpecs(OptimisticCeg kind) {
  std::vector<OptimisticSpec> out;
  for (auto hop : {ceg::Ceg::HopMode::kMaxHop, ceg::Ceg::HopMode::kMinHop,
                   ceg::Ceg::HopMode::kAllHops}) {
    for (auto aggr :
         {Aggregator::kMinAggr, Aggregator::kAvgAggr, Aggregator::kMaxAggr}) {
      OptimisticSpec spec;
      spec.path_length = hop;
      spec.aggregator = aggr;
      spec.ceg_kind = kind;
      out.push_back(spec);
    }
  }
  return out;
}

util::StatusOr<ceg::BuiltCegO> OptimisticEstimator::BuildCeg(
    const query::QueryGraph& q) const {
  if (spec_.ceg_kind == OptimisticCeg::kCegOcr) {
    if (rates_ == nullptr) {
      return util::FailedPreconditionError(
          "CEG_OCR requires cycle-closing rates");
    }
    return ceg::BuildCegOcr(q, markov_, *rates_, spec_.ceg_options);
  }
  return ceg::BuildCegO(q, markov_, spec_.ceg_options);
}

util::StatusOr<double> OptimisticEstimator::EstimateFromAggregates(
    const ceg::Ceg::PathAggregates& aggregates, const OptimisticSpec& spec) {
  if (!aggregates.reachable) {
    return util::InternalError("CEG sink unreachable");
  }
  // Select the hop class.
  double min_log = aggregates.min_log;
  double max_log = aggregates.max_log;
  double avg = aggregates.avg_estimate;
  if (spec.path_length != ceg::Ceg::HopMode::kAllHops) {
    const auto& per_hop = aggregates.per_hop;
    const ceg::Ceg::HopAggregate& chosen =
        spec.path_length == ceg::Ceg::HopMode::kMaxHop ? per_hop.back()
                                                       : per_hop.front();
    min_log = chosen.min_log;
    max_log = chosen.max_log;
    avg = chosen.sum_estimates / chosen.path_count;
  }
  switch (spec.aggregator) {
    case Aggregator::kMaxAggr:
      return std::exp2(max_log);
    case Aggregator::kMinAggr:
      return std::exp2(min_log);
    case Aggregator::kAvgAggr:
      return avg;
  }
  return util::InternalError("unknown aggregator");
}

util::StatusOr<double> OptimisticEstimator::Estimate(
    const query::QueryGraph& q) const {
  if (q.num_edges() == 0 || !q.IsConnected()) {
    return util::InvalidArgumentError("query must be non-empty and connected");
  }
  if (AnyEmptyRelation(markov_.graph(), q)) return 0.0;
  auto built = BuildCeg(q);
  if (!built.ok()) return built.status();
  auto aggregates = built->ceg.ComputeAggregates();
  if (!aggregates.ok()) return aggregates.status();
  return EstimateFromAggregates(*aggregates, spec_);
}

util::StatusOr<std::vector<double>> OptimisticEstimator::EstimateSubplans(
    const query::QueryGraph& q,
    std::span<const query::EdgeSet> subsets) const {
  if (spec_.ceg_kind != OptimisticCeg::kCegO) {
    return CardinalityEstimator::EstimateSubplans(q, subsets);
  }
  const graph::Graph& g = markov_.graph();
  ceg::CegOBuilder builder(q, markov_, spec_.ceg_options);
  std::vector<double> out;
  out.reserve(subsets.size());
  for (const query::EdgeSet s : subsets) {
    if ((s & ~q.AllEdges()) != 0 || !q.IsConnectedSubset(s)) {
      return util::InvalidArgumentError(
          "sub-plan must be a connected edge subset of the query");
    }
    bool empty_relation = false;
    for (query::EdgeSet rest = s; rest != 0 && !empty_relation;
         rest &= rest - 1) {
      const graph::Label label = q.edge(std::countr_zero(rest)).label;
      empty_relation = g.RelationSize(label) == 0;
    }
    if (empty_relation) {
      out.push_back(0.0);
      continue;
    }
    auto built = builder.Build(s);
    if (!built.ok()) return built.status();
    auto aggregates = built->ceg.ComputeAggregates();
    if (!aggregates.ok()) return aggregates.status();
    auto estimate = EstimateFromAggregates(*aggregates, spec_);
    if (!estimate.ok()) return estimate.status();
    out.push_back(*estimate);
  }
  return out;
}

}  // namespace cegraph
