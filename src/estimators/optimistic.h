#ifndef CEGRAPH_ESTIMATORS_OPTIMISTIC_H_
#define CEGRAPH_ESTIMATORS_OPTIMISTIC_H_

#include <vector>

#include "ceg/ceg.h"
#include "ceg/ceg_o.h"
#include "ceg/ceg_ocr.h"
#include "estimators/estimator.h"
#include "stats/cycle_closing.h"
#include "stats/markov_table.h"

namespace cegraph {

/// The estimate aggregator over the considered paths (§4.2).
enum class Aggregator { kMaxAggr, kMinAggr, kAvgAggr };

/// Which optimistic CEG the estimator runs on.
enum class OptimisticCeg { kCegO, kCegOcr };

/// One point in the paper's 3x3 space of optimistic estimators: a
/// path-length choice (max-hop / min-hop / all-hops) combined with an
/// estimate aggregator (max / min / avg). The paper's named prior systems
/// map to: Markov tables [2] = max-hop; graph summaries [17] = min-hop;
/// graph catalogue [20] = min-hop-min.
struct OptimisticSpec {
  ceg::Ceg::HopMode path_length = ceg::Ceg::HopMode::kMaxHop;
  Aggregator aggregator = Aggregator::kMaxAggr;
  OptimisticCeg ceg_kind = OptimisticCeg::kCegO;
  ceg::CegOOptions ceg_options;
};

/// "max-hop-max", "all-hops-avg", ... (plus "@ocr" suffix on CEG_OCR).
std::string SpecName(const OptimisticSpec& spec);

/// The 9 estimators of §4.2 in the paper's presentation order
/// (path-length major: max-hop, min-hop, all-hops; aggregator minor).
std::vector<OptimisticSpec> AllOptimisticSpecs(
    OptimisticCeg kind = OptimisticCeg::kCegO);

/// A summary-based optimistic estimator (§4): builds CEG_O (or CEG_OCR)
/// for the query over a Markov table and aggregates path estimates per the
/// spec. Aggregation uses exact DP over the CEG (Ceg::ComputeAggregates),
/// so no path enumeration ever happens at estimation time.
class OptimisticEstimator : public CardinalityEstimator {
 public:
  /// `rates` is required iff spec.ceg_kind == kCegOcr.
  OptimisticEstimator(const stats::MarkovTable& markov, OptimisticSpec spec,
                      const stats::CycleClosingRates* rates = nullptr)
      : markov_(markov), spec_(spec), rates_(rates) {}

  std::string name() const override { return SpecName(spec_); }

  util::StatusOr<double> Estimate(const query::QueryGraph& q) const override;

  /// On CEG_O, one ceg::CegOBuilder for `q` and one CEG per sub-plan, with
  /// no extraction, canonical code or cache traffic; each estimate equals
  /// a cold Estimate of the extracted sub-query bit for bit (a sub-plan
  /// over an empty relation is exactly 0). CEG_OCR specs keep the
  /// per-subset default.
  util::StatusOr<std::vector<double>> EstimateSubplans(
      const query::QueryGraph& q,
      std::span<const query::EdgeSet> subsets) const override;

  /// Builds the spec's CEG for `q` (shared by Estimate, the P* oracle and
  /// the bound sketch).
  util::StatusOr<ceg::BuiltCegO> BuildCeg(const query::QueryGraph& q) const;

  /// Reduces precomputed path aggregates to the spec's estimate.
  static util::StatusOr<double> EstimateFromAggregates(
      const ceg::Ceg::PathAggregates& aggregates, const OptimisticSpec& spec);

 protected:
  const stats::MarkovTable& markov() const { return markov_; }
  const OptimisticSpec& spec() const { return spec_; }
  const stats::CycleClosingRates* rates() const { return rates_; }

 private:
  const stats::MarkovTable& markov_;
  OptimisticSpec spec_;
  const stats::CycleClosingRates* rates_;
};

}  // namespace cegraph

#endif  // CEGRAPH_ESTIMATORS_OPTIMISTIC_H_
