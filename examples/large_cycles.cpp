// Large cycles: why CEG_O overestimates cyclic queries and how CEG_OCR
// repairs it (the paper's §4.3 on a single 4-cycle query).
//
// CEG_O can only price a 4-cycle by composing *path* statistics — it is
// really estimating the 4-path that visits the same labels — and since
// real graphs have far more paths than cycles, it overshoots. CEG_OCR
// replaces the cycle-closing edge's weight with a sampled closing
// probability.
#include <cmath>
#include <iostream>

#include "ceg/ceg_o.h"
#include "ceg/ceg_ocr.h"
#include "engine/engine.h"
#include "estimators/optimistic.h"
#include "graph/datasets.h"
#include "matching/matcher.h"
#include "query/templates.h"
#include "query/workload.h"
#include "util/table_printer.h"

int main() {
  using namespace cegraph;
  auto g = *graph::MakeDataset("hetionet_like");

  query::WorkloadOptions options;
  options.instances_per_template = 1;
  options.seed = 4242;
  auto workload = *query::GenerateWorkload(
      g, {{"cyc4", query::CycleShape(4)}}, options);
  const auto& wq = workload[0];
  std::cout << "4-cycle query on hetionet_like, true cardinality "
            << wq.true_cardinality << "\n\n";

  engine::ContextOptions context_options;
  context_options.markov_h = 3;
  engine::EstimationEngine engine(g, context_options);

  util::TablePrinter table({"CEG", "estimator", "estimate", "q-error"});
  for (const auto kind : {OptimisticCeg::kCegO, OptimisticCeg::kCegOcr}) {
    for (auto aggr : {Aggregator::kMinAggr, Aggregator::kMaxAggr}) {
      OptimisticSpec spec;
      spec.ceg_kind = kind;
      spec.aggregator = aggr;
      auto estimator = engine.Estimator(SpecName(spec));
      if (!estimator.ok()) continue;
      auto est = (*estimator)->Estimate(wq.query);
      if (!est.ok()) continue;
      const double q =
          std::max(wq.true_cardinality / *est, *est / wq.true_cardinality);
      table.AddRow({kind == OptimisticCeg::kCegO ? "CEG_O" : "CEG_OCR",
                    SpecName(spec), util::TablePrinter::Num(*est),
                    util::TablePrinter::Num(q)});
    }
  }
  table.Print(std::cout);

  // Show the rewritten closing edge explicitly (low-level API on the same
  // shared statistics the engine used).
  auto ocr = *ceg::BuildCegOcr(wq.query, engine.context().markov(),
                               engine.context().cycle_closing_rates());
  std::cout << "\nCEG_OCR edges whose weight became a closing "
               "probability:\n";
  for (uint32_t ei = 0; ei < ocr.ceg.num_edges(); ++ei) {
    const auto kind = ocr.edge_provenance[ei].kind;
    if (kind == ceg::BuiltCegO::EdgeKind::kClosingRate) {
      std::cout << "  " << ceg::EdgeText(ocr, ei) << "  weight="
                << std::exp2(ocr.ceg.edges()[ei].log_weight) << "\n";
    }
  }
  std::cout << "\nOn CEG_O even the *minimum* path overestimates; CEG_OCR "
               "prices the closing edge as a probability (< 1), and its "
               "max-weight path becomes the accurate pick again (§6.2.2)."
            << "\n";
  return 0;
}
