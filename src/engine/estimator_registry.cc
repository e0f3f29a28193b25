#include "engine/estimator_registry.h"

#include <cmath>
#include <cstdlib>
#include <utility>

#include "estimators/bound_sketch.h"
#include "estimators/characteristic_sets.h"
#include "estimators/default_rdf3x.h"
#include "estimators/dispersion_path.h"
#include "estimators/max_entropy.h"
#include "estimators/optimistic.h"
#include "estimators/pessimistic.h"
#include "estimators/sumrdf.h"
#include "estimators/wander_join.h"

namespace cegraph::engine {

namespace {

/// An optimistic estimator whose per-query CEG build goes through the
/// context's CegCache: nine specs over the same (query, CEG kind) pay for
/// one BuildCegO/BuildCegOcr + ComputeAggregates between them, instead of
/// nine. Semantically identical to OptimisticEstimator::Estimate. Sub-plan
/// estimates (EstimateSubplans) are OptimisticEstimator's and bypass the
/// cache.
class CachedOptimisticEstimator : public OptimisticEstimator {
 public:
  // The shared structures are resolved once here (the context outlives
  // the estimator by contract), so Estimate never touches the context
  // mutex on the hot path.
  CachedOptimisticEstimator(const EstimationContext& context,
                            OptimisticSpec spec)
      : OptimisticEstimator(context.markov(),
                            WithOptions(spec, context.options().ceg_options),
                            spec.ceg_kind == OptimisticCeg::kCegOcr
                                ? &context.cycle_closing_rates()
                                : nullptr),
        cache_(context.ceg_cache()) {}

  util::StatusOr<double> Estimate(const query::QueryGraph& q) const override {
    if (q.num_edges() == 0 || !q.IsConnected()) {
      return util::InvalidArgumentError(
          "query must be non-empty and connected");
    }
    if (AnyEmptyRelation(markov().graph(), q)) return 0.0;
    auto entry = cache_.GetOrBuild(q, markov(), spec().ceg_kind, rates(),
                                   spec().ceg_options);
    if (!entry.ok()) return entry.status();
    if (!(*entry)->aggregates_ok) return (*entry)->aggregates_status;
    return EstimateFromAggregates((*entry)->aggregates, spec());
  }

 private:
  static OptimisticSpec WithOptions(OptimisticSpec spec,
                                    const ceg::CegOOptions& options) {
    spec.ceg_options = options;
    return spec;
  }

  CegCache& cache_;
};

bool ParseWanderJoinName(const std::string& name, double* ratio) {
  // "wj-<pct>%", e.g. "wj-0.25%".
  if (name.size() < 5 || name.compare(0, 3, "wj-") != 0 ||
      name.back() != '%') {
    return false;
  }
  char* end = nullptr;
  const std::string pct = name.substr(3, name.size() - 4);
  const double value = std::strtod(pct.c_str(), &end);
  if (end == nullptr || *end != '\0' || !std::isfinite(value) ||
      value <= 0 || value > 100) {
    return false;
  }
  *ratio = value / 100.0;
  return true;
}

bool ParseBoundSketchName(const std::string& name, int* budget,
                          BoundSketchEstimator::Inner* inner) {
  // "bs<K>(max-hop-max)" or "bs<K>(molp)".
  if (name.size() < 5 || name.compare(0, 2, "bs") != 0 ||
      name.back() != ')') {
    return false;
  }
  const size_t open = name.find('(');
  if (open == std::string::npos || open <= 2) return false;
  char* end = nullptr;
  const std::string k = name.substr(2, open - 2);
  const long value = std::strtol(k.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || value < 1 || value > 4096) {
    return false;
  }
  const std::string inner_name = name.substr(open + 1, name.size() - open - 2);
  if (inner_name == "max-hop-max") {
    *inner = BoundSketchEstimator::Inner::kOptimisticMaxHopMax;
  } else if (inner_name == "molp") {
    *inner = BoundSketchEstimator::Inner::kMolp;
  } else {
    return false;
  }
  *budget = static_cast<int>(value);
  return true;
}

EstimatorRegistry BuildDefaultRegistry() {
  EstimatorRegistry registry;

  // The 9 optimistic estimators on CEG_O and CEG_OCR, CEG-cache backed.
  for (OptimisticCeg kind : {OptimisticCeg::kCegO, OptimisticCeg::kCegOcr}) {
    for (const OptimisticSpec& spec : AllOptimisticSpecs(kind)) {
      registry.Register(
          SpecName(spec),
          [spec](const EstimationContext& context)
              -> util::StatusOr<EstimatorRegistry::EstimatorPtr> {
            return EstimatorRegistry::EstimatorPtr(
                new CachedOptimisticEstimator(context, spec));
          });
    }
  }

  // Pessimistic bounds.
  registry.Register(
      "molp",
      [](const EstimationContext& context)
          -> util::StatusOr<EstimatorRegistry::EstimatorPtr> {
        return EstimatorRegistry::EstimatorPtr(new MolpEstimator(
            context.stats_catalog(), /*include_two_joins=*/false));
      });
  registry.Register(
      "molp+2j",
      [](const EstimationContext& context)
          -> util::StatusOr<EstimatorRegistry::EstimatorPtr> {
        return EstimatorRegistry::EstimatorPtr(new MolpEstimator(
            context.stats_catalog(), /*include_two_joins=*/true));
      });
  registry.Register(
      "cbs",
      [](const EstimationContext& context)
          -> util::StatusOr<EstimatorRegistry::EstimatorPtr> {
        return EstimatorRegistry::EstimatorPtr(
            new CbsEstimator(context.stats_catalog()));
      });

  // Baselines.
  registry.Register(
      "cs",
      [](const EstimationContext& context)
          -> util::StatusOr<EstimatorRegistry::EstimatorPtr> {
        return EstimatorRegistry::EstimatorPtr(
            new CharacteristicSetsEstimator(context.characteristic_sets()));
      });
  registry.Register(
      "sumrdf",
      [](const EstimationContext& context)
          -> util::StatusOr<EstimatorRegistry::EstimatorPtr> {
        return EstimatorRegistry::EstimatorPtr(new SumRdfEstimator(
            context.summary_graph(), context.options().sumrdf_step_budget));
      });
  registry.Register(
      "rdf3x-default",
      [](const EstimationContext& context)
          -> util::StatusOr<EstimatorRegistry::EstimatorPtr> {
        return EstimatorRegistry::EstimatorPtr(
            new DefaultRdf3xEstimator(context.graph()));
      });

  // §7/§8 future-work estimators over the same Markov statistics.
  registry.Register(
      "min-cv-path",
      [](const EstimationContext& context)
          -> util::StatusOr<EstimatorRegistry::EstimatorPtr> {
        return EstimatorRegistry::EstimatorPtr(new DispersionGuidedEstimator(
            context.markov(), context.dispersion_catalog(),
            DispersionGuidedEstimator::Objective::kMinCv));
      });
  registry.Register(
      "min-entropy-path",
      [](const EstimationContext& context)
          -> util::StatusOr<EstimatorRegistry::EstimatorPtr> {
        return EstimatorRegistry::EstimatorPtr(new DispersionGuidedEstimator(
            context.markov(), context.dispersion_catalog(),
            DispersionGuidedEstimator::Objective::kMinEntropy));
      });
  registry.Register(
      "max-entropy",
      [](const EstimationContext& context)
          -> util::StatusOr<EstimatorRegistry::EstimatorPtr> {
        return EstimatorRegistry::EstimatorPtr(
            new MaxEntropyEstimator(context.markov()));
      });

  // WanderJoin family (and its default ratio as an exact name).
  auto make_wj = [](const std::string& name, const EstimationContext& context)
      -> util::StatusOr<EstimatorRegistry::EstimatorPtr> {
    double ratio = 0;
    if (!ParseWanderJoinName(name, &ratio)) {
      return util::InvalidArgumentError("bad WanderJoin name: " + name);
    }
    WanderJoinOptions options;
    options.sampling_ratio = ratio;
    return EstimatorRegistry::EstimatorPtr(
        new WanderJoinEstimator(context.graph(), options));
  };
  registry.Register("wj-0.25%",
                    [make_wj](const EstimationContext& context) {
                      return make_wj("wj-0.25%", context);
                    });
  registry.RegisterPattern(
      "wj-<pct>%",
      [](const std::string& name) {
        double ratio = 0;
        return ParseWanderJoinName(name, &ratio);
      },
      make_wj);

  // Bound-sketch family (defaults as exact names).
  auto make_bs = [](const std::string& name, const EstimationContext& context)
      -> util::StatusOr<EstimatorRegistry::EstimatorPtr> {
    int budget = 0;
    BoundSketchEstimator::Inner inner;
    if (!ParseBoundSketchName(name, &budget, &inner)) {
      return util::InvalidArgumentError("bad bound-sketch name: " + name);
    }
    BoundSketchEstimator::Options options;
    options.budget_k = budget;
    options.markov_h = context.options().markov_h;
    return EstimatorRegistry::EstimatorPtr(
        new BoundSketchEstimator(context.graph(), inner, options));
  };
  for (const char* name : {"bs4(max-hop-max)", "bs4(molp)"}) {
    registry.Register(name, [make_bs, name](const EstimationContext& context) {
      return make_bs(name, context);
    });
  }
  registry.RegisterPattern(
      "bs<K>(max-hop-max|molp)",
      [](const std::string& name) {
        int budget = 0;
        BoundSketchEstimator::Inner inner;
        return ParseBoundSketchName(name, &budget, &inner);
      },
      make_bs);

  return registry;
}

}  // namespace

const EstimatorRegistry& EstimatorRegistry::Default() {
  static const EstimatorRegistry* registry =
      new EstimatorRegistry(BuildDefaultRegistry());
  return *registry;
}

void EstimatorRegistry::Register(std::string name, Factory factory) {
  factories_[std::move(name)] = std::move(factory);
}

void EstimatorRegistry::RegisterPattern(
    std::string description, std::function<bool(const std::string&)> probe,
    PatternFactory factory) {
  patterns_.push_back(
      {std::move(description), std::move(probe), std::move(factory)});
}

bool EstimatorRegistry::Contains(const std::string& name) const {
  if (factories_.count(name) > 0) return true;
  for (const Pattern& pattern : patterns_) {
    if (pattern.probe(name)) return true;
  }
  return false;
}

util::StatusOr<EstimatorRegistry::EstimatorPtr> EstimatorRegistry::Create(
    const std::string& name, const EstimationContext& context) const {
  auto it = factories_.find(name);
  if (it != factories_.end()) return it->second(context);
  for (const Pattern& pattern : patterns_) {
    if (pattern.probe(name)) return pattern.factory(name, context);
  }
  return util::NotFoundError("no estimator registered under \"" + name +
                             "\"");
}

std::vector<std::string> EstimatorRegistry::RegisteredNames() const {
  std::vector<std::string> names;
  names.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) names.push_back(name);
  return names;
}

std::vector<std::string> EstimatorRegistry::pattern_descriptions() const {
  std::vector<std::string> out;
  out.reserve(patterns_.size());
  for (const Pattern& pattern : patterns_) out.push_back(pattern.description);
  return out;
}

}  // namespace cegraph::engine
