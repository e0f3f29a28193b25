#include "estimators/bound_sketch.h"

#include <bit>
#include <cmath>
#include <string>
#include <vector>

#include "ceg/ceg_m.h"
#include "ceg/ceg_o.h"
#include "estimators/optimistic.h"
#include "estimators/pessimistic.h"
#include "stats/degree_stats.h"
#include "stats/markov_table.h"
#include "util/random.h"

namespace cegraph {

namespace {

using graph::VertexId;
using query::QueryGraph;
using query::QVertex;
using query::VertexSet;

/// Join attributes: query vertices incident to >= 2 edges.
VertexSet JoinAttributes(const QueryGraph& q) {
  VertexSet s = 0;
  for (QVertex v = 0; v < q.num_vertices(); ++v) {
    if (q.Degree(v) >= 2) s |= VertexSet{1} << v;
  }
  return s;
}

}  // namespace

std::string BoundSketchEstimator::name() const {
  const std::string inner =
      inner_ == Inner::kOptimisticMaxHopMax ? "max-hop-max" : "molp";
  return "bs" + std::to_string(options_.budget_k) + "(" + inner + ")";
}

util::StatusOr<double> BoundSketchEstimator::InnerEstimate(
    const graph::Graph& g, const query::QueryGraph& q) const {
  if (inner_ == Inner::kOptimisticMaxHopMax) {
    stats::MarkovTable markov(g, options_.markov_h);
    OptimisticSpec spec;  // defaults: max-hop, max-aggr, CEG_O
    OptimisticEstimator estimator(markov, spec);
    return estimator.Estimate(q);
  }
  stats::StatsCatalog catalog(g);
  MolpEstimator estimator(catalog, options_.molp_two_joins);
  return estimator.Estimate(q);
}

util::StatusOr<VertexSet> BoundSketchEstimator::PartitionAttributes(
    const query::QueryGraph& q) const {
  const VertexSet join_attrs = JoinAttributes(q);
  VertexSet bound_ext_attrs = 0;

  if (inner_ == Inner::kOptimisticMaxHopMax) {
    stats::MarkovTable markov(g_, options_.markov_h);
    auto built = ceg::BuildCegO(q, markov);
    if (!built.ok()) return built.status();
    auto path = built->ceg.BestPath(ceg::Ceg::HopMode::kMaxHop,
                                    /*maximize=*/true);
    if (!path.ok()) return path.status();
    const std::vector<query::EdgeSet>& subset_of_node =
        built->subset_of_node;
    for (size_t i = 0; i < path->edge_indices.size(); ++i) {
      const ceg::Ceg::Edge& e = built->ceg.edges()[path->edge_indices[i]];
      const VertexSet before = q.VerticesOf(subset_of_node[e.from]);
      const VertexSet after = q.VerticesOf(subset_of_node[e.to]);
      // The first hop (from the empty sub-query) is the unbound edge; all
      // later hops condition on the existing sub-query, i.e. are bound.
      if (i > 0) bound_ext_attrs |= after & ~before;
    }
  } else {
    stats::StatsCatalog catalog(g_);
    auto stats =
        stats::DegreeStats::Build(catalog, q, options_.molp_two_joins);
    if (!stats.ok()) return stats.status();
    auto path = ceg::MolpMinPath(q, *stats);
    if (!path.ok()) return path.status();
    for (const ceg::MolpPathStep& step : *path) {
      if (step.is_projection) continue;
      if (step.x != 0) bound_ext_attrs |= step.to & ~step.from;
    }
  }
  return join_attrs & ~bound_ext_attrs;
}

util::StatusOr<double> BoundSketchEstimator::Estimate(
    const query::QueryGraph& q) const {
  if (q.num_edges() == 0 || !q.IsConnected()) {
    return util::InvalidArgumentError("query must be non-empty and connected");
  }
  if (AnyEmptyRelation(g_, q)) return 0.0;
  if (options_.budget_k <= 1) return InnerEstimate(g_, q);

  auto s_attrs = PartitionAttributes(q);
  if (!s_attrs.ok()) return s_attrs.status();
  const int z = std::popcount(*s_attrs);
  if (z == 0) return InnerEstimate(g_, q);

  const int buckets = std::max(
      1, static_cast<int>(std::floor(
             std::pow(static_cast<double>(options_.budget_k), 1.0 / z))));
  if (buckets <= 1) return InnerEstimate(g_, q);

  // Attribute order for combo digits.
  std::vector<QVertex> s_list;
  for (QVertex v = 0; v < q.num_vertices(); ++v) {
    if (*s_attrs & (VertexSet{1} << v)) s_list.push_back(v);
  }

  // The rewritten query gives each query edge its own relation (label =
  // edge index), since two edges sharing a data label can require
  // different partition filters.
  std::vector<query::QueryEdge> rewritten_edges = q.edges();
  for (uint32_t i = 0; i < rewritten_edges.size(); ++i) {
    rewritten_edges[i].label = i;
  }
  auto rewritten =
      QueryGraph::Create(q.num_vertices(), std::move(rewritten_edges));
  if (!rewritten.ok()) return rewritten.status();

  auto bucket_of = [&](VertexId v) {
    return static_cast<int>(util::MixHash(v) % buckets);
  };

  const int64_t num_combos =
      static_cast<int64_t>(std::pow(buckets, z) + 0.5);
  double total = 0;
  std::vector<int> digits(z, 0);
  for (int64_t combo = 0; combo < num_combos; ++combo) {
    {
      int64_t c = combo;
      for (int i = 0; i < z; ++i) {
        digits[i] = static_cast<int>(c % buckets);
        c /= buckets;
      }
    }
    // Build the partition graph for this combo.
    std::vector<graph::Edge> edges;
    for (uint32_t ei = 0; ei < q.num_edges(); ++ei) {
      const query::QueryEdge& qe = q.edge(ei);
      int src_bucket = -1, dst_bucket = -1;
      for (int i = 0; i < z; ++i) {
        if (s_list[i] == qe.src) src_bucket = digits[i];
        if (s_list[i] == qe.dst) dst_bucket = digits[i];
      }
      for (const graph::Edge& de : g_.RelationEdges(qe.label)) {
        if (src_bucket >= 0 && bucket_of(de.src) != src_bucket) continue;
        if (dst_bucket >= 0 && bucket_of(de.dst) != dst_bucket) continue;
        edges.push_back({de.src, de.dst, ei});
      }
    }
    auto part_graph =
        graph::Graph::Create(g_.num_vertices(), q.num_edges(),
                             std::move(edges));
    if (!part_graph.ok()) return part_graph.status();
    if (AnyEmptyRelation(*part_graph, *rewritten)) continue;  // estimate 0
    auto est = InnerEstimate(*part_graph, *rewritten);
    if (!est.ok()) return est.status();
    total += *est;
  }
  return total;
}

}  // namespace cegraph
