#include "estimators/characteristic_sets.h"

#include <algorithm>
#include <vector>

namespace cegraph {

util::StatusOr<double> CharacteristicSetsEstimator::Estimate(
    const query::QueryGraph& q) const {
  // An isolated vertex belongs to no star, which would underflow the
  // occurrence count below.
  if (q.num_edges() == 0 || !q.IsConnected()) {
    return util::InvalidArgumentError("empty or disconnected query");
  }
  // Decompose into out-stars by source vertex: sorted by (src, dst), each
  // star is one contiguous run, visited in ascending center order.
  std::vector<query::QueryEdge> edges = q.edges();
  std::sort(edges.begin(), edges.end(),
            [](const query::QueryEdge& a, const query::QueryEdge& b) {
              return a.src != b.src ? a.src < b.src : a.dst < b.dst;
            });

  double estimate = 1.0;
  size_t star_vertex_occurrences = 0;
  std::vector<graph::Label> labels;
  for (size_t i = 0; i < edges.size();) {
    const query::QVertex center = edges[i].src;
    labels.clear();
    // Distinct vertices of this star: the center plus one leaf per edge
    // (leaves that coincide in the query still count once).
    size_t verts = 1;
    for (; i < edges.size() && edges[i].src == center; ++i) {
      if (edges[i].dst != center &&
          (labels.empty() || edges[i].dst != edges[i - 1].dst)) {
        ++verts;
      }
      labels.push_back(edges[i].label);
    }
    estimate *= cs_.EstimateStar(labels);
    star_vertex_occurrences += verts;
  }
  // Each query vertex mentioned by more than one star is an independence
  // join: correct by 1/|V| per extra occurrence.
  const size_t dup = star_vertex_occurrences - q.num_vertices();
  for (size_t i = 0; i < dup; ++i) {
    estimate /= static_cast<double>(cs_.num_graph_vertices());
  }
  return estimate;
}

}  // namespace cegraph
