#include "ceg/ceg_m.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <queue>

namespace cegraph::ceg {

namespace {

using query::VertexSet;

/// One usable degree statistic: from any W ⊇ x, reach W ∪ y at cost
/// log_weight.
struct ExtensionStat {
  VertexSet x;
  VertexSet y;
  double log_weight;
};

std::vector<ExtensionStat> CollectExtensionStats(
    const stats::DegreeStats& stats) {
  std::vector<ExtensionStat> out;
  for (const stats::StatRelation& rel : stats.relations()) {
    for (const auto& [key, value] : rel.deg) {
      const auto& [x, y] = key;
      if (x == y) continue;  // weight log(1) = 0 and adds nothing
      if (value <= 0) continue;
      out.push_back({x, y, std::log2(value)});
    }
  }
  return out;
}

}  // namespace

util::StatusOr<BuiltCegM> BuildCegM(const query::QueryGraph& q,
                                    const stats::DegreeStats& stats,
                                    const CegMOptions& options) {
  const uint32_t n = q.num_vertices();
  if (n > 14) {
    return util::InvalidArgumentError(
        "explicit CEG_M limited to 14 attributes; use MolpMinLogWeight");
  }
  const VertexSet full = (n == 32) ? ~VertexSet{0} : ((VertexSet{1} << n) - 1);

  BuiltCegM out;
  for (VertexSet w = 0; w <= full; ++w) {
    out.ceg.AddNode();
  }
  out.ceg.SetSource(0);
  out.ceg.SetSink(full);

  const std::vector<ExtensionStat> exts = CollectExtensionStats(stats);
  for (VertexSet w1 = 0; w1 <= full; ++w1) {
    for (const ExtensionStat& ext : exts) {
      if ((ext.x & w1) != ext.x) continue;  // need W1 ⊇ X
      const VertexSet w2 = w1 | ext.y;
      if (w2 == w1) continue;
      out.ceg.AddEdge(w1, w2, std::exp2(ext.log_weight));
    }
    if (options.include_projection_edges && w1 != 0) {
      // Single-attribute removals; chains of them realize every projection.
      for (uint32_t v = 0; v < n; ++v) {
        const VertexSet bit = VertexSet{1} << v;
        if (w1 & bit) {
          out.ceg.AddEdge(w1, w1 & ~bit, 1.0);
        }
      }
    }
  }
  return out;
}

namespace {

struct DijkstraOutput {
  double log_weight;
  std::vector<MolpPathStep> steps;
};

util::StatusOr<DijkstraOutput> RunMolpDijkstra(
    const query::QueryGraph& q, const stats::DegreeStats& stats,
    bool track_path) {
  const uint32_t n = q.num_vertices();
  if (n >= 31) {
    return util::InvalidArgumentError("too many attributes");
  }
  const VertexSet full = (VertexSet{1} << n) - 1;
  const std::vector<ExtensionStat> exts = CollectExtensionStats(stats);

  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(static_cast<size_t>(full) + 1, kInf);
  struct Parent {
    VertexSet from = 0;
    VertexSet x = 0;
    bool is_projection = false;
  };
  std::vector<Parent> parent(track_path ? dist.size() : 0);
  dist[0] = 0;
  using Item = std::pair<double, VertexSet>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  heap.push({0, 0});
  while (!heap.empty()) {
    const auto [d, w] = heap.top();
    heap.pop();
    if (d > dist[w]) continue;
    if (w == full) break;
    for (const ExtensionStat& ext : exts) {
      if ((ext.x & w) != ext.x) continue;
      const VertexSet w2 = w | ext.y;
      if (w2 == w) continue;
      const double nd = d + ext.log_weight;
      if (nd < dist[w2]) {
        dist[w2] = nd;
        if (track_path) parent[w2] = {w, ext.x, false};
        heap.push({nd, w2});
      }
    }
    for (uint32_t v = 0; v < n; ++v) {
      const VertexSet bit = VertexSet{1} << v;
      if (!(w & bit)) continue;
      const VertexSet w2 = w & ~bit;
      if (d < dist[w2]) {
        dist[w2] = d;
        if (track_path) parent[w2] = {w, 0, true};
        heap.push({d, w2});
      }
    }
  }

  DijkstraOutput out;
  out.log_weight = dist[full];
  if (track_path && !std::isinf(dist[full])) {
    VertexSet cur = full;
    while (cur != 0) {
      const Parent& p = parent[cur];
      out.steps.push_back({p.from, cur, p.x, p.is_projection});
      cur = p.from;
    }
    std::reverse(out.steps.begin(), out.steps.end());
  }
  return out;
}

}  // namespace

util::StatusOr<std::vector<MolpPathStep>> MolpMinPath(
    const query::QueryGraph& q, const stats::DegreeStats& stats) {
  auto result = RunMolpDijkstra(q, stats, /*track_path=*/true);
  if (!result.ok()) return result.status();
  if (std::isinf(result->log_weight)) {
    return util::NotFoundError("MOLP sink unreachable");
  }
  return result->steps;
}

util::StatusOr<double> MolpMinLogWeight(const query::QueryGraph& q,
                                        const stats::DegreeStats& stats) {
  auto result = RunMolpDijkstra(q, stats, /*track_path=*/false);
  if (!result.ok()) return result.status();
  return result->log_weight;
}


}  // namespace cegraph::ceg
