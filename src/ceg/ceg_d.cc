#include "ceg/ceg_d.h"

#include <bit>
#include <cmath>
#include <functional>

namespace cegraph::ceg {

namespace {

using query::VertexSet;

}  // namespace

std::vector<Cover> EnumerateCovers(const query::QueryGraph& q,
                                   const stats::DegreeStats& stats,
                                   bool cbs_choices_only) {
  const VertexSet full =
      (q.num_vertices() >= 32) ? ~VertexSet{0}
                               : ((VertexSet{1} << q.num_vertices()) - 1);
  const auto& relations = stats.relations();

  // Per-relation options: subsets of the relation's attributes. CBS allows
  // covering 0, |A_i|-1 or |A_i| attributes (Appendix B); the general form
  // allows any subset.
  std::vector<std::vector<VertexSet>> options(relations.size());
  for (size_t i = 0; i < relations.size(); ++i) {
    const VertexSet attrs = relations[i].attrs;
    const int n = std::popcount(attrs);
    for (VertexSet sub = attrs;; sub = (sub - 1) & attrs) {
      const int k = std::popcount(sub);
      const bool allowed =
          !cbs_choices_only || k == 0 || k == n || k == n - 1;
      if (allowed) options[i].push_back(sub);
      if (sub == 0) break;
    }
  }

  std::vector<Cover> covers;
  Cover current;
  current.covered.assign(relations.size(), 0);
  std::function<void(size_t, VertexSet)> rec = [&](size_t i,
                                                   VertexSet covered) {
    // Prune: remaining relations must be able to cover the rest.
    if (i == relations.size()) {
      if (covered == full) covers.push_back(current);
      return;
    }
    VertexSet remaining_possible = covered;
    for (size_t j = i; j < relations.size(); ++j) {
      remaining_possible |= relations[j].attrs;
    }
    if (remaining_possible != full) return;
    for (VertexSet choice : options[i]) {
      current.covered[i] = choice;
      rec(i + 1, covered | choice);
    }
    current.covered[i] = 0;
  };
  rec(0, 0);
  return covers;
}

util::StatusOr<BuiltCegM> BuildCegD(const query::QueryGraph& q,
                                    const stats::DegreeStats& stats,
                                    const Cover& cover) {
  const uint32_t n = q.num_vertices();
  if (n > 14) {
    return util::InvalidArgumentError("CEG_D limited to 14 attributes");
  }
  if (cover.covered.size() != stats.relations().size()) {
    return util::InvalidArgumentError("cover arity mismatch");
  }
  const VertexSet full = (VertexSet{1} << n) - 1;

  BuiltCegM out;
  for (VertexSet w = 0; w <= full; ++w) {
    out.ceg.AddNode();
  }
  out.ceg.SetSource(0);
  out.ceg.SetSink(full);

  for (size_t j = 0; j < cover.covered.size(); ++j) {
    const VertexSet a_j = cover.covered[j];
    if (a_j == 0) continue;
    const stats::StatRelation& rel = stats.relations()[j];
    // All A'_j ⊆ A_j with deg(A'_j, A_j) known. Note: DBPLP uses degrees
    // over the projection pi_{A_j}(R_j); our StatRelation stores
    // deg(X, Y) for X ⊆ Y ⊆ attrs, and deg(A'_j, A_j) is exactly the
    // degree over the projection onto A_j.
    for (VertexSet sub = a_j;; sub = (sub - 1) & a_j) {
      const double deg = rel.Get(sub, a_j);
      if (deg > 0 && sub != a_j) {
        const VertexSet added = a_j & ~sub;  // Z = A_j \ A'_j
        for (VertexSet w1 = 0; w1 <= full; ++w1) {
          if ((sub & w1) != sub) continue;
          // Theorem D.1's disjointness: each edge must add the *entire*
          // fresh set Z, so the variables summed across a path's edges are
          // pairwise disjoint.
          if ((w1 & added) != 0) continue;
          const VertexSet w2 = w1 | a_j;
          if (w2 == w1) continue;
          out.ceg.AddEdge(w1, w2, deg);
        }
      }
      if (sub == 0) break;
    }
  }
  return out;
}

}  // namespace cegraph::ceg
