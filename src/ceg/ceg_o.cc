#include "ceg/ceg_o.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <span>

namespace cegraph::ceg {

using query::EdgeSet;

namespace {

/// "{e0,e2}": the query edges of `s`.
std::string SubsetText(EdgeSet s) {
  std::string text = "{";
  for (EdgeSet rest = s; rest != 0; rest &= rest - 1) {
    if (text.size() > 1) text += ",";
    text += "e" + std::to_string(std::countr_zero(rest));
  }
  return text + "}";
}

}  // namespace

std::string EdgeText(const BuiltCegO& built, uint32_t ei) {
  const BuiltCegO::EdgeProvenance& p = built.edge_provenance[ei];
  if (p.kind == BuiltCegO::EdgeKind::kClosingRate) {
    // The closing edge is the one query edge the extension adds.
    return "closing-rate(e" +
           std::to_string(std::countr_zero(p.pattern & ~p.intersection)) +
           ")";
  }
  std::string text = "|" + SubsetText(p.pattern) + "|";
  if (p.intersection != 0) text += "/|" + SubsetText(p.intersection) + "|";
  return text;
}

CegOBuilder::CegOBuilder(const query::QueryGraph& q,
                         const stats::MarkovTable& markov,
                         const CegOOptions& options)
    : q_(q),
      markov_(markov),
      options_(options),
      subsets_(query::ConnectedSubsets(q)),
      index_(subsets_),
      cardinality_(subsets_.size(), std::numeric_limits<double>::quiet_NaN()),
      cyclomatic_(subsets_.size(), -1),
      node_of_(subsets_.size(), 0) {
  const int h = markov.h();
  // Candidate extension patterns: connected subsets with <= h edges.
  std::vector<int> patterns;
  for (size_t k = 0; k < subsets_.size(); ++k) {
    if (std::popcount(subsets_[k]) <= h) {
      patterns.push_back(static_cast<int>(k));
    }
  }

  // First hops start at a full pattern; rule 1 on their size depends on
  // the sink, so Build applies it.
  offsets_.push_back(0);
  for (int p : patterns) candidates_.push_back({p, p, -1, true});
  offsets_.push_back(static_cast<uint32_t>(candidates_.size()));

  for (const EdgeSet s : subsets_) {
    for (int p : patterns) {
      const EdgeSet e = subsets_[p];
      const EdgeSet i = e & s;
      if ((e & ~s) == 0) continue;  // adds nothing
      if (i == 0) continue;  // extensions must overlap the sub-query
      const int i_pos = index_.Find(i);
      if (i_pos < 0) continue;  // I must be a table pattern (connected)
      // S' = S ∪ E is connected because S and E are connected and overlap.
      const EdgeSet target = s | e;
      const bool size_h =
          !options_.size_h_numerators ||
          std::popcount(e) == std::min(h, std::popcount(target));
      candidates_.push_back({index_.Find(target), p, i_pos, size_h});
    }
    offsets_.push_back(static_cast<uint32_t>(candidates_.size()));
  }
}

util::StatusOr<double> CegOBuilder::Cardinality(int pos) {
  double& memo = cardinality_[pos];
  if (std::isnan(memo)) {
    auto c = markov_.Cardinality(q_.ExtractPattern(subsets_[pos]));
    if (!c.ok()) return c.status();
    memo = *c;
  }
  return memo;
}

int CegOBuilder::Cyclomatic(int pos) {
  int& memo = cyclomatic_[pos];
  if (memo < 0) memo = q_.CyclomaticNumber(subsets_[pos]);
  return memo;
}

util::StatusOr<BuiltCegO> CegOBuilder::Build(EdgeSet sink) {
  const int sink_pos = index_.Find(sink);
  if (sink_pos < 0) {
    return util::InvalidArgumentError(
        "CEG_O sink must be a connected edge subset of the query");
  }
  const auto inside = [sink](EdgeSet s) { return (s & ~sink) == 0; };
  const int first_hop = std::min(markov_.h(), std::popcount(sink));
  const bool cycle_gate =
      options_.early_cycle_closing && Cyclomatic(sink_pos) > 0;

  // Nodes: the source, then every connected subset inside the sink.
  BuiltCegO out;
  const uint32_t source = out.ceg.AddNode();
  out.ceg.SetSource(source);
  out.subset_of_node.push_back(0);
  for (size_t k = 0; k < subsets_.size(); ++k) {
    if (!inside(subsets_[k])) continue;
    node_of_[k] = out.ceg.AddNode();
    out.subset_of_node.push_back(subsets_[k]);
  }
  out.ceg.SetSink(node_of_[sink_pos]);

  // Expand every node but the sink, the source (k = -1) first.
  std::vector<Candidate> kept;
  for (int k = -1; k < static_cast<int>(subsets_.size()); ++k) {
    const EdgeSet s = k < 0 ? 0 : subsets_[k];
    if (k == sink_pos || !inside(s)) continue;
    const std::span<const Candidate> all(candidates_.data() + offsets_[k + 1],
                                         candidates_.data() + offsets_[k + 2]);
    kept.clear();
    for (const Candidate& c : all) {
      if (!inside(subsets_[c.pattern])) continue;
      // Rule 1 on a first hop: the largest pattern the sink admits.
      const bool size_h =
          k >= 0 ? c.size_h
                 : !options_.size_h_numerators ||
                       std::popcount(subsets_[c.pattern]) == first_hop;
      if (size_h) kept.push_back(c);
    }
    if (kept.empty()) {
      // Relax rule 1 to any pattern size so the CEG stays connected. For
      // a connected sink this never fires (an edge next to S plus up to
      // h - 1 connected edges of S always qualifies); it is a guard.
      for (const Candidate& c : all) {
        if (inside(subsets_[c.pattern])) kept.push_back(c);
      }
    }

    if (cycle_gate) {
      const int s_cycles = k < 0 ? 0 : Cyclomatic(k);
      const bool any_closing =
          std::any_of(kept.begin(), kept.end(), [&](const Candidate& c) {
            return Cyclomatic(c.target) > s_cycles;
          });
      if (any_closing) {
        std::erase_if(kept, [&](const Candidate& c) {
          return Cyclomatic(c.target) <= s_cycles;
        });
      }
    }

    for (const Candidate& c : kept) {
      auto e_card = Cardinality(c.pattern);
      if (!e_card.ok()) return e_card.status();
      double weight = *e_card;
      EdgeSet intersection = 0;
      if (c.intersection >= 0) {
        auto i_card = Cardinality(c.intersection);
        if (!i_card.ok()) return i_card.status();
        // An empty conditioning sub-query makes the full query empty too;
        // a zero-weight edge propagates estimate 0.
        weight = *i_card == 0 ? 0 : *e_card / *i_card;
        intersection = subsets_[c.intersection];
      }
      out.ceg.AddEdge(k < 0 ? source : node_of_[k], node_of_[c.target],
                      weight);
      out.edge_provenance.push_back({subsets_[c.pattern], intersection});
    }
  }
  return out;
}

util::StatusOr<BuiltCegO> BuildCegO(const query::QueryGraph& q,
                                    const stats::MarkovTable& markov,
                                    const CegOOptions& options) {
  if (q.num_edges() == 0 || !q.IsConnected()) {
    return util::InvalidArgumentError("query must be non-empty and connected");
  }
  return CegOBuilder(q, markov, options).Build(q.AllEdges());
}

}  // namespace cegraph::ceg
