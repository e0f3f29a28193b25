#include "dynamic/stats_maintainer.h"

#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "query/query_graph.h"

namespace cegraph::dynamic {

namespace {

/// Number of self-loop tuples in relation `l` — the exact cardinality of
/// the 1-vertex loop pattern (a)-[l]->(a).
double LoopCount(const graph::Graph& g, graph::Label l) {
  double loops = 0;
  for (const graph::Edge& e : g.RelationEdges(l)) loops += (e.src == e.dst);
  return loops;
}

/// The exact Markov entries of every changed label that are cheap facts of
/// `g`: code -> fresh cardinality. These are upserted instead of evicted.
std::unordered_map<std::string, double> ExactMarkovEntries(
    const graph::Graph& g, const std::vector<bool>& changed) {
  std::unordered_map<std::string, double> exact;
  for (graph::Label l = 0; l < g.num_labels(); ++l) {
    if (!changed[l]) continue;
    exact.emplace(TwoVertexEdgeCode(l),
                  static_cast<double>(g.RelationSize(l)));
    exact.emplace(LoopEdgeCode(l), LoopCount(g, l));
  }
  return exact;
}

bool ClosingKeyTouchesChanged(const stats::ClosingKey& key,
                              const std::vector<bool>& changed) {
  return changed[key.first_label] || changed[key.last_label] ||
         changed[key.close_label];
}

}  // namespace

std::vector<bool> ChangedLabelBitmap(uint32_t num_labels,
                                     const NetDelta& net) {
  std::vector<bool> changed(num_labels, false);
  for (const graph::Edge& e : net.inserted) changed[e.label] = true;
  for (const graph::Edge& e : net.deleted) changed[e.label] = true;
  return changed;
}

std::vector<bool> ChangedLabelBitmap(uint32_t num_labels,
                                     std::span<const EdgeDelta> log) {
  std::vector<bool> changed(num_labels, false);
  for (const EdgeDelta& d : log) {
    if (d.edge.label < num_labels) changed[d.edge.label] = true;
  }
  return changed;
}

bool CodeTouchesChangedLabel(std::string_view code,
                             const std::vector<bool>& changed,
                             uint32_t label_modulus) {
  // Canonical codes (query::QueryGraph::CanonicalCode) are a
  // sequence of fixed-layout edge records — one byte each for the permuted
  // src and dst vertex, then the label in decimal, then ';' — optionally
  // prefixed by "id:" (identity codes of >7-vertex patterns) and suffixed
  // by '|' plus vertex-constraint tokens (which are vertex labels, not edge
  // labels — edge deltas never change them, so parsing stops there). The
  // parse is positional, so vertex bytes that happen to collide with
  // digits or ';' cannot desynchronize it.
  size_t pos = 0;
  if (code.substr(0, 3) == "id:") pos = 3;
  while (pos < code.size() && code[pos] != '|') {
    if (pos + 3 > code.size()) return true;  // malformed: be conservative
    pos += 2;  // src and dst vertex bytes
    uint64_t label = 0;
    bool any_digit = false;
    while (pos < code.size() && code[pos] >= '0' && code[pos] <= '9') {
      label = label * 10 + static_cast<uint64_t>(code[pos] - '0');
      if (label > 0xFFFF'FFFFull) return true;
      ++pos;
      any_digit = true;
    }
    if (!any_digit || pos >= code.size() || code[pos] != ';') return true;
    ++pos;
    if (label_modulus > 0 && label >= label_modulus) label -= label_modulus;
    if (label >= changed.size() || changed[label]) return true;
  }
  return false;
}

std::string TwoVertexEdgeCode(graph::Label l) {
  auto q = query::QueryGraph::Create(2, {{0, 1, l}});
  return q->CanonicalCode();
}

std::string LoopEdgeCode(graph::Label l) {
  auto q = query::QueryGraph::Create(1, {{0, 0, l}});
  return q->CanonicalCode();
}

StatsMaintainer::StatsMaintainer(const graph::Graph& old_graph,
                                 const graph::Graph& new_graph,
                                 const NetDelta& net)
    : old_graph_(old_graph),
      new_graph_(new_graph),
      net_(net),
      changed_(ChangedLabelBitmap(new_graph.num_labels(), net)) {}

size_t StatsMaintainer::num_changed_labels() const {
  size_t n = 0;
  for (bool c : changed_) n += c;
  return n;
}

void StatsMaintainer::MigrateMarkov(const stats::MarkovTable& from,
                                    const stats::MarkovTable& to,
                                    MaintenanceReport* report) const {
  const auto exact = ExactMarkovEntries(new_graph_, changed_);
  from.VisitEntries([&](const std::string& code, const double& value) {
    if (exact.contains(code)) return;  // superseded by the exact refresh
    if (TouchesChanged(code)) {
      ++report->markov_evicted;
    } else {
      to.UpsertEntry(code, value);
      ++report->markov_carried;
    }
  });
  for (const auto& [code, value] : exact) to.UpsertEntry(code, value);
  report->markov_exact_updates += exact.size();
}

void StatsMaintainer::MigrateClosingRates(const stats::CycleClosingRates& from,
                                          const stats::CycleClosingRates& to,
                                          MaintenanceReport* report) const {
  const bool couple_all = from.options().max_mid_hops > 0;
  from.VisitEntries([&](const stats::ClosingKey& key, const double& rate) {
    if (couple_all || ClosingKeyTouchesChanged(key, changed_)) {
      ++report->closing_evicted;
    } else {
      to.UpsertEntry(key, rate);
      ++report->closing_carried;
    }
  });
}

void StatsMaintainer::MigrateCatalog(const stats::StatsCatalog& from,
                                     const stats::StatsCatalog& to,
                                     MaintenanceReport* report) const {
  // Base-relation degree maps are O(1) facts of the new graph's CSR
  // summaries — refresh every previously cached label exactly (for
  // unchanged labels the values are identical anyway).
  from.VisitBaseRelations([&](const graph::Label& l, const stats::DegreeMap&) {
    to.RefreshBaseRelation(l);
    report->base_relations_refreshed += changed_[l];
  });

  // Two-join entries: carry classes over unchanged relations (including
  // cached over-cap verdicts — the enumeration that produced them would
  // replay identically), evict the rest. Cloning under the visit lock is
  // fine: the clone does not re-enter the cache.
  from.VisitJoinEntries(
      [&](const std::string& key, const stats::StatsCatalog::JoinStats* js) {
        if (TouchesChanged(key)) {
          ++report->joins_evicted;
          return;
        }
        std::unique_ptr<stats::StatsCatalog::JoinStats> clone;
        if (js != nullptr) {
          clone = std::make_unique<stats::StatsCatalog::JoinStats>();
          clone->representative = js->representative;
          clone->deg = js->deg;
          clone->cardinality = js->cardinality;
        }
        to.InsertJoinEntry(key, std::move(clone));
        ++report->joins_carried;
      });
}

void StatsMaintainer::MigrateDispersion(const stats::DispersionCatalog& from,
                                        const stats::DispersionCatalog& to,
                                        MaintenanceReport* report) const {
  from.VisitEntries(
      [&](const std::string& key, const stats::ExtensionDispersion& d) {
        if (TouchesChanged(key)) {
          ++report->dispersion_evicted;
        } else {
          to.UpsertEntry(key, d);
          ++report->dispersion_carried;
        }
      });
}

size_t StatsMaintainer::ScrubMarkov(const stats::MarkovTable& table,
                                    const std::vector<bool>& changed) {
  const graph::Graph& g = table.graph();
  const size_t evicted = table.EvictMatching([&](const std::string& code) {
    return CodeTouchesChangedLabel(code, changed, g.num_labels());
  });
  for (const auto& [code, value] : ExactMarkovEntries(g, changed)) {
    table.UpsertEntry(code, value);
  }
  return evicted;
}

size_t StatsMaintainer::ScrubClosingRates(
    const stats::CycleClosingRates& rates, const std::vector<bool>& changed) {
  const bool couple_all = rates.options().max_mid_hops > 0;
  return rates.EvictMatching([&](const stats::ClosingKey& key) {
    return couple_all || ClosingKeyTouchesChanged(key, changed);
  });
}

size_t StatsMaintainer::ScrubCatalog(const stats::StatsCatalog& catalog,
                                     const std::vector<bool>& changed) {
  const graph::Graph& g = catalog.graph();
  for (graph::Label l = 0; l < g.num_labels(); ++l) {
    if (changed[l]) catalog.RefreshBaseRelation(l);
  }
  return catalog.EvictJoinsMatching([&](const std::string& code) {
    return CodeTouchesChangedLabel(code, changed, g.num_labels());
  });
}

size_t StatsMaintainer::ScrubDispersion(const stats::DispersionCatalog& catalog,
                                        const std::vector<bool>& changed) {
  const uint32_t modulus = catalog.graph().num_labels();
  return catalog.EvictMatching([&](const std::string& code) {
    return CodeTouchesChangedLabel(code, changed, modulus);
  });
}

}  // namespace cegraph::dynamic
