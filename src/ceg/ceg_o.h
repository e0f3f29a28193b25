#ifndef CEGRAPH_CEG_CEG_O_H_
#define CEGRAPH_CEG_CEG_O_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ceg/ceg.h"
#include "query/query_graph.h"
#include "query/subquery.h"
#include "stats/markov_table.h"
#include "util/status.h"

namespace cegraph::ceg {

/// Construction options for CEG_O (§4.2). Both rules default to on, as in
/// the paper; the ablation benches toggle them.
struct CegOOptions {
  /// Rule 1: extension patterns (numerators) must have exactly
  /// min(h, |S'|) edges. When off, any extension size in [|S'\S|, h] is
  /// admitted.
  bool size_h_numerators = true;
  /// Rule 2 (early cycle closing, from [20]): if any candidate extension of
  /// S closes a cycle, only cycle-closing extensions of S are kept.
  bool early_cycle_closing = true;
};

/// CEG_O with its node <-> sub-query correspondence. Node 0 is the empty
/// sub-query (source); the sink is the node of the full query.
struct BuiltCegO {
  Ceg ceg;
  /// Edge subset per node id (node 0, the source, is the empty set).
  std::vector<query::EdgeSet> subset_of_node;
  /// What an edge's weight is: an extension rate |E| / |I| (|E| on first
  /// hops), or a CEG_OCR cycle-closing probability that replaced it.
  enum class EdgeKind : uint8_t { kExtension, kClosingRate };
  /// Provenance per CEG edge (aligned with ceg.edges()): the extension
  /// pattern E and the intersection I = E ∩ S behind the edge's weight
  /// (I = 0 for first hops). Consumed by estimators that re-weight edges,
  /// e.g. the dispersion-guided path pick (§8 future work).
  struct EdgeProvenance {
    query::EdgeSet pattern = 0;
    query::EdgeSet intersection = 0;
    EdgeKind kind = EdgeKind::kExtension;
  };
  std::vector<EdgeProvenance> edge_provenance;
};

/// Renders CEG edge `ei` of `built` from its provenance: "|{e0,e1}|" for a
/// first hop, "|{e0,e1}|/|{e1}|" for an extension rate, "closing-rate(e3)"
/// for a CEG_OCR closing edge.
std::string EdgeText(const BuiltCegO& built, uint32_t ei);

/// The query-level half of CEG_O construction (§4.2), done once and shared
/// by every sink: the connected subsets of `q`, each one's candidate
/// extensions (Markov patterns E with |E| <= h whose intersection with it
/// is connected and non-empty), and memos of pattern cardinalities and
/// cyclomatic numbers.
///
/// Build(sink) emits the CEG_O of the sub-query `sink` with the sink
/// standing in for the whole query in every rule: the first hop has
/// min(h, |sink|) edges, the early-cycle-closing gate applies iff `sink`
/// has a cycle, and a node with no rule-1 candidate falls back to all of
/// its candidates inside `sink`. Because ConnectedSubsets orders subsets
/// by (size, value) and ExtractPattern keeps edge order, the result has the
/// node ids, edge order and weights of BuildCegO(q.ExtractPattern(sink)),
/// with no extraction, canonical code or string. One builder must not be
/// used from two threads at once (the memos are unguarded).
class CegOBuilder {
 public:
  CegOBuilder(const query::QueryGraph& q, const stats::MarkovTable& markov,
              const CegOOptions& options = {});

  /// Fails with InvalidArgument unless `sink` is a connected edge subset
  /// of q, and with the Markov table's status if a weight cannot be
  /// computed.
  util::StatusOr<BuiltCegO> Build(query::EdgeSet sink);

 private:
  /// One extension of a node: S -> S ∪ E. Positions index subsets_.
  struct Candidate {
    int target;
    int pattern;
    int intersection;  ///< -1 for first hops (I = ∅)
    bool size_h;       ///< passes rule 1
  };

  util::StatusOr<double> Cardinality(int pos);
  int Cyclomatic(int pos);

  const query::QueryGraph& q_;
  const stats::MarkovTable& markov_;
  const CegOOptions options_;
  std::vector<query::EdgeSet> subsets_;
  query::SubsetIndex index_;
  /// Candidates of the source (first) and of subsets_[k] at
  /// [offsets_[k + 1], offsets_[k + 2]), each in pattern order.
  std::vector<Candidate> candidates_;
  std::vector<uint32_t> offsets_;
  /// Memos per subsets_ position: NaN / -1 until computed.
  std::vector<double> cardinality_;
  std::vector<int> cyclomatic_;
  /// Scratch: node id of subsets_[k] in the CEG being built.
  std::vector<uint32_t> node_of_;
};

/// Builds the optimistic CEG of `q` over `markov` (§4.2):
///  - one vertex per connected subset S of q's edges (plus the empty set);
///  - an edge S -> S' = S ∪ E for every Markov-table pattern E (connected,
///    |E| <= h) that intersects S in a connected, non-empty I = E ∩ S and
///    adds at least one edge, with weight |E| / |I|;
///  - edges from the empty set carry the raw pattern cardinality |E|.
/// This is CegOBuilder(q).Build(q.AllEdges()). Fails if any required
/// Markov-table entry cannot be computed.
util::StatusOr<BuiltCegO> BuildCegO(const query::QueryGraph& q,
                                    const stats::MarkovTable& markov,
                                    const CegOOptions& options = {});

}  // namespace cegraph::ceg

#endif  // CEGRAPH_CEG_CEG_O_H_
