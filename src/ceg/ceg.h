#ifndef CEGRAPH_CEG_CEG_H_
#define CEGRAPH_CEG_CEG_H_

#include <cstdint>
#include <vector>

#include "util/status.h"

namespace cegraph::ceg {

/// A cardinality estimation graph (§3): vertices are sub-queries, weighted
/// edges are extension rates, and every source-to-sink path is one estimate
/// (the product of its edge weights). This class is the shared
/// representation of CEG_O, CEG_OCR, CEG_M and CEG_D.
///
/// Weights are stored in log2 domain, so a path's log-weight is the sum of
/// its edge log-weights, exactly as the paper sets up MOLP. A multiplicative
/// weight of 0 maps to -infinity and is handled throughout.
///
/// Nodes and edges carry no text: a builder that wants to explain a CEG
/// keeps its own typed provenance (e.g. BuiltCegO::edge_provenance) and
/// renders it on demand.
class Ceg {
 public:
  struct Edge {
    uint32_t from = 0;
    uint32_t to = 0;
    double log_weight = 0;   ///< log2 of the extension rate
  };

  /// Adds a node and returns its id.
  uint32_t AddNode();
  /// Adds an edge with *multiplicative* weight (>= 0).
  void AddEdge(uint32_t from, uint32_t to, double weight);

  /// Capacity hint for builders that can bound the edge count up front.
  /// Avoids re-allocation churn during construction.
  void ReserveEdges(size_t n);

  void SetSource(uint32_t node) { source_ = node; }
  void SetSink(uint32_t node) { sink_ = node; }
  uint32_t source() const { return source_; }
  uint32_t sink() const { return sink_; }

  uint32_t num_nodes() const { return num_nodes_; }
  size_t num_edges() const { return edges_.size(); }
  const std::vector<Edge>& edges() const { return edges_; }

  /// Contiguous view over the out-edge indices of one node in the CSR
  /// adjacency. Iterable and indexable like the vector it replaces.
  class EdgeIndexRange {
   public:
    EdgeIndexRange(const uint32_t* first, const uint32_t* last)
        : first_(first), last_(last) {}
    const uint32_t* begin() const { return first_; }
    const uint32_t* end() const { return last_; }
    size_t size() const { return static_cast<size_t>(last_ - first_); }
    bool empty() const { return first_ == last_; }
    uint32_t operator[](size_t i) const { return first_[i]; }

   private:
    const uint32_t* first_;
    const uint32_t* last_;
  };

  EdgeIndexRange OutEdges(uint32_t node) const {
    EnsureCsr();
    return {csr_index_.data() + csr_offsets_[node],
            csr_index_.data() + csr_offsets_[node + 1]};
  }

  /// Builds the CSR adjacency now (it is otherwise built lazily on first
  /// traversal). Call before sharing one CEG across threads: after
  /// Finalize() every accessor is a pure read.
  void Finalize() const { EnsureCsr(); }

  /// True iff the CEG has no directed cycles. CEG_O/CEG_OCR/CEG_D are
  /// always DAGs; CEG_M is not once projection edges are included.
  bool IsDag() const;

  /// Path statistics for one hop count (number of edges on the path).
  struct HopAggregate {
    int hops = 0;
    double path_count = 0;      ///< number of (source,sink) paths
    double min_log = 0;         ///< smallest path log-weight
    double max_log = 0;         ///< largest path log-weight
    double sum_estimates = 0;   ///< sum of path estimates (linear domain)
  };

  /// Aggregate statistics over every (source,sink) path, overall and per
  /// hop count, computed by dynamic programming in topological order
  /// (O(nodes * edges * max_hops), no enumeration). Fails with
  /// FailedPrecondition if the CEG is not a DAG.
  struct PathAggregates {
    bool reachable = false;
    double path_count = 0;
    double min_log = 0;
    double max_log = 0;
    double avg_estimate = 0;    ///< arithmetic mean of path estimates
    std::vector<HopAggregate> per_hop;  ///< only reachable hop counts
  };
  util::StatusOr<PathAggregates> ComputeAggregates() const;

  /// Minimum path log-weight from source to sink via Dijkstra (correct
  /// with cycles; all log-weights must be >= 0, which holds for CEG_M
  /// where weights are degrees >= 1). Returns +infinity if unreachable.
  util::StatusOr<double> MinLogWeightDijkstra() const;

  /// One explicit path (edge indices) with its log-weight.
  struct Path {
    std::vector<uint32_t> edge_indices;
    double log_weight = 0;
    int hops() const { return static_cast<int>(edge_indices.size()); }
  };

  /// Hop-class selectors shared with the optimistic estimators (§4.2):
  /// restrict attention to the paths with the most edges, the fewest edges,
  /// or all paths.
  enum class HopMode { kMaxHop, kMinHop, kAllHops };

  /// The extreme-weight path within a hop class: the path of maximum
  /// (maximize=true) or minimum log-weight among kMaxHop / kMinHop /
  /// kAllHops paths, recovered via DP backpointers (no enumeration).
  /// Fails on non-DAGs or when the sink is unreachable.
  util::StatusOr<Path> BestPath(HopMode mode, bool maximize) const;

  /// Enumerates simple (source,sink) paths by DFS, up to `max_paths`.
  /// `truncated` (optional) reports whether the cap was hit. Used by the
  /// P* oracle and by the theory tests; the production estimators use the
  /// DP aggregates instead.
  std::vector<Path> EnumerateSimplePaths(size_t max_paths,
                                         bool* truncated = nullptr) const;

 private:
  /// Longest source-reachable path length (in edges), given a topological
  /// order; bounds the hop dimension of the DP tables.
  int MaxDepthFromSource(const std::vector<uint32_t>& topo) const;

  /// (Re)builds the flat CSR adjacency (counting sort over edges_) if any
  /// mutation happened since the last build. The DP kernels iterate
  /// csr_index_ slices directly, so edge indices of one node are contiguous
  /// in memory instead of one heap allocation per node.
  void EnsureCsr() const;

  uint32_t num_nodes_ = 0;
  std::vector<Edge> edges_;
  uint32_t source_ = 0;
  uint32_t sink_ = 0;

  /// CSR adjacency: csr_index_[csr_offsets_[v] .. csr_offsets_[v+1]) are
  /// the indices into edges_ of v's out-edges, in insertion order.
  mutable std::vector<uint32_t> csr_offsets_;
  mutable std::vector<uint32_t> csr_index_;
  mutable bool csr_valid_ = false;
};

}  // namespace cegraph::ceg

#endif  // CEGRAPH_CEG_CEG_H_
