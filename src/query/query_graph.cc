#include "query/query_graph.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <numeric>
#include <span>
#include <string>

namespace cegraph::query {

util::StatusOr<QueryGraph> QueryGraph::Create(
    uint32_t num_vertices, std::vector<QueryEdge> edges,
    std::vector<graph::VertexLabel> vertex_constraints) {
  if (!vertex_constraints.empty() &&
      vertex_constraints.size() != num_vertices) {
    return util::InvalidArgumentError("vertex constraint arity mismatch");
  }
  if (edges.size() > 32) {
    return util::InvalidArgumentError("queries are limited to 32 edges");
  }
  if (num_vertices > 32) {
    return util::InvalidArgumentError("queries are limited to 32 vertices");
  }
  for (const QueryEdge& e : edges) {
    if (e.src >= num_vertices || e.dst >= num_vertices) {
      return util::InvalidArgumentError("query edge endpoint out of range");
    }
  }
  QueryGraph q;
  q.num_vertices_ = num_vertices;
  q.edges_ = std::move(edges);
  q.vertex_constraints_ = std::move(vertex_constraints);
  q.incident_.assign(num_vertices, {});
  for (uint32_t i = 0; i < q.edges_.size(); ++i) {
    q.incident_[q.edges_[i].src].push_back(i);
    if (q.edges_[i].dst != q.edges_[i].src) {
      q.incident_[q.edges_[i].dst].push_back(i);
    }
  }
  return q;
}

VertexSet QueryGraph::VerticesOf(EdgeSet s) const {
  VertexSet v = 0;
  for (uint32_t i = 0; i < num_edges(); ++i) {
    if (s & (EdgeSet{1} << i)) {
      v |= VertexSet{1} << edges_[i].src;
      v |= VertexSet{1} << edges_[i].dst;
    }
  }
  return v;
}

bool QueryGraph::IsConnectedSubset(EdgeSet s) const {
  if (s == 0) return false;
  // BFS over edges: two edges are adjacent if they share a vertex.
  const uint32_t first = static_cast<uint32_t>(std::countr_zero(s));
  EdgeSet visited = EdgeSet{1} << first;
  VertexSet frontier_vertices = (VertexSet{1} << edges_[first].src) |
                                (VertexSet{1} << edges_[first].dst);
  bool grew = true;
  while (grew) {
    grew = false;
    for (uint32_t i = 0; i < num_edges(); ++i) {
      const EdgeSet bit = EdgeSet{1} << i;
      if (!(s & bit) || (visited & bit)) continue;
      const VertexSet ev = (VertexSet{1} << edges_[i].src) |
                           (VertexSet{1} << edges_[i].dst);
      if (ev & frontier_vertices) {
        visited |= bit;
        frontier_vertices |= ev;
        grew = true;
      }
    }
  }
  return visited == s;
}

bool QueryGraph::IsConnected() const {
  if (num_edges() == 0) return num_vertices() <= 1;
  if (!IsConnectedSubset(AllEdges())) return false;
  // Also require no isolated vertices.
  return std::popcount(VerticesOf(AllEdges())) ==
         static_cast<int>(num_vertices_);
}

int QueryGraph::CyclomaticNumber(EdgeSet s) const {
  if (s == 0) return 0;
  // Count components via union-find over the touched vertices.
  std::vector<int> parent(num_vertices_);
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&](int x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  int edge_count = 0;
  for (uint32_t i = 0; i < num_edges(); ++i) {
    if (!(s & (EdgeSet{1} << i))) continue;
    ++edge_count;
    const int a = find(static_cast<int>(edges_[i].src));
    const int b = find(static_cast<int>(edges_[i].dst));
    if (a != b) parent[a] = b;
  }
  // Each component of the sub-pattern has exactly one union-find root
  // among its touched vertices.
  const VertexSet vs = VerticesOf(s);
  int components = 0;
  for (uint32_t v = 0; v < num_vertices_; ++v) {
    if ((vs & (VertexSet{1} << v)) && find(static_cast<int>(v)) ==
                                          static_cast<int>(v)) {
      ++components;
    }
  }
  return edge_count - std::popcount(vs) + components;
}

QueryGraph QueryGraph::ExtractPattern(EdgeSet s,
                                      std::vector<QVertex>* vertex_map) const {
  std::vector<int> remap(num_vertices_, -1);
  std::vector<QVertex> rev;
  std::vector<QueryEdge> sub_edges;
  for (uint32_t i = 0; i < num_edges(); ++i) {
    if (!(s & (EdgeSet{1} << i))) continue;
    const QueryEdge& e = edges_[i];
    for (QVertex v : {e.src, e.dst}) {
      if (remap[v] < 0) {
        remap[v] = static_cast<int>(rev.size());
        rev.push_back(v);
      }
    }
    sub_edges.push_back({static_cast<QVertex>(remap[e.src]),
                         static_cast<QVertex>(remap[e.dst]), e.label});
  }
  if (vertex_map != nullptr) *vertex_map = rev;
  std::vector<graph::VertexLabel> sub_constraints;
  if (!vertex_constraints_.empty()) {
    sub_constraints.reserve(rev.size());
    for (QVertex original : rev) {
      sub_constraints.push_back(vertex_constraints_[original]);
    }
  }
  auto result = Create(static_cast<uint32_t>(rev.size()),
                       std::move(sub_edges), std::move(sub_constraints));
  return std::move(result).value();
}

namespace {

std::string CodeUnderPermutation(
    const std::vector<QueryEdge>& edges,
    const std::vector<graph::VertexLabel>& constraints,
    std::span<const uint32_t> perm) {
  // Create caps edges at 32; entries [0, m) are written before the sort.
  std::array<std::array<uint32_t, 3>, 32> mapped;
  const size_t m = edges.size();
  for (size_t i = 0; i < m; ++i) {
    mapped[i] = {perm[edges[i].src], perm[edges[i].dst], edges[i].label};
  }
  std::sort(mapped.begin(), mapped.begin() + m);
  std::string code;
  code.reserve(m * 6);
  for (size_t i = 0; i < m; ++i) {
    code.push_back(static_cast<char>('0' + mapped[i][0]));
    code.push_back(static_cast<char>('0' + mapped[i][1]));
    code.append(std::to_string(mapped[i][2]));
    code.push_back(';');
  }
  if (!constraints.empty()) {
    // Vertex-label constraints in permuted vertex order.
    std::vector<graph::VertexLabel> permuted(constraints.size());
    for (uint32_t v = 0; v < constraints.size(); ++v) {
      permuted[perm[v]] = constraints[v];
    }
    code.push_back('|');
    for (graph::VertexLabel c : permuted) {
      code.append(c == QueryGraph::kAnyVertexLabel ? "*"
                                                   : std::to_string(c));
      code.push_back(',');
    }
  }
  return code;
}

// Integer key of the token `decimal(value) terminator` whose order is the
// text order of such tokens: one nibble per character, first character
// most significant, digit d packed as d + digit_base. 10 digits plus the
// terminator fill 44 bits. Nibbles past the terminator are 0; two distinct
// tokens always differ at or before the shorter one's terminator.
uint64_t TokenKey(uint32_t value, uint64_t digit_base, uint64_t terminator) {
  uint32_t digits[10];
  int n = 0;
  do {
    digits[n++] = value % 10;
    value /= 10;
  } while (value != 0);
  uint64_t key = 0;
  for (int i = n - 1; i >= 0; --i) key = key << 4 | (digits[i] + digit_base);
  key = key << 4 | terminator;
  return key << (4 * (10 - n));
}

// Edge label token "<label>;": ';' sorts after every digit (nibble 11),
// so "12;" < "1;".
uint64_t EdgeLabelKey(graph::Label label) { return TokenKey(label, 1, 11); }

// Constraint token "<label>," or "*,": '*' < ',' < every digit.
uint64_t ConstraintKey(graph::VertexLabel c) {
  return c == QueryGraph::kAnyVertexLabel ? uint64_t{1} << 36
                                          : TokenKey(c, 2, 1);
}

// Key of the rendered edge token "<src><dst><label>;" (src, dst < 8).
uint64_t EdgeKey(uint32_t src, uint32_t dst, uint64_t label_key) {
  return uint64_t{src} << 48 | uint64_t{dst} << 44 | label_key;
}

// Branch-and-bound search for the vertex permutation whose
// CodeUnderPermutation string is smallest, without rendering a string.
//
// A code is the edge list sorted by (new src, new dst, label) followed by
// the constraints in new-vertex order. Its tokens are prefix-free, so the
// strings compare as their token sequences, and each token compares as
// its EdgeKey / ConstraintKey. New ids are given in order 0, 1, ...; once
// ids 0..k-1 are placed, rows (edges by new src) below the first open row
// are complete, and the open row's edges into 0..k-1 come next — a fixed
// prefix of the final code, only ever extended by deeper levels. A branch
// is cut as soon as that prefix is greater than the best complete code,
// or equal to it while the best code's next token is below anything the
// branch can still produce.
class CanonicalSearch {
 public:
  static constexpr uint32_t kMaxVertices = QueryGraph::kCanonicalVertexLimit;
  static constexpr uint32_t kMaxEdges = 32;

  CanonicalSearch(uint32_t n, const std::vector<QueryEdge>& edges,
                  const std::vector<graph::VertexLabel>& constraints)
      : n_(n),
        m_(static_cast<uint32_t>(edges.size())),
        has_constraints_(!constraints.empty()) {
    // Edges packed as (src, dst, label) and sorted: each ordered pair's
    // labels come out in the integer order the code lists them in.
    std::array<uint64_t, kMaxEdges> sorted;  // [0, m_) written, then used
    for (uint32_t i = 0; i < m_; ++i) {
      const QueryEdge& e = edges[i];
      sorted[i] = uint64_t{e.src} << 40 | uint64_t{e.dst} << 32 | e.label;
    }
    std::sort(sorted.begin(), sorted.begin() + m_);
    for (uint32_t i = 0; i < m_; ++i) {
      const uint32_t src = static_cast<uint32_t>(sorted[i] >> 40);
      const uint32_t dst = static_cast<uint32_t>(sorted[i] >> 32) & 0xFF;
      if (pair_count_[src][dst]++ == 0) pair_begin_[src][dst] = i;
      label_key_[i] = EdgeLabelKey(static_cast<graph::Label>(sorted[i]));
      ++out_degree_[src];
    }
    for (uint32_t v = 0; has_constraints_ && v < n_; ++v) {
      constraint_key_[v] = ConstraintKey(constraints[v]);
    }
  }

  /// The minimal permutation (old vertex id -> new vertex id).
  std::span<const uint32_t> Run() {
    Search(0, 0, 0, 0, true);
    return {best_new_id_.data(), n_};
  }

 private:
  // Appends row r's edges into new vertex d; returns how many.
  uint32_t EmitPair(uint32_t r, uint32_t d, uint32_t* len) {
    const uint32_t src = old_id_[r];
    const uint32_t dst = old_id_[d];
    const uint32_t begin = pair_begin_[src][dst];
    const uint32_t count = pair_count_[src][dst];
    for (uint32_t i = begin; i < begin + count; ++i) {
      code_[(*len)++] = EdgeKey(r, d, label_key_[i]);
    }
    return count;
  }

  // Appends row r's edges into new vertices 0..k; returns how many.
  uint32_t EmitRow(uint32_t r, uint32_t k, uint32_t* len) {
    uint32_t count = 0;
    for (uint32_t d = 0; d <= k; ++d) count += EmitPair(r, d, len);
    return count;
  }

  // True iff the constraints under the current complete assignment are
  // smaller than the best code's.
  bool ConstraintsBelowBest() const {
    for (uint32_t i = 0; i < n_; ++i) {
      const uint64_t key = constraint_key_[old_id_[i]];
      if (key != best_constraint_key_[i]) return key < best_constraint_key_[i];
    }
    return false;
  }

  // New ids 0..k-1 are placed; code_[0, len) is fixed. `row` is the first
  // incomplete row (k if every placed row is complete) and `row_len` how
  // many of its edges are in the prefix. `below` means the prefix is
  // already smaller than the best code's.
  void Search(uint32_t k, uint32_t len, uint32_t row, uint32_t row_len,
              bool below) {
    if (k == n_) {
      if (below || (has_constraints_ && ConstraintsBelowBest())) {
        std::copy_n(code_, m_, best_code_);
        for (uint32_t i = 0; i < n_; ++i) {
          best_new_id_[old_id_[i]] = i;
          best_constraint_key_[i] = constraint_key_[old_id_[i]];
        }
        ++best_version_;
      }
      return;
    }
    const uint64_t version = best_version_;
    for (uint32_t v = 0; v < n_; ++v) {
      if (!(unplaced_ >> v & 1)) continue;
      unplaced_ &= ~(1u << v);
      old_id_[k] = v;
      // Extend the prefix: the open row gains its edges into k (or k's
      // own row opens), then every row that completes hands over to the
      // next placed one.
      uint32_t next_len = len;
      uint32_t r = row;
      uint32_t r_len = r < k ? row_len + EmitPair(r, k, &next_len)
                             : EmitRow(r, k, &next_len);
      while (r_len == out_degree_[old_id_[r]] && ++r <= k) {
        r_len = EmitRow(r, k, &next_len);
      }
      // A descendant that improved the best code shares this prefix.
      bool next_below = below && version == best_version_;
      bool cut = false;
      for (uint32_t i = len; !next_below && i < next_len; ++i) {
        if (code_[i] != best_code_[i]) {
          cut = code_[i] > best_code_[i];
          next_below = !cut;
          break;
        }
      }
      if (!cut && !next_below && next_len < m_) {
        // Lower bound of the next token: (r, k+1, ·) for an open row,
        // (k+1, ·, ·) once every placed row is complete.
        const uint64_t bound =
            r <= k ? EdgeKey(r, k + 1, 0) : uint64_t{k + 1} << 48;
        cut = best_code_[next_len] < bound;
      }
      if (!cut) Search(k + 1, next_len, r, r_len, next_below);
      unplaced_ |= 1u << v;
    }
  }

  const uint32_t n_;
  const uint32_t m_;
  const bool has_constraints_;
  uint8_t pair_begin_[kMaxVertices][kMaxVertices] = {};
  uint8_t pair_count_[kMaxVertices][kMaxVertices] = {};
  uint32_t out_degree_[kMaxVertices] = {};
  uint64_t constraint_key_[kMaxVertices] = {};
  uint32_t unplaced_ = (1u << n_) - 1;
  uint32_t old_id_[kMaxVertices] = {};
  std::array<uint32_t, kMaxVertices> best_new_id_ = {};
  uint64_t best_constraint_key_[kMaxVertices] = {};
  uint64_t best_version_ = 0;
  // Per-edge buffers: an entry is written before it is read and nothing
  // at or past m_ is read, so they stay uninitialized (zeroing them would
  // cost as much as the whole search of a 2-vertex pattern).
  uint64_t label_key_[kMaxEdges];
  uint64_t code_[kMaxEdges];       // fixed prefix of the current candidate
  uint64_t best_code_[kMaxEdges];  // the best complete code so far
};

}  // namespace

std::string QueryGraph::CanonicalCode() const {
  auto cached = std::atomic_load_explicit(&canonical_code_,
                                          std::memory_order_acquire);
  if (cached != nullptr) return *cached;
  auto computed = std::make_shared<const std::string>(ComputeCanonicalCode());
  std::atomic_store_explicit(&canonical_code_, computed,
                             std::memory_order_release);
  return *computed;
}

std::string QueryGraph::ComputeCanonicalCode() const {
  // Drop all-wildcard constraint vectors so labeled and unlabeled
  // constructions of the same pattern share a code.
  std::vector<graph::VertexLabel> constraints =
      has_vertex_constraints() ? vertex_constraints_
                               : std::vector<graph::VertexLabel>{};
  if (num_vertices_ > kCanonicalVertexLimit) {
    std::vector<uint32_t> identity(num_vertices_);
    std::iota(identity.begin(), identity.end(), 0);
    return "id:" + CodeUnderPermutation(edges_, constraints, identity);
  }
  CanonicalSearch search(num_vertices_, edges_, constraints);
  return CodeUnderPermutation(edges_, constraints, search.Run());
}

}  // namespace cegraph::query
