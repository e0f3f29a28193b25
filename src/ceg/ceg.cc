#include "ceg/ceg.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

namespace cegraph::ceg {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

uint32_t Ceg::AddNode() {
  csr_valid_ = false;
  return num_nodes_++;
}

void Ceg::AddEdge(uint32_t from, uint32_t to, double weight) {
  edges_.push_back({from, to, weight > 0 ? std::log2(weight) : -kInf});
  csr_valid_ = false;
}

void Ceg::ReserveEdges(size_t n) { edges_.reserve(n); }

void Ceg::EnsureCsr() const {
  if (csr_valid_) return;
  const uint32_t n = num_nodes();
  csr_offsets_.assign(n + 1, 0);
  for (const Edge& e : edges_) ++csr_offsets_[e.from + 1];
  for (uint32_t v = 0; v < n; ++v) csr_offsets_[v + 1] += csr_offsets_[v];
  csr_index_.resize(edges_.size());
  std::vector<uint32_t> cursor(csr_offsets_.begin(), csr_offsets_.end() - 1);
  for (uint32_t ei = 0; ei < edges_.size(); ++ei) {
    csr_index_[cursor[edges_[ei].from]++] = ei;
  }
  csr_valid_ = true;
}

int Ceg::MaxDepthFromSource(const std::vector<uint32_t>& topo) const {
  std::vector<int> depth(num_nodes(), -1);
  depth[source_] = 0;
  int max_depth = 0;
  for (uint32_t v : topo) {
    if (depth[v] < 0) continue;
    for (uint32_t ei : OutEdges(v)) {
      const uint32_t to = edges_[ei].to;
      if (depth[v] + 1 > depth[to]) {
        depth[to] = depth[v] + 1;
        max_depth = std::max(max_depth, depth[to]);
      }
    }
  }
  return max_depth;
}

bool Ceg::IsDag() const {
  std::vector<int> indegree(num_nodes(), 0);
  for (const Edge& e : edges_) ++indegree[e.to];
  std::vector<uint32_t> queue;
  for (uint32_t v = 0; v < num_nodes(); ++v) {
    if (indegree[v] == 0) queue.push_back(v);
  }
  size_t seen = 0;
  while (!queue.empty()) {
    const uint32_t v = queue.back();
    queue.pop_back();
    ++seen;
    for (uint32_t ei : OutEdges(v)) {
      if (--indegree[edges_[ei].to] == 0) queue.push_back(edges_[ei].to);
    }
  }
  return seen == num_nodes();
}

util::StatusOr<Ceg::PathAggregates> Ceg::ComputeAggregates() const {
  // Topological order via Kahn's algorithm.
  std::vector<int> indegree(num_nodes(), 0);
  for (const Edge& e : edges_) ++indegree[e.to];
  std::vector<uint32_t> topo;
  topo.reserve(num_nodes());
  for (uint32_t v = 0; v < num_nodes(); ++v) {
    if (indegree[v] == 0) topo.push_back(v);
  }
  for (size_t i = 0; i < topo.size(); ++i) {
    for (uint32_t ei : OutEdges(topo[i])) {
      if (--indegree[edges_[ei].to] == 0) topo.push_back(edges_[ei].to);
    }
  }
  if (topo.size() != num_nodes()) {
    return util::FailedPreconditionError("CEG is not a DAG");
  }

  // Per (node, hops): path count, min/max log-weight, sum of estimates.
  // The hop dimension is bounded by the longest source-reachable path
  // (<= query size for CEG_O), not by the node count.
  const int max_hops = MaxDepthFromSource(topo);
  struct Cell {
    double count = 0;
    double min_log = kInf;
    double max_log = -kInf;
    double sum = 0;
  };
  // One flat row of max_hops + 1 cells per node.
  const size_t width = static_cast<size_t>(max_hops) + 1;
  std::vector<Cell> dp(num_nodes() * width);
  dp[source_ * width] = {1, 0, 0, 1};

  for (uint32_t v : topo) {
    for (int h = 0; h <= max_hops; ++h) {
      const Cell& cell = dp[v * width + h];
      if (cell.count == 0) continue;
      if (h == max_hops) continue;
      for (uint32_t ei : OutEdges(v)) {
        const Edge& e = edges_[ei];
        Cell& next = dp[e.to * width + h + 1];
        next.count += cell.count;
        next.min_log = std::min(next.min_log, cell.min_log + e.log_weight);
        next.max_log = std::max(next.max_log, cell.max_log + e.log_weight);
        next.sum += cell.sum * std::exp2(e.log_weight);
      }
    }
  }

  PathAggregates out;
  out.min_log = kInf;
  out.max_log = -kInf;
  double total_sum = 0;
  for (int h = 0; h <= max_hops; ++h) {
    const Cell& cell = dp[sink_ * width + h];
    if (cell.count == 0) continue;
    // A zero-hop "path" only exists when source == sink (degenerate CEGs
    // used in tests); report it like any other.
    out.reachable = true;
    out.path_count += cell.count;
    out.min_log = std::min(out.min_log, cell.min_log);
    out.max_log = std::max(out.max_log, cell.max_log);
    total_sum += cell.sum;
    out.per_hop.push_back(
        {h, cell.count, cell.min_log, cell.max_log, cell.sum});
  }
  if (out.reachable) {
    out.avg_estimate = total_sum / out.path_count;
  }
  return out;
}

util::StatusOr<double> Ceg::MinLogWeightDijkstra() const {
  for (const Edge& e : edges_) {
    if (e.log_weight < 0 && !std::isinf(e.log_weight)) {
      return util::FailedPreconditionError(
          "Dijkstra requires non-negative log-weights");
    }
  }
  std::vector<double> dist(num_nodes(), kInf);
  dist[source_] = 0;
  using Item = std::pair<double, uint32_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  heap.push({0, source_});
  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (d > dist[v]) continue;
    if (v == sink_) return d;
    for (uint32_t ei : OutEdges(v)) {
      const Edge& e = edges_[ei];
      if (std::isinf(e.log_weight)) continue;  // weight-0 edge: skip
      const double nd = d + e.log_weight;
      if (nd < dist[e.to]) {
        dist[e.to] = nd;
        heap.push({nd, e.to});
      }
    }
  }
  return dist[sink_];
}

util::StatusOr<Ceg::Path> Ceg::BestPath(HopMode mode, bool maximize) const {
  // Topological order (DAG required).
  std::vector<int> indegree(num_nodes(), 0);
  for (const Edge& e : edges_) ++indegree[e.to];
  std::vector<uint32_t> topo;
  topo.reserve(num_nodes());
  for (uint32_t v = 0; v < num_nodes(); ++v) {
    if (indegree[v] == 0) topo.push_back(v);
  }
  for (size_t i = 0; i < topo.size(); ++i) {
    for (uint32_t ei : OutEdges(topo[i])) {
      if (--indegree[edges_[ei].to] == 0) topo.push_back(edges_[ei].to);
    }
  }
  if (topo.size() != num_nodes()) {
    return util::FailedPreconditionError("CEG is not a DAG");
  }

  const int max_hops = MaxDepthFromSource(topo);
  struct Cell {
    double best = 0;
    bool reachable = false;
    uint32_t via_edge = 0;  // edge used to reach this cell
    int prev_hop = -1;
  };
  std::vector<std::vector<Cell>> dp(num_nodes(),
                                    std::vector<Cell>(max_hops + 1));
  dp[source_][0].reachable = true;

  for (uint32_t v : topo) {
    for (int hop = 0; hop < max_hops; ++hop) {
      const Cell& cell = dp[v][hop];
      if (!cell.reachable) continue;
      for (uint32_t ei : OutEdges(v)) {
        const Edge& e = edges_[ei];
        Cell& next = dp[e.to][hop + 1];
        const double cand = cell.best + e.log_weight;
        const bool better = maximize ? cand > next.best : cand < next.best;
        if (!next.reachable || better) {
          next.reachable = true;
          next.best = cand;
          next.via_edge = ei;
          next.prev_hop = hop;
        }
      }
    }
  }

  // Pick the sink cell according to the hop mode.
  int chosen_hop = -1;
  for (int hop = 0; hop <= max_hops; ++hop) {
    const Cell& cell = dp[sink_][hop];
    if (!cell.reachable) continue;
    if (chosen_hop < 0) {
      chosen_hop = hop;
      if (mode == HopMode::kMinHop) break;
      continue;
    }
    switch (mode) {
      case HopMode::kMaxHop:
        chosen_hop = hop;
        break;
      case HopMode::kMinHop:
        break;
      case HopMode::kAllHops: {
        const double cur = dp[sink_][chosen_hop].best;
        const bool better = maximize ? cell.best > cur : cell.best < cur;
        if (better) chosen_hop = hop;
        break;
      }
    }
  }
  if (chosen_hop < 0) {
    return util::NotFoundError("sink unreachable");
  }

  Path path;
  path.log_weight = dp[sink_][chosen_hop].best;
  uint32_t node = sink_;
  int hop = chosen_hop;
  while (hop > 0) {
    const Cell& cell = dp[node][hop];
    path.edge_indices.push_back(cell.via_edge);
    node = edges_[cell.via_edge].from;
    hop = cell.prev_hop;
  }
  std::reverse(path.edge_indices.begin(), path.edge_indices.end());
  return path;
}

std::vector<Ceg::Path> Ceg::EnumerateSimplePaths(size_t max_paths,
                                                 bool* truncated) const {
  std::vector<Path> out;
  if (truncated != nullptr) *truncated = false;
  std::vector<bool> on_path(num_nodes(), false);
  std::vector<uint32_t> stack;

  // Iterative DFS with explicit edge cursors.
  struct Frame {
    uint32_t node;
    size_t cursor = 0;
  };
  std::vector<Frame> frames;
  frames.push_back({source_});
  on_path[source_] = true;
  double log_weight = 0;

  while (!frames.empty()) {
    Frame& frame = frames.back();
    if (frame.node == sink_ && frame.cursor == 0 && !stack.empty()) {
      out.push_back({stack, log_weight});
      if (out.size() >= max_paths) {
        if (truncated != nullptr) *truncated = true;
        return out;
      }
      // Do not extend past the sink; backtrack.
      on_path[frame.node] = false;
      frames.pop_back();
      if (!stack.empty()) {
        log_weight -= edges_[stack.back()].log_weight;
        stack.pop_back();
      }
      continue;
    }
    if (frame.cursor >= OutEdges(frame.node).size()) {
      on_path[frame.node] = false;
      frames.pop_back();
      if (!stack.empty()) {
        log_weight -= edges_[stack.back()].log_weight;
        stack.pop_back();
      }
      continue;
    }
    const uint32_t ei = OutEdges(frame.node)[frame.cursor++];
    const Edge& e = edges_[ei];
    if (on_path[e.to]) continue;
    on_path[e.to] = true;
    stack.push_back(ei);
    log_weight += e.log_weight;
    frames.push_back({e.to});
  }
  return out;
}

}  // namespace cegraph::ceg
