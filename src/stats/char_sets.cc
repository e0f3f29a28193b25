#include "stats/char_sets.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>
#include <unordered_map>
#include <utility>

namespace cegraph::stats {

namespace {

// Fixed strides of the flat layout (see char_sets.h).
constexpr size_t kCsHeaderBytes = 32;
constexpr size_t kCsGroupStride = 40;
constexpr size_t kCsEdgeStride = 16;

util::Status Malformed(const char* what) {
  return util::InvalidArgumentError(std::string("char-sets section: ") + what);
}

/// A group to encode: `count` entries from `start` in the caller's parallel
/// label, edge-label and edge-count pools.
struct PendingGroup {
  uint64_t vertex_count, start, count;
};

/// Writes the flat layout for `groups`, in the order given.
std::string EncodeFlat(uint64_t num_vertices,
                       const std::vector<PendingGroup>& groups,
                       const std::vector<graph::Label>& labels,
                       const std::vector<graph::Label>& edge_labels,
                       const std::vector<uint64_t>& edges) {
  uint64_t pairs = 0;
  for (const PendingGroup& group : groups) pairs += group.count;
  const size_t labels_bytes = (pairs * 4 + 7) / 8 * 8;
  // Zero-filled, so padding is skipped, not written.
  std::string out(kCsHeaderBytes + groups.size() * kCsGroupStride +
                      labels_bytes + pairs * kCsEdgeStride,
                  '\0');
  auto put = [](char*& at, uint64_t v, size_t bytes) {
    for (size_t i = 0; i < bytes; ++i) *at++ = static_cast<char>(v >> (8 * i));
  };
  char* at = out.data();
  // labels_count and edges_count are both `pairs`: one edge per label.
  for (uint64_t v : {num_vertices, uint64_t{groups.size()}, pairs, pairs}) {
    put(at, v, 8);
  }
  uint64_t start = 0;
  for (const PendingGroup& g : groups) {
    for (uint64_t v : {g.vertex_count, start, g.count, start, g.count}) {
      put(at, v, 8);
    }
    start += g.count;
  }
  char* edge_at = at + labels_bytes;
  for (const PendingGroup& group : groups) {
    for (size_t i = group.start; i < group.start + group.count; ++i) {
      put(at, labels[i], 4);
      put(edge_at, edge_labels[i], 8);  // u32 label, u32 reserved (zero)
      put(edge_at, edges[i], 8);
    }
  }
  return out;
}

/// Adopts freshly encoded bytes as an owned backing with its index built.
util::StatusOr<CharacteristicSets> AttachOwned(std::string bytes,
                                               uint32_t num_labels) {
  auto owned = std::make_shared<const std::string>(std::move(bytes));
  auto cs = CharacteristicSets::AttachMapped(*owned, owned, num_labels);
  if (cs.ok()) CEGRAPH_RETURN_IF_ERROR(cs->ValidateNow());
  return cs;
}

}  // namespace

CharacteristicSets::CharacteristicSets(const graph::Graph& g) {
  const uint32_t n = g.num_vertices();
  // Each vertex's distinct out-labels (ascending) and out-degrees as a CSR
  // over vertices, from two passes over the source-sorted relations.
  std::vector<uint64_t> off(size_t{n} + 1, 0);
  auto for_each_source = [&g](auto&& fn) {
    for (graph::Label l = 0; l < g.num_labels(); ++l) {
      const std::span<const graph::Edge> rel = g.RelationEdges(l);
      for (size_t i = 0, j = 0; i < rel.size(); i = j) {
        while (j < rel.size() && rel[j].src == rel[i].src) ++j;
        fn(rel[i].src, l, j - i);
      }
    }
  };
  for_each_source([&](graph::VertexId v, auto...) { ++off[v + 1]; });
  for (uint32_t v = 0; v < n; ++v) off[v + 1] += off[v];
  std::vector<graph::Label> labels(off[n]);
  std::vector<uint64_t> degrees(off[n]);
  std::vector<uint64_t> fill(off.begin(), off.end() - 1);
  for_each_source([&](graph::VertexId v, graph::Label l, size_t degree) {
    labels[fill[v]] = l;
    degrees[fill[v]++] = degree;
  });

  // Group vertices by their label run, keyed in place by its bytes. A
  // group keeps its first vertex's run and sums its members' degrees there.
  std::vector<PendingGroup> groups;
  std::unordered_map<std::string_view, size_t> by_set;
  for (graph::VertexId v = 0; v < n; ++v) {
    const size_t start = off[v], count = off[v + 1] - off[v];
    if (count == 0) continue;
    const std::string_view key(reinterpret_cast<const char*>(&labels[start]),
                               count * sizeof(graph::Label));
    auto [it, fresh] = by_set.try_emplace(key, groups.size());
    if (fresh) groups.push_back({0, start, count});
    PendingGroup& group = groups[it->second];
    ++group.vertex_count;
    for (size_t i = 0; !fresh && i < count; ++i) {
      degrees[group.start + i] += degrees[start + i];
    }
  }
  // Order groups as std::set<Label> compares: lexicographically.
  auto run = [&labels](const PendingGroup& group) {
    return std::span(labels).subspan(group.start, group.count);
  };
  std::sort(groups.begin(), groups.end(), [&](const auto& a, const auto& b) {
    return std::ranges::lexicographical_compare(run(a), run(b));
  });
  *this = AttachOwned(EncodeFlat(n, groups, labels, labels, degrees),
                      g.num_labels())
              .value();
}

void CharacteristicSets::Save(util::serde::Writer& writer) const {
  writer.WriteU32(num_vertices_);
  // A payload that failed the deferred scan saves as an empty summary.
  const bool valid = Indexed() != nullptr;
  writer.WriteU64(valid ? num_groups_ : 0);
  for (uint64_t gi = 0; valid && gi < num_groups_; ++gi) {
    const char* ge = bytes_.data() + kCsHeaderBytes + gi * kCsGroupStride;
    const uint64_t set_count = util::LoadLittleU64(ge + 16);
    // The scan checked that the edge keys mirror the char set 1:1.
    const char* edges = bytes_.data() + edges_off_ +
                        util::LoadLittleU64(ge + 24) * kCsEdgeStride;
    const char* end = edges + set_count * kCsEdgeStride;
    writer.WriteU64(set_count);
    for (const char* e = edges; e < end; e += kCsEdgeStride) {
      writer.WriteU32(util::LoadLittleU32(e));
    }
    writer.WriteU64(util::LoadLittleU64(ge));  // vertex_count
    writer.WriteU64(set_count);
    for (const char* e = edges; e < end; e += kCsEdgeStride) {
      writer.WriteU32(util::LoadLittleU32(e));
      writer.WriteU64(util::LoadLittleU64(e + 8));
    }
  }
}

util::StatusOr<CharacteristicSets> CharacteristicSets::Load(
    util::serde::Reader& reader, uint32_t num_labels) {
  // After the first failed read every field reads as 0 and the loops stop.
  util::Status status;
  auto get = [&status](auto value) -> uint64_t {
    if (!value.ok() && status.ok()) status = value.status();
    return value.ok() ? *value : 0;
  };
  const uint64_t num_vertices = get(reader.ReadU32());
  const uint64_t num_groups = get(reader.ReadU64());
  std::vector<PendingGroup> groups;
  std::vector<graph::Label> labels, edge_labels;
  std::vector<uint64_t> edges;
  for (uint64_t gi = 0; gi < num_groups && status.ok(); ++gi) {
    PendingGroup group{0, labels.size(), get(reader.ReadU64())};
    for (uint64_t i = 0; i < group.count && status.ok(); ++i) {
      labels.push_back(static_cast<graph::Label>(get(reader.ReadU32())));
    }
    group.vertex_count = get(reader.ReadU64());
    if (get(reader.ReadU64()) != group.count && status.ok()) {
      status = util::InvalidArgumentError("char-set label/edge arity mismatch");
    }
    for (uint64_t i = 0; i < group.count && status.ok(); ++i) {
      edge_labels.push_back(static_cast<graph::Label>(get(reader.ReadU32())));
      edges.push_back(get(reader.ReadU64()));
    }
    groups.push_back(group);
  }
  if (!status.ok()) return status;
  // The flat scan enforces the rest: non-empty groups, strictly ascending
  // labels mirrored by the edge keys, every label below num_labels.
  return AttachOwned(
      EncodeFlat(num_vertices, groups, labels, edge_labels, edges), num_labels);
}

util::StatusOr<CharacteristicSets> CharacteristicSets::AttachMapped(
    std::string_view payload, std::shared_ptr<const void> owner,
    uint32_t num_labels) {
  if (payload.size() < kCsHeaderBytes) return Malformed("truncated header");
  const char* base = payload.data();
  const uint64_t num_vertices = util::LoadLittleU64(base);
  const uint64_t num_groups = util::LoadLittleU64(base + 8);
  const uint64_t labels_count = util::LoadLittleU64(base + 16);
  const uint64_t edges_count = util::LoadLittleU64(base + 24);
  if (num_vertices > 0xffffffffull) return Malformed("vertex count overflow");
  // Sizes are recomputed bottom-up with overflow-safe division checks.
  if (num_groups > (payload.size() - kCsHeaderBytes) / kCsGroupStride) {
    return Malformed("group table exceeds payload");
  }
  const size_t labels_off = kCsHeaderBytes + num_groups * kCsGroupStride;
  if (labels_count > (payload.size() - labels_off) / 4) {
    return Malformed("labels blob exceeds payload");
  }
  const size_t edges_off = labels_off + (labels_count * 4 + 7) / 8 * 8;
  if (edges_off > payload.size() ||
      edges_count > (payload.size() - edges_off) / kCsEdgeStride) {
    return Malformed("edges blob exceeds payload");
  }

  CharacteristicSets cs;
  cs.num_vertices_ = static_cast<uint32_t>(num_vertices);
  cs.num_labels_ = num_labels;
  cs.bytes_ = payload;
  cs.owner_ = std::move(owner);
  cs.num_groups_ = num_groups;
  cs.labels_off_ = labels_off;
  cs.edges_off_ = edges_off;
  // The per-group scan and index build wait for first use (BuildIndex), so
  // an arena open pays O(1) here however many groups the graph has.
  cs.index_ = std::make_shared<Index>();
  return cs;
}

util::Status CharacteristicSets::BuildIndex(Index& index) const {
  const char* base = bytes_.data();
  const uint64_t labels_count = util::LoadLittleU64(base + 16);
  const uint64_t edges_count = util::LoadLittleU64(base + 24);
  if (num_groups_ > 0xffffffffull) return Malformed("group count overflow");
  // Pass 1: what the graph-scan constructor guarantees, group by group,
  // counting each label's run.
  index.offsets.assign(size_t{num_labels_} + 1, 0);
  for (uint64_t gi = 0; gi < num_groups_; ++gi) {
    const char* ge = base + kCsHeaderBytes + gi * kCsGroupStride;
    const uint64_t vertex_count = util::LoadLittleU64(ge);
    const uint64_t set_start = util::LoadLittleU64(ge + 8);
    const uint64_t set_count = util::LoadLittleU64(ge + 16);
    const uint64_t edges_start = util::LoadLittleU64(ge + 24);
    if (vertex_count == 0 || vertex_count > num_vertices_ ||
        util::LoadLittleU64(ge + 32) != set_count ||
        set_start > labels_count || set_count > labels_count - set_start ||
        edges_start > edges_count || set_count > edges_count - edges_start) {
      return Malformed("empty, oversized or out-of-bounds group record");
    }
    for (uint64_t i = 0; i < set_count; ++i) {
      const char* at = base + labels_off_ + (set_start + i) * 4;
      const uint32_t l = util::LoadLittleU32(at);
      if (l != util::LoadLittleU32(base + edges_off_ +
                                   (edges_start + i) * kCsEdgeStride) ||
          (i > 0 && l <= util::LoadLittleU32(at - 4))) {
        return Malformed("labels not ascending or not mirrored by edges");
      }
      if (l >= num_labels_) return Malformed("label out of range");
      ++index.offsets[l + 1];
    }
    index.empty_star += static_cast<double>(vertex_count);
  }
  // Pass 2: a counting sort by label, so each run stays in group order.
  std::partial_sum(index.offsets.begin(), index.offsets.end(),
                   index.offsets.begin());
  index.postings.resize(index.offsets.back());
  std::vector<size_t> fill(index.offsets.begin(), index.offsets.end() - 1);
  for (uint64_t gi = 0; gi < num_groups_; ++gi) {
    const char* ge = base + kCsHeaderBytes + gi * kCsGroupStride;
    const uint64_t vertex_count = util::LoadLittleU64(ge);
    const char* e =
        base + edges_off_ + util::LoadLittleU64(ge + 24) * kCsEdgeStride;
    for (uint64_t i = 0; i < util::LoadLittleU64(ge + 16);
         ++i, e += kCsEdgeStride) {
      index.postings[fill[util::LoadLittleU32(e)]++] = {
          static_cast<uint32_t>(gi), static_cast<uint32_t>(vertex_count),
          static_cast<double>(util::LoadLittleU64(e + 8)) /
              static_cast<double>(vertex_count)};
    }
  }
  return util::Status::OK();
}

const CharacteristicSets::Index* CharacteristicSets::Indexed() const {
  std::call_once(index_->once, [&] { index_->status = BuildIndex(*index_); });
  return index_->status.ok() ? index_.get() : nullptr;
}

double CharacteristicSets::EstimateStar(
    const std::vector<graph::Label>& labels) const {
  // A payload that fails the (deferred, latched) group scan serves as an
  // empty summary: degraded, but never an out-of-bounds read.
  const Index* index = Indexed();
  if (index == nullptr) return 0;
  if (labels.empty()) return index->empty_star;
  // One posting run per distinct label, ascending, with its multiplicity;
  // the shortest run leads the intersection.
  struct Run {
    const Posting* at;
    const Posting* end;
    int cnt;
  };
  std::vector<graph::Label> sorted(labels);
  std::sort(sorted.begin(), sorted.end());
  std::vector<Run> runs;
  size_t lead = 0;
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0 && sorted[i] == sorted[i - 1]) {
      ++runs.back().cnt;
      continue;
    }
    if (sorted[i] >= num_labels_) return 0;  // no group has this label
    const Posting* run = index->postings.data();
    runs.push_back({run + index->offsets[sorted[i]],
                    run + index->offsets[sorted[i] + 1], 1});
    if (runs.back().end - runs.back().at < runs[lead].end - runs[lead].at) {
      lead = runs.size() - 1;
    }
  }
  double total = 0;
  if (runs.size() == 1) {  // a single-label star: one tight loop
    for (const Posting* p = runs[0].at; p != runs[0].end; ++p) {
      double contribution = static_cast<double>(p->vertex_count);
      contribution *= std::pow(p->avg, runs[0].cnt);
      total += contribution;
    }
    return total;
  }
  // The other cursors only move forward, so hits arrive in ascending group
  // order; each hit multiplies its factors in ascending label order.
  for (; runs[lead].at != runs[lead].end; ++runs[lead].at) {
    const uint32_t group = runs[lead].at->group;
    bool covers = true;
    for (size_t r = 0; r < runs.size() && covers; ++r) {
      if (r == lead) continue;
      Run& run = runs[r];
      run.at = std::lower_bound(
          run.at, run.end, group,
          [](const Posting& p, uint32_t g) { return p.group < g; });
      if (run.at == run.end) return total;
      covers = run.at->group == group;
    }
    if (!covers) continue;
    double contribution = static_cast<double>(runs[lead].at->vertex_count);
    for (const Run& run : runs) contribution *= std::pow(run.at->avg, run.cnt);
    total += contribution;
  }
  return total;
}

}  // namespace cegraph::stats
