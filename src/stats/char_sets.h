#ifndef CEGRAPH_STATS_CHAR_SETS_H_
#define CEGRAPH_STATS_CHAR_SETS_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.h"
#include "util/arena.h"
#include "util/status.h"

namespace cegraph::stats {

/// The Characteristic Sets summary of Neumann & Moerkotte [22] (§6.4):
/// vertices are grouped by their characteristic set — the set of distinct
/// outgoing edge labels — and, per group, the summary stores the number of
/// member vertices and the total number of outgoing edges per label (from
/// which average per-label multiplicities follow).
///
/// Every instance has one backing, the flat layout below: an owned buffer
/// built from a graph, or arena snapshot bytes mapped in place. Groups are
/// ordered by char set, compared as std::set does.
///
///   u64 num_vertices, u64 num_groups, u64 labels_count, u64 edges_count
///   group table: num_groups x { u64 vertex_count, u64 set_start,
///       u64 set_count, u64 edges_start, u64 edges_count }   (40 bytes)
///   labels blob: labels_count x u32 (each group's char-set labels,
///       strictly ascending), zero-padded to 8
///   edges blob: edges_count x { u32 label, u32 reserved, u64 count }
///       (strictly ascending per group)
///
/// EstimateStar reads a label -> group posting index derived from these
/// bytes and never persisted: per label, one run of { group, vertex_count,
/// edges / vertex_count } in ascending group order (CSR: offsets by label,
/// one entries array). Owned instances build it at construction; mapped
/// ones on first use, fused with the per-group validation scan, so
/// AttachMapped stays O(1) and arena opens stay O(sections).
class CharacteristicSets {
 public:
  explicit CharacteristicSets(const graph::Graph& g);

  uint32_t num_graph_vertices() const { return num_vertices_; }
  size_t num_groups() const { return num_groups_; }

  /// Estimated number of matches of an out-star whose center emits one
  /// edge per entry of `labels` (labels may repeat): the CS formula
  /// sum over groups G containing all labels of
  ///   |G| * prod_l (avg multiplicity of l in G)^{count(l)},
  /// multiplied in ascending label order and summed in group order.
  double EstimateStar(const std::vector<graph::Label>& labels) const;

  /// The flat layout above (a byte copy of the backing).
  std::string SaveArena() const { return std::string(bytes_); }

  /// Wraps a payload written by SaveArena for a graph with `num_labels`
  /// edge labels; `owner` keeps the bytes alive. Fails with a clean Status
  /// on any defect of the header or blob extents; per-group defects
  /// (including labels >= num_labels) surface via ValidateNow (eagerly) or
  /// degrade reads to an empty summary (lazily).
  static util::StatusOr<CharacteristicSets> AttachMapped(
      std::string_view payload, std::shared_ptr<const void> owner,
      uint32_t num_labels);

  /// Forces the deferred per-group scan and index build and reports the
  /// result. Validation-only snapshot passes call this for full rigor;
  /// serving paths pay it on first EstimateStar instead.
  util::Status ValidateNow() const {
    Indexed();
    return index_->status;
  }

 private:
  CharacteristicSets() = default;

  struct Posting {
    uint32_t group;
    uint32_t vertex_count;  ///< at most num_vertices_, checked by the scan
    double avg;             ///< edges / vertex_count for the run's label
  };
  /// The deferred scan's outcome and index, written inside the once only;
  /// heap-held so instances stay movable, shared by copies of the bytes.
  struct Index {
    std::once_flag once;
    util::Status status;  ///< of the scan; OK iff the index is usable
    std::vector<size_t> offsets;  ///< num_labels + 1 run bounds
    std::vector<Posting> postings;
    double empty_star = 0;  ///< sum of all vertex counts, in group order
  };

  /// Runs (or reuses) the deferred scan; nullptr means the group data is
  /// malformed and readers must treat the summary as empty.
  const Index* Indexed() const;
  /// The scan: strictly ascending labels below num_labels_ and a 1:1
  /// labels/edges correspondence per group; fills the index or fails.
  util::Status BuildIndex(Index& index) const;

  uint32_t num_vertices_ = 0;
  uint32_t num_labels_ = 0;
  // Header and blob extents are validated by AttachMapped, group records
  // by the deferred scan.
  std::string_view bytes_;
  std::shared_ptr<const void> owner_;
  uint64_t num_groups_ = 0;
  size_t labels_off_ = 0;  ///< byte offset of the labels blob
  size_t edges_off_ = 0;   ///< byte offset of the edges blob
  std::shared_ptr<Index> index_;
};

}  // namespace cegraph::stats

#endif  // CEGRAPH_STATS_CHAR_SETS_H_
