#include "stats/markov_table.h"

#include <utility>
#include <vector>

#include "util/shard.h"

namespace cegraph::stats {

bool MarkovTable::Contains(const query::QueryGraph& pattern) const {
  return pattern.num_edges() >= 1 &&
         pattern.num_edges() <= static_cast<uint32_t>(h_) &&
         pattern.IsConnected();
}

util::StatusOr<double> MarkovTable::Cardinality(
    const query::QueryGraph& pattern) const {
  if (!Contains(pattern)) {
    return util::InvalidArgumentError(
        "pattern not covered by this Markov table");
  }
  const std::string key = pattern.CanonicalCode();
  if (const double* hit = cache_.Find(key)) return *hit;
  // Copy-on-miss from mapped snapshot bytes: a hit is decoded off the
  // arena and memoized, so the page-cache probe is paid once per entry.
  if (double mapped_value; FindMapped(key, &mapped_value)) {
    return cache_.Insert(key, mapped_value);
  }
  // Count outside the lock: exact matching dominates, and two threads
  // racing on the same cold pattern just compute the same value twice.
  auto count = matcher_.Count(pattern);
  if (!count.ok()) return count.status();
  return cache_.Insert(key, *count);
}

bool MarkovTable::FindMapped(const std::string& key, double* value) const {
  for (const auto& [index, owner] : mapped_) {
    auto hit = index.Find(key);
    if (!hit.ok()) continue;  // clean miss or corrupt index: recompute
    util::serde::Reader reader(*hit);
    auto decoded = reader.ReadDouble();
    if (!decoded.ok() || !reader.AtEnd()) continue;
    *value = *decoded;
    return true;
  }
  return false;
}

void MarkovTable::ExportArenaEntries(util::ArenaIndexBuilder& builder,
                                     uint32_t shard,
                                     uint32_t num_shards) const {
  cache_.ForEach([&](const std::string& key, const double& value) {
    if (util::InShard(util::StableHash64(key), shard, num_shards)) {
      util::serde::Writer v;
      v.WriteDouble(value);
      builder.Add(key, v.TakeBuffer());
    }
  });
}

util::Status MarkovTable::MaterializeFromIndex(
    const util::MappedIndex& index) const {
  util::Status decode = util::Status::OK();
  util::Status walk =
      index.Visit([&](std::string_view key, std::string_view value) {
        if (!decode.ok()) return;
        util::serde::Reader reader(value);
        auto decoded = reader.ReadDouble();
        if (!decoded.ok() || !reader.AtEnd()) {
          decode = util::InvalidArgumentError("markov arena entry malformed");
          return;
        }
        cache_.Insert(std::string(key), *decoded);
      });
  if (!walk.ok()) return walk;
  return decode;
}

size_t MarkovTable::ApproximateSizeBytes() const {
  if (cache_.size() == 0) return 0;
  // libstdc++-style hash node: next pointer + cached hash code per entry.
  constexpr size_t kNodeOverhead = 2 * sizeof(void*);
  size_t bytes = cache_.bucket_count() * sizeof(void*);
  cache_.ForEach([&](const std::string& key, const double& value) {
    bytes += sizeof(key) + sizeof(value) + kNodeOverhead;
    // The key's characters live on the heap unless the small-string buffer
    // holds them (detected by whether data() points into the object).
    const char* data = key.data();
    const char* obj = reinterpret_cast<const char*>(&key);
    const bool small_string = data >= obj && data < obj + sizeof(key);
    if (!small_string) bytes += key.capacity() + 1;
  });
  return bytes;
}

}  // namespace cegraph::stats
