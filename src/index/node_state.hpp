// Per-node index state: the regular query-to-query index plus the shortcut
// cache. Section IV: "Each node should maintain an index, which essentially
// consists of query-to-query mappings."
//
// Storage is a flat vector of source entries kept sorted by pool ref (the
// source's address), so a probe compares pointers and reads no query and no
// string, with each mapping's refresh stamp stored inline next to its
// target. That order depends on when the pool interned each query, so it is
// never observable: entries() is the one way to walk a partition, and it
// hands out canonical order -- the order of the previous
// std::map<std::string, ...> layout, which keeps sweep results, snapshots
// and audit reports bit-identical. Queries are `const Query*` refs into the
// index service's query pool, and every operation takes pool refs: callers
// resolve query values through that pool before they call in.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "index/cache.hpp"
#include "query/query.hpp"

namespace dhtidx::index {

/// The index partition held by one DHT node.
class IndexNodeState {
 public:
  /// One registered target plus the soft-state refresh stamp of its mapping
  /// and the target's Query::signature(), so lookups skip targets that
  /// cannot cover the wanted MSD without calling covers().
  struct TargetRef {
    const query::Query* target;
    std::uint64_t stamp;
    std::uint64_t signature;
  };

  /// One index key (source query), its targets in insertion order, and the
  /// sum of their byte_size(): the payload of a lookup(source) response.
  struct SourceEntry {
    const query::Query* source;
    std::vector<TargetRef> targets;
    std::uint64_t target_bytes = 0;
  };

  explicit IndexNodeState(std::size_t cache_capacity = 0) : cache_(cache_capacity) {}

  /// Adds the mapping (source ; target). Returns true when it was new; an
  /// existing mapping has its refresh stamp updated to `now` (soft-state
  /// republish, Section IV-C's read/write maintenance).
  bool add(const query::Query* source, const query::Query* target, std::uint64_t now = 0);

  /// The entry of `source`: its targets in insertion order and their byte
  /// sum (an empty entry when none is registered).
  const SourceEntry& entry_of(const query::Query* source) const;

  /// True when any mapping is registered under `source`.
  bool has_source(const query::Query* source) const;

  /// Removes the mapping. Returns true when it existed; sets
  /// `source_now_empty` when it was the last mapping for that source.
  bool remove(const query::Query* source, const query::Query* target,
              bool& source_now_empty);

  /// Drops every mapping whose refresh stamp is older than `cutoff`
  /// (exclusive). Returns the number removed. Publishers that keep
  /// republishing their mappings retain them; entries for vanished
  /// publishers age out -- standard DHT soft-state expiry.
  std::size_t expire_older_than(std::uint64_t cutoff);

  /// Refresh stamp of a mapping, or nullopt when absent.
  std::optional<std::uint64_t> refresh_stamp(const query::Query* source,
                                             const query::Query* target) const;

  /// Distinct index keys (sources) on this node.
  std::size_t key_count() const { return entries_.size(); }

  /// Total query-to-query mappings on this node.
  std::size_t mapping_count() const { return mapping_count_; }

  /// Bytes of regular index state.
  std::uint64_t byte_size() const { return bytes_; }

  ShortcutCache& cache() { return cache_; }
  const ShortcutCache& cache() const { return cache_; }

  /// All sources with their targets, ascending by canonical form: the
  /// canonical view, sorted on each call, for every walk of the partition
  /// (rebalance, snapshots, the auditor, diagnostics). The pointers stay
  /// valid until the partition next changes.
  std::vector<const SourceEntry*> entries() const;

 private:
  /// Sorted position of `source` in entries_ (insertion point when absent).
  std::vector<SourceEntry>::iterator lower_bound(const query::Query* source);
  /// The entry of `source` (entries_.end() when absent): the one binary
  /// search every probe goes through.
  std::vector<SourceEntry>::const_iterator find_entry(const query::Query* source) const;

  std::vector<SourceEntry> entries_;  // sorted by std::less<const Query*> on source
  ShortcutCache cache_;
  std::size_t mapping_count_ = 0;
  std::uint64_t bytes_ = 0;
};

}  // namespace dhtidx::index
