// Adaptive shortcut cache (Section IV-C).
//
// Each node devotes some entries to "shortcuts": direct mappings from a
// generic query to the descriptor (MSD) of a file that a previous lookup
// reached through that query. A later user looking for the same file via the
// same query jumps straight to the file. Entries are kept in LRU order; a
// capacity of zero means unbounded (the paper's multi-/single-cache
// policies), a positive capacity gives the LRU-k policies.
//
// Entries are `const Query*` refs into the index service's query pool
// (query::QueryInterner), and every operation takes pool refs: a probe is
// pointer identity only, with no canonical-string concatenation or
// string-keyed hashing. Callers resolve query values through that pool
// before they call in (DESIGN.md section 10). A lookup hit is one by_key_
// probe, whatever the size of the source's bucket; bucket_size() answers
// "does the key have shortcuts" without copying it. targets_of() copies a
// bucket; only the wire response and the auditor need that.
//
// Concurrency contract (DESIGN.md sections 13 and 15): `phase_` is the
// barrier-phase capability over every mutable structure. During the sharded
// feed's lookup sub-phase the cache is a frozen snapshot -- workers hold the
// capability shared and may only call the const readers; every mutating entry
// point asserts exclusivity, which the epoch structure provides either by
// running serially or by partitioning nodes across appliers (one shard owns
// each node's cache during the apply sub-phase).
#pragma once

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.hpp"
#include "query/query.hpp"

namespace dhtidx::index {

/// Placement/replacement policy for shortcut entries (Section V-D).
enum class CachePolicy {
  kNone,         ///< no shortcuts at all
  kMulti,        ///< shortcut on every node along the lookup path, unbounded
  kSingle,       ///< shortcut only on the first node contacted, unbounded
  kLru,          ///< like kSingle, but bounded per node with LRU replacement
  kLruMulti,     ///< ablation: multi placement with bounded LRU caches
};

/// True for policies that create any shortcuts.
constexpr bool caching_enabled(CachePolicy policy) { return policy != CachePolicy::kNone; }

/// True for policies that place shortcuts on every path node.
constexpr bool multi_placement(CachePolicy policy) {
  return policy == CachePolicy::kMulti || policy == CachePolicy::kLruMulti;
}

/// True for policies with bounded per-node capacity.
constexpr bool bounded_cache(CachePolicy policy) {
  return policy == CachePolicy::kLru || policy == CachePolicy::kLruMulti;
}

std::string to_string(CachePolicy policy);

/// One node's shortcut store.
class ShortcutCache {
 public:
  /// capacity == 0 means unbounded.
  explicit ShortcutCache(std::size_t capacity = 0) : capacity_(capacity) {}

  /// All targets cached under `source`, most recently used first.
  /// Does not update recency (use touch() after choosing one).
  std::vector<const query::Query*> targets_of(const query::Query* source) const;

  /// True when the exact (source, target) shortcut is present.
  bool contains(const query::Query* source, const query::Query* target) const;

  /// Number of targets cached under `source` (targets_of()'s size, without
  /// copying the bucket).
  std::size_t bucket_size(const query::Query* source) const;

  /// Inserts (or refreshes) a shortcut. Returns true when a new entry was
  /// created (false when it already existed and was only touched).
  bool insert(const query::Query* source, const query::Query* target);

  /// Marks the entry as most recently used.
  void touch(const query::Query* source, const query::Query* target);

  /// Removes the exact (source, target) shortcut if present. Returns true
  /// when an entry was removed. Used to invalidate shortcuts whose target
  /// turned out to be unreachable (stale after a crash or departure).
  bool erase(const query::Query* source, const query::Query* target);

  /// Every (source, target) shortcut in global recency order, most recently
  /// used first. Exposed for diagnostics and the audit subsystem; the
  /// pointers are the pool refs the entries were inserted with.
  std::vector<std::pair<const query::Query*, const query::Query*>> entries() const;

  /// Number of distinct source buckets currently tracked.
  std::size_t source_count() const {
    phase_.assert_shared();
    return by_source_.size();
  }

  std::size_t size() const {
    phase_.assert_shared();
    return lru_.size();
  }
  std::size_t capacity() const { return capacity_; }
  bool full() const {
    phase_.assert_shared();
    return capacity_ != 0 && lru_.size() >= capacity_;
  }
  std::uint64_t byte_size() const {
    phase_.assert_shared();
    return bytes_;
  }

  /// Number of entries evicted so far.
  std::uint64_t evictions() const {
    phase_.assert_shared();
    return evictions_;
  }

 private:
  struct Entry {
    const query::Query* source;
    const query::Query* target;
  };

  struct PairHash {
    std::size_t operator()(const std::pair<const query::Query*, const query::Query*>& p)
        const {
      // Splitmix-style combine of the two pointer identities.
      std::size_t h = std::hash<const query::Query*>{}(p.first);
      h ^= std::hash<const query::Query*>{}(p.second) + 0x9e3779b97f4a7c15ull +
           (h << 6) + (h >> 2);
      return h;
    }
  };

  void evict_lru() DHTIDX_REQUIRES(phase_);

  /// Moves the entry to the front of its source bucket so targets_of() keeps
  /// returning targets most recently used first.
  void promote_in_bucket(const query::Query* source,
                         std::list<Entry>::iterator entry_it) DHTIDX_REQUIRES(phase_);

  std::size_t capacity_;
  /// Phase capability over the mutable cache structures: shared while the
  /// cache is a frozen epoch snapshot (parallel lookup sub-phase, metrics,
  /// auditor), exclusive for every mutation (serial code, or the one applier
  /// shard that owns this node during the apply sub-phase).
  PhaseCapability phase_;
  std::list<Entry> lru_ DHTIDX_GUARDED_BY(phase_);  // front = most recently used
  // Keyed by interned pointer identity; neither map is ever iterated, so the
  // unordered layout cannot leak into observable (deterministic) behaviour.
  // dhtidx-lint: allow(hot-path-map) "exact-key probes only, never iterated (see comment above)"
  std::unordered_map<std::pair<const query::Query*, const query::Query*>,
                     std::list<Entry>::iterator, PairHash>
      by_key_ DHTIDX_GUARDED_BY(phase_);
  // dhtidx-lint: allow(hot-path-map) "exact-key probes only, never iterated (see comment above)"
  std::unordered_map<const query::Query*, std::vector<std::list<Entry>::iterator>>
      by_source_ DHTIDX_GUARDED_BY(phase_);
  std::uint64_t bytes_ DHTIDX_GUARDED_BY(phase_) = 0;
  std::uint64_t evictions_ DHTIDX_GUARDED_BY(phase_) = 0;
};

}  // namespace dhtidx::index
