#include "index/cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "query/interner.hpp"

namespace dhtidx::index {
namespace {

using query::Query;

/// `text` as a pool ref. The cache takes refs from one query pool, as every
/// node's cache does from the index service's; the pool never frees, so the
/// refs stay valid for the whole test binary.
const Query* q(const std::string& text) {
  static query::QueryInterner pool;
  return pool.intern(Query::parse(text));
}

TEST(ShortcutCache, InsertAndFind) {
  ShortcutCache cache;
  const Query* source = q("/article/author/last/Smith");
  const Query* target = q("/article[author/last=Smith][title=TCP]");
  EXPECT_TRUE(cache.insert(source, target));
  EXPECT_TRUE(cache.contains(source, target));
  const auto found = cache.targets_of(source);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0], target);
}

TEST(ShortcutCache, ReinsertOnlyTouches) {
  ShortcutCache cache;
  const Query* source = q("/article/author/last/Smith");
  const Query* target = q("/article[title=TCP]");
  EXPECT_TRUE(cache.insert(source, target));
  EXPECT_FALSE(cache.insert(source, target));
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ShortcutCache, MultipleTargetsPerSource) {
  ShortcutCache cache;
  const Query* source = q("/article/author/last/Smith");
  cache.insert(source, q("/article[title=TCP]"));
  cache.insert(source, q("/article[title=IPv6]"));
  EXPECT_EQ(cache.targets_of(source).size(), 2u);
  EXPECT_EQ(cache.size(), 2u);
}

// Regression: targets_of() documents "most recently used first", but the
// per-source buckets used to keep plain insertion order and were never
// reordered by touch() or a refreshing insert().
TEST(ShortcutCache, FindReturnsMostRecentlyUsedFirst) {
  ShortcutCache cache;
  const Query* source = q("/article/author/last/Smith");
  const Query* a = q("/article[title=A]");
  const Query* b = q("/article[title=B]");
  const Query* c = q("/article[title=C]");
  cache.insert(source, a);
  cache.insert(source, b);
  cache.insert(source, c);
  // Most recent insertion first, not insertion order.
  auto found = cache.targets_of(source);
  ASSERT_EQ(found.size(), 3u);
  EXPECT_EQ(found[0], c);
  EXPECT_EQ(found[1], b);
  EXPECT_EQ(found[2], a);

  cache.touch(source, a);
  found = cache.targets_of(source);
  EXPECT_EQ(found[0], a);
  EXPECT_EQ(found[1], c);
  EXPECT_EQ(found[2], b);

  cache.insert(source, b);  // refresh, not a new entry: also promotes
  found = cache.targets_of(source);
  EXPECT_EQ(found[0], b);
  EXPECT_EQ(found[1], a);
  EXPECT_EQ(found[2], c);
  EXPECT_EQ(cache.size(), 3u);
}

// entries() exposes the global recency order (MRU first) across all sources;
// the auditor uses it to cross-check the per-source buckets.
TEST(ShortcutCache, EntriesWalkGlobalRecencyOrder) {
  ShortcutCache cache;
  const Query* smith = q("/article/author/last/Smith");
  const Query* jones = q("/article/author/last/Jones");
  const Query* a = q("/article[title=A]");
  const Query* b = q("/article[title=B]");
  const Query* c = q("/article[title=C]");
  cache.insert(smith, a);
  cache.insert(jones, b);
  cache.insert(smith, c);
  cache.touch(jones, b);

  const auto entries = cache.entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].first, jones);
  EXPECT_EQ(entries[0].second, b);
  EXPECT_EQ(entries[1].first, smith);
  EXPECT_EQ(entries[1].second, c);
  EXPECT_EQ(entries[2].first, smith);
  EXPECT_EQ(entries[2].second, a);
  EXPECT_EQ(cache.source_count(), 2u);
}

TEST(ShortcutCache, RecencyOrderSurvivesEviction) {
  ShortcutCache cache{3};
  const Query* source = q("/article/author/last/Smith");
  const Query* a = q("/article[title=A]");
  const Query* b = q("/article[title=B]");
  const Query* c = q("/article[title=C]");
  const Query* d = q("/article[title=D]");
  cache.insert(source, a);
  cache.insert(source, b);
  cache.insert(source, c);
  cache.touch(source, a);   // order now a, c, b
  cache.insert(source, d);  // evicts b (the LRU entry)
  EXPECT_FALSE(cache.contains(source, b));
  const auto found = cache.targets_of(source);
  ASSERT_EQ(found.size(), 3u);
  EXPECT_EQ(found[0], d);
  EXPECT_EQ(found[1], a);
  EXPECT_EQ(found[2], c);
}

TEST(ShortcutCache, TouchOnOtherSourceLeavesBucketAlone) {
  ShortcutCache cache;
  const Query* s1 = q("/article/author/last/Smith");
  const Query* s2 = q("/article/author/last/Jones");
  const Query* a = q("/article[title=A]");
  const Query* b = q("/article[title=B]");
  cache.insert(s1, a);
  cache.insert(s1, b);
  cache.insert(s2, a);
  cache.touch(s2, a);  // must not disturb s1's ordering
  const auto found = cache.targets_of(s1);
  ASSERT_EQ(found.size(), 2u);
  EXPECT_EQ(found[0], b);
  EXPECT_EQ(found[1], a);
}

TEST(ShortcutCache, MissIsEmpty) {
  ShortcutCache cache;
  EXPECT_TRUE(cache.targets_of(q("/article/title/Nope")).empty());
  EXPECT_FALSE(cache.contains(q("/article/title/Nope"), q("/article[year=1]")));
}

TEST(ShortcutCache, LruEvictsOldestEntry) {
  ShortcutCache cache{2};
  const Query* a = q("/article/title/A");
  const Query* b = q("/article/title/B");
  const Query* c = q("/article/title/C");
  const Query* target = q("/article[year=2000]");
  cache.insert(a, target);
  cache.insert(b, target);
  cache.insert(c, target);  // evicts a
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cache.contains(a, target));
  EXPECT_TRUE(cache.contains(b, target));
  EXPECT_TRUE(cache.contains(c, target));
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(ShortcutCache, TouchProtectsFromEviction) {
  ShortcutCache cache{2};
  const Query* a = q("/article/title/A");
  const Query* b = q("/article/title/B");
  const Query* c = q("/article/title/C");
  const Query* target = q("/article[year=2000]");
  cache.insert(a, target);
  cache.insert(b, target);
  cache.touch(a, target);   // a becomes most recent
  cache.insert(c, target);  // evicts b, not a
  EXPECT_TRUE(cache.contains(a, target));
  EXPECT_FALSE(cache.contains(b, target));
}

TEST(ShortcutCache, ReinsertAlsoRefreshesRecency) {
  ShortcutCache cache{2};
  const Query* a = q("/article/title/A");
  const Query* b = q("/article/title/B");
  const Query* c = q("/article/title/C");
  const Query* target = q("/article[year=2000]");
  cache.insert(a, target);
  cache.insert(b, target);
  cache.insert(a, target);  // refresh a
  cache.insert(c, target);  // evicts b
  EXPECT_TRUE(cache.contains(a, target));
  EXPECT_FALSE(cache.contains(b, target));
}

TEST(ShortcutCache, FullReportsCapacityReached) {
  ShortcutCache cache{2};
  EXPECT_FALSE(cache.full());
  cache.insert(q("/a/x/1"), q("/a[y=1]"));
  EXPECT_FALSE(cache.full());
  cache.insert(q("/a/x/2"), q("/a[y=2]"));
  EXPECT_TRUE(cache.full());
}

TEST(ShortcutCache, UnboundedNeverEvicts) {
  ShortcutCache cache;  // capacity 0
  const Query* target = q("/article[year=2000]");
  for (int i = 0; i < 500; ++i) {
    cache.insert(q("/article/title/T" + std::to_string(i)), target);
  }
  EXPECT_EQ(cache.size(), 500u);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_FALSE(cache.full());
}

TEST(ShortcutCache, ByteAccountingFollowsInsertAndEvict) {
  ShortcutCache cache{1};
  const Query* a = q("/article/title/A");
  const Query* t = q("/article[year=2000]");
  cache.insert(a, t);
  const auto bytes = cache.byte_size();
  EXPECT_EQ(bytes, a->byte_size() + t->byte_size());
  cache.insert(q("/article/title/B"), t);  // evicts a
  EXPECT_GT(cache.byte_size(), 0u);
  EXPECT_NE(cache.byte_size(), bytes + q("/article/title/B")->byte_size() + t->byte_size());
}

TEST(ShortcutCache, EvictionCleansSourceBucket) {
  ShortcutCache cache{1};
  const Query* a = q("/article/title/A");
  const Query* t1 = q("/article[year=1]");
  cache.insert(a, t1);
  cache.insert(q("/article/title/B"), t1);
  EXPECT_TRUE(cache.targets_of(a).empty());
}

/// The reference the cache must agree with: every (source, target) pair in one
/// plain vector, most recently used first, with the same insert, touch, erase
/// and evict rules written out directly. capacity 0 is unbounded.
struct ReferenceCache {
  using Pair = std::pair<const Query*, const Query*>;

  std::size_t capacity;
  std::vector<Pair> mru;
  std::uint64_t bytes = 0;
  std::uint64_t evictions = 0;

  std::vector<Pair>::iterator find(const Query* source, const Query* target) {
    return std::find(mru.begin(), mru.end(), Pair{source, target});
  }
  bool promote(const Query* source, const Query* target) {
    const auto it = find(source, target);
    if (it == mru.end()) return false;
    std::rotate(mru.begin(), it, std::next(it));
    return true;
  }
  bool insert(const Query* source, const Query* target) {
    if (promote(source, target)) return false;
    while (capacity != 0 && mru.size() >= capacity) {
      bytes -= mru.back().first->byte_size() + mru.back().second->byte_size();
      mru.pop_back();
      ++evictions;
    }
    mru.insert(mru.begin(), Pair{source, target});
    bytes += source->byte_size() + target->byte_size();
    return true;
  }
  bool erase(const Query* source, const Query* target) {
    const auto it = find(source, target);
    if (it == mru.end()) return false;
    bytes -= source->byte_size() + target->byte_size();
    mru.erase(it);
    return true;
  }
  std::vector<const Query*> targets_of(const Query* source) const {
    std::vector<const Query*> out;
    for (const auto& [s, t] : mru) {
      if (s == source) out.push_back(t);
    }
    return out;
  }
};

/// Every observable of `cache` against `model`: contains() on every pool
/// pair, bucket_size() and the order of targets_of() on every source, the
/// order of entries(), and the size, byte and eviction counts.
::testing::AssertionResult agrees(const ShortcutCache& cache, const ReferenceCache& model,
                                  const std::vector<const Query*>& sources,
                                  const std::vector<const Query*>& targets) {
  for (const Query* s : sources) {
    for (const Query* t : targets) {
      const bool expected = std::find(model.mru.begin(), model.mru.end(),
                                      ReferenceCache::Pair{s, t}) != model.mru.end();
      if (cache.contains(s, t) != expected) {
        return ::testing::AssertionFailure()
               << "contains(" << s->canonical() << ", " << t->canonical() << ") is "
               << !expected;
      }
    }
    const std::vector<const Query*> bucket = model.targets_of(s);
    if (cache.bucket_size(s) != bucket.size()) {
      return ::testing::AssertionFailure() << "bucket_size(" << s->canonical() << ") is "
                                           << cache.bucket_size(s) << ", not "
                                           << bucket.size();
    }
    if (cache.targets_of(s) != bucket) {
      return ::testing::AssertionFailure()
             << "targets_of(" << s->canonical() << ") is out of MRU order";
    }
  }
  if (cache.entries() != model.mru) {
    return ::testing::AssertionFailure() << "entries() differ from the MRU list";
  }
  if (cache.size() != model.mru.size() || cache.byte_size() != model.bytes ||
      cache.evictions() != model.evictions) {
    return ::testing::AssertionFailure()
           << "size/bytes/evictions " << cache.size() << "/" << cache.byte_size() << "/"
           << cache.evictions() << ", model " << model.mru.size() << "/" << model.bytes
           << "/" << model.evictions;
  }
  return ::testing::AssertionSuccess();
}

// Fixed-seed random insert, touch and erase over 5 sources and 35 targets.
// Half the operations name a pair the cache holds, so erase, eviction and
// promotion interleave inside one bucket, which no hand-written case above
// does; the bucket order this pins is the one resolve and the wire response
// read.
TEST(ShortcutCache, MatchesAReferenceModelUnderRandomOperations) {
  std::vector<const Query*> sources;
  std::vector<const Query*> targets;
  for (int i = 0; i < 5; ++i) {
    sources.push_back(q("/article/author/last/A" + std::to_string(i)));
  }
  for (int i = 0; i < 35; ++i) {
    targets.push_back(q("/article[title=T" + std::to_string(i) + "]"));
  }

  for (const std::size_t capacity : {0u, 1u, 3u, 10u}) {
    ShortcutCache cache{capacity};
    ReferenceCache model{capacity, {}};
    Rng rng{0xCAC4E + capacity};
    for (int op = 0; op < 3000; ++op) {
      const Query* source = sources[rng.next_index(sources.size())];
      const Query* target = targets[rng.next_index(targets.size())];
      if (!model.mru.empty() && rng.next_bool(0.5)) {
        std::tie(source, target) = model.mru[rng.next_index(model.mru.size())];
      }
      const std::uint64_t kind = rng.next_below(10);
      if (kind < 5) {
        ASSERT_EQ(cache.insert(source, target), model.insert(source, target))
            << "capacity " << capacity << ", op " << op;
      } else if (kind < 7) {
        cache.touch(source, target);
        model.promote(source, target);
      } else {
        ASSERT_EQ(cache.erase(source, target), model.erase(source, target))
            << "capacity " << capacity << ", op " << op;
      }
      ASSERT_TRUE(agrees(cache, model, sources, targets))
          << "capacity " << capacity << ", op " << op;
    }
    if (capacity != 0) {
      EXPECT_GT(model.evictions, 0u) << "capacity " << capacity;
    }
  }
}

TEST(CachePolicyHelpers, Classification) {
  EXPECT_FALSE(caching_enabled(CachePolicy::kNone));
  EXPECT_TRUE(caching_enabled(CachePolicy::kSingle));
  EXPECT_TRUE(multi_placement(CachePolicy::kMulti));
  EXPECT_TRUE(multi_placement(CachePolicy::kLruMulti));
  EXPECT_FALSE(multi_placement(CachePolicy::kSingle));
  EXPECT_TRUE(bounded_cache(CachePolicy::kLru));
  EXPECT_FALSE(bounded_cache(CachePolicy::kMulti));
  EXPECT_EQ(to_string(CachePolicy::kLru), "lru");
  EXPECT_EQ(to_string(CachePolicy::kNone), "no-cache");
}

class LruCapacitySweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LruCapacitySweep, SizeNeverExceedsCapacity) {
  const std::size_t capacity = GetParam();
  ShortcutCache cache{capacity};
  const Query* t = q("/article[year=2000]");
  for (int i = 0; i < 200; ++i) {
    cache.insert(q("/article/title/T" + std::to_string(i)), t);
    EXPECT_LE(cache.size(), capacity);
  }
  EXPECT_EQ(cache.size(), capacity);
  EXPECT_EQ(cache.evictions(), 200u - capacity);
}

INSTANTIATE_TEST_SUITE_P(Capacities, LruCapacitySweep, ::testing::Values(1, 10, 20, 30, 100));

}  // namespace
}  // namespace dhtidx::index
