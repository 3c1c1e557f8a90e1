#include "index/cache.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace dhtidx::index {

std::string to_string(CachePolicy policy) {
  switch (policy) {
    case CachePolicy::kNone:
      return "no-cache";
    case CachePolicy::kMulti:
      return "multi-cache";
    case CachePolicy::kSingle:
      return "single-cache";
    case CachePolicy::kLru:
      return "lru";
    case CachePolicy::kLruMulti:
      return "lru-multi";
  }
  return "?";
}

std::vector<const query::Query*> ShortcutCache::targets_of(
    const query::Query* source) const {
  phase_.assert_shared();
  std::vector<const query::Query*> out;
  const auto it = by_source_.find(source);
  if (it == by_source_.end()) return out;
  out.reserve(it->second.size());
  for (const auto& entry_it : it->second) out.push_back(entry_it->target);
  return out;
}

std::vector<std::pair<const query::Query*, const query::Query*>> ShortcutCache::entries()
    const {
  phase_.assert_shared();
  std::vector<std::pair<const query::Query*, const query::Query*>> out;
  out.reserve(lru_.size());
  for (const Entry& entry : lru_) out.emplace_back(entry.source, entry.target);
  return out;
}

bool ShortcutCache::contains(const query::Query* source,
                             const query::Query* target) const {
  phase_.assert_shared();
  return by_key_.contains({source, target});
}

std::size_t ShortcutCache::bucket_size(const query::Query* source) const {
  phase_.assert_shared();
  const auto it = by_source_.find(source);
  return it == by_source_.end() ? 0 : it->second.size();
}

bool ShortcutCache::insert(const query::Query* source, const query::Query* target) {
  phase_.assert_exclusive();
  const auto it = by_key_.find({source, target});
  if (it != by_key_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    promote_in_bucket(source, it->second);
    return false;
  }
  if (capacity_ != 0) {
    while (lru_.size() >= capacity_) evict_lru();
  }
  lru_.push_front(Entry{source, target});
  by_key_.emplace(std::make_pair(source, target), lru_.begin());
  auto& bucket = by_source_[source];
  bucket.insert(bucket.begin(), lru_.begin());
  bytes_ += source->byte_size() + target->byte_size();
  return true;
}

void ShortcutCache::touch(const query::Query* source, const query::Query* target) {
  phase_.assert_exclusive();
  const auto it = by_key_.find({source, target});
  if (it == by_key_.end()) return;
  lru_.splice(lru_.begin(), lru_, it->second);
  promote_in_bucket(source, it->second);
}

bool ShortcutCache::erase(const query::Query* source, const query::Query* target) {
  phase_.assert_exclusive();
  const auto it = by_key_.find({source, target});
  if (it == by_key_.end()) return false;
  const auto entry_it = it->second;
  bytes_ -= entry_it->source->byte_size() + entry_it->target->byte_size();
  by_key_.erase(it);
  const auto bucket_it = by_source_.find(source);
  if (bucket_it == by_source_.end()) {
    throw InvariantError("shortcut cache: erasing entry with no source bucket for " +
                         source->canonical());
  }
  auto& bucket = bucket_it->second;
  const auto pos = std::find(bucket.begin(), bucket.end(), entry_it);
  if (pos == bucket.end()) {
    throw InvariantError("shortcut cache: erased entry absent from its bucket for " +
                         source->canonical());
  }
  bucket.erase(pos);
  if (bucket.empty()) by_source_.erase(bucket_it);
  lru_.erase(entry_it);
  return true;
}

void ShortcutCache::promote_in_bucket(const query::Query* source,
                                      std::list<Entry>::iterator entry_it) {
  const auto it = by_source_.find(source);
  if (it == by_source_.end()) {
    throw InvariantError("shortcut cache: source bucket missing for " +
                         source->canonical());
  }
  auto& bucket = it->second;
  const auto pos = std::find(bucket.begin(), bucket.end(), entry_it);
  if (pos == bucket.end()) {
    throw InvariantError("shortcut cache: entry missing from bucket for " +
                         source->canonical());
  }
  std::rotate(bucket.begin(), pos, std::next(pos));
}

void ShortcutCache::evict_lru() {
  if (lru_.empty()) return;
  const auto victim = std::prev(lru_.end());
  bytes_ -= victim->source->byte_size() + victim->target->byte_size();
  const query::Query* source = victim->source;
  by_key_.erase({victim->source, victim->target});
  // find(), not operator[]: the victim must have a bucket -- silently
  // materializing an empty one would hide index corruption and leak map
  // entries.
  const auto bucket_it = by_source_.find(source);
  if (bucket_it == by_source_.end()) {
    throw InvariantError("shortcut cache: evicting entry with no source bucket for " +
                         source->canonical());
  }
  auto& bucket = bucket_it->second;
  const auto pos = std::find(bucket.begin(), bucket.end(), victim);
  if (pos == bucket.end()) {
    throw InvariantError("shortcut cache: evicted entry absent from its bucket for " +
                         source->canonical());
  }
  bucket.erase(pos);
  if (bucket.empty()) by_source_.erase(bucket_it);
  lru_.erase(victim);
  ++evictions_;
}

}  // namespace dhtidx::index
